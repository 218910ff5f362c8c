//! Per-frame observations and the aggregate run report.

use dvs_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Frame drops per second: `janks` over `display_time` in seconds, 0 when
/// nothing was displayed. The one FDPS formula behind [`RunReport::fdps`],
/// [`RunTotals::fdps`] and [`RunAggregate::fdps`](crate::RunAggregate::fdps);
/// a segmented run's FDPS is this formula over its summed per-segment
/// counts, bit for bit.
pub fn fdps(janks: usize, display_time: SimDuration) -> f64 {
    let secs = display_time.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        janks as f64 / secs
    }
}

/// The scalars the paper reduces a run to — FDPS (§6.2), FD% (Fig. 5), mean
/// latency (§6.3) and the rendering work behind §6.4's energy — without the
/// per-frame records they come from.
///
/// Counts add up run after run; the latency and work sums are running
/// folds that add each frame's value in record order, starting from zero,
/// exactly as [`RunReport::totals`] walks a report's records. So totals
/// folded over the segments of a run, one segment after another, equal the
/// totals of the merged report bit for bit. The order is the contract:
/// partial totals folded apart and then added together would round
/// differently, so there is deliberately no merge or `+`.
///
/// # Examples
///
/// ```
/// use dvs_metrics::{RunReport, RunTotals};
/// let totals: RunTotals = RunReport::new("empty", 60).totals();
/// assert_eq!((totals.fdps(), totals.mean_latency_ms()), (0.0, 0.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunTotals {
    /// Missed refreshes while content was expected.
    pub janks: usize,
    /// Display span, summed over runs.
    pub display_time: SimDuration,
    /// Refreshes during the display span, summed over runs.
    pub ticks_active: u64,
    /// Frames presented (one [`FrameRecord`] each on the record path).
    pub records: usize,
    /// Rendering latency in milliseconds, summed in record order.
    pub latency_ms_sum: f64,
    /// UI + RS stage cost in milliseconds, summed in record order.
    pub work_ms_sum: f64,
}

impl RunTotals {
    /// Adds the next presented frame, in record order: its rendering
    /// latency ([`FrameRecord::latency`]) and its UI + RS stage cost.
    #[inline]
    pub fn add_frame(&mut self, latency: SimDuration, work: SimDuration) {
        self.records += 1;
        self.latency_ms_sum += latency.as_millis_f64();
        self.work_ms_sum += work.as_millis_f64();
    }

    /// Adds the next record of a report, in record order.
    pub fn add_record(&mut self, record: &FrameRecord) {
        self.add_frame(record.latency(), record.ui_cost + record.rs_cost);
    }

    /// Frame drops per second of display time; see [`fdps`].
    pub fn fdps(&self) -> f64 {
        fdps(self.janks, self.display_time)
    }

    /// Janks as a fraction of active refreshes (Figure 5's FD%).
    pub fn fd_fraction(&self) -> f64 {
        if self.ticks_active == 0 {
            0.0
        } else {
            self.janks as f64 / self.ticks_active as f64
        }
    }

    /// Mean rendering latency across all presented frames, in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.latency_ms_sum / self.records as f64
        }
    }
}

/// How a produced frame reached the screen (Figure 6's taxonomy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameKind {
    /// Presented at the first refresh it was eligible for.
    Direct,
    /// Sat in the buffer queue past its first eligible refresh ("buffer
    /// stuffing" — the source of the extra VSync period of latency in §3.3).
    Stuffed,
    /// Arrived after its scheduled display slot, causing the preceding jank.
    Dropped,
}

/// One produced frame, from trigger to present fence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameRecord {
    /// Producer-assigned sequence number.
    pub seq: u64,
    /// When the frame's UI stage began executing.
    pub trigger: SimTime,
    /// The content basis used for the latency metric: the VSync-app event
    /// timestamp under VSync, or the virtual VSync-app timestamp implied by
    /// the D-Timestamp under D-VSync (§6.3 methodology).
    pub basis: SimTime,
    /// The timestamp the rendered content represents: equals `basis` plus
    /// the pipeline depth under D-VSync (the D-Timestamp), or the trigger
    /// time under VSync.
    pub content_timestamp: SimTime,
    /// When the rendered buffer entered the queue.
    pub queued_at: SimTime,
    /// When the panel displayed the frame (present fence).
    pub present: SimTime,
    /// The refresh index the frame was displayed at.
    pub present_tick: u64,
    /// The earliest refresh index the frame could have been displayed at.
    pub eligible_tick: u64,
    /// Direct / stuffed / dropped classification.
    pub kind: FrameKind,
    /// UI-stage cost consumed by this frame.
    pub ui_cost: SimDuration,
    /// Render-stage cost consumed by this frame.
    pub rs_cost: SimDuration,
}

impl FrameRecord {
    /// The paper's rendering-latency metric: present fence − content basis.
    pub fn latency(&self) -> SimDuration {
        self.present.saturating_since(self.basis)
    }

    /// How far the displayed content lagged (positive) or led (negative)
    /// the moment it appeared, in nanoseconds. Zero under perfect DTV.
    pub fn content_error_ns(&self) -> i64 {
        self.present.as_nanos() as i64 - self.content_timestamp.as_nanos() as i64
    }

    /// Time the buffer spent waiting in the queue.
    pub fn queue_wait(&self) -> SimDuration {
        self.present.saturating_since(self.queued_at)
    }
}

/// A refresh at which the screen expected new content but had none.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct JankEvent {
    /// The refresh index that repeated the previous frame.
    pub tick: u64,
    /// The refresh time.
    pub time: SimTime,
}

/// The class of an injected fault, mirrored into the report so faulty runs
/// are self-describing (and byte-identically replayable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// A UI-thread stall inflated a frame's UI stage.
    UiStall,
    /// A GPU/render-stage stall inflated a frame's RS stage.
    RsStall,
    /// A hardware VSync pulse was swallowed entirely.
    VsyncMiss,
    /// A hardware VSync pulse fired late.
    VsyncDelay,
    /// A transient buffer-allocation failure denied a dequeue.
    AllocDenied,
    /// The panel switched refresh rate (LTPO glitch or thermal cap).
    RateSwitch,
}

/// One injected fault that actually fired during the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecord {
    /// The refresh index (or frame index for stage stalls) the fault hit.
    pub tick: u64,
    /// Simulated time at which the fault took effect.
    pub time: SimTime,
    /// What kind of fault it was.
    pub class: FaultClass,
}

/// Which pacing discipline the pipeline is running under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacerMode {
    /// Full D-VSync decoupled pacing (FPE + DTV).
    Decoupled,
    /// Classic VSync pacing — the graceful-degradation fallback.
    Classic,
}

/// One degradation or recovery transition taken by the pacer watchdog.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeTransition {
    /// Simulated time of the switch.
    pub time: SimTime,
    /// Index of the next frame to be planned when the switch happened.
    pub frame_index: u64,
    /// The mode being entered.
    pub mode: PacerMode,
    /// Human-readable trigger (e.g. "3 misses in 12 ticks").
    pub reason: String,
}

/// The fractions of produced frames in each [`FrameKind`] (Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrameDistribution {
    /// Fraction presented directly.
    pub direct: f64,
    /// Fraction delayed by buffer stuffing.
    pub stuffed: f64,
    /// Fraction that missed their slot (late after a jank).
    pub dropped: f64,
}

/// Everything observed during one simulated scenario run.
///
/// # Examples
///
/// ```
/// use dvs_metrics::RunReport;
/// let report = RunReport::new("empty", 60);
/// assert_eq!(report.fdps(), 0.0);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Scenario name.
    pub name: String,
    /// Panel refresh rate in Hz (the dominant rate if LTPO switched).
    pub rate_hz: u32,
    /// Every produced frame, in sequence order.
    pub records: Vec<FrameRecord>,
    /// Every missed refresh while content was expected.
    pub janks: Vec<JankEvent>,
    /// Wall-clock display span: first present to one period past the last.
    pub display_time: SimDuration,
    /// Refreshes that occurred during the display span.
    pub ticks_active: u64,
    /// Deepest the pre-render queue ever got (accumulation high-water mark),
    /// which bounds the run's live buffer memory.
    #[serde(default)]
    pub max_queued: usize,
    /// Every injected fault that actually fired, in injection order.
    #[serde(default)]
    pub fault_events: Vec<FaultRecord>,
    /// Every pacer degradation/recovery transition, in time order.
    #[serde(default)]
    pub mode_transitions: Vec<ModeTransition>,
    /// True if the run hit its safety time limit before finishing the trace.
    pub truncated: bool,
}

impl RunReport {
    /// An empty report for the given scenario.
    pub fn new(name: impl Into<String>, rate_hz: u32) -> Self {
        RunReport {
            name: name.into(),
            rate_hz,
            // dvs-lint: allow(hot-alloc-transitive, reason = "arena construction happens once per worker; runs reuse these buffers")
            records: Vec::new(),
            // dvs-lint: allow(hot-alloc-transitive, reason = "arena construction happens once per worker; runs reuse these buffers")
            janks: Vec::new(),
            display_time: SimDuration::ZERO,
            ticks_active: 0,
            max_queued: 0,
            // dvs-lint: allow(hot-alloc-transitive, reason = "arena construction happens once per worker; runs reuse these buffers")
            fault_events: Vec::new(),
            // dvs-lint: allow(hot-alloc-transitive, reason = "arena construction happens once per worker; runs reuse these buffers")
            mode_transitions: Vec::new(),
            truncated: false,
        }
    }

    /// Pre-sizes the report for a whole scenario: `frames` upcoming frame
    /// records plus `transitions` expected pacer mode transitions.
    ///
    /// A combined report absorbs one segment at a time, and growing by
    /// doubling would re-copy every record already merged. Sizing from the
    /// scenario's *total* frame count (and leaving slack for the
    /// degradation watchdog's transition log) keeps the steady-state appends
    /// of [`RunReport::absorb_from`] reallocation-free.
    pub fn reserve_for(&mut self, frames: usize, transitions: usize) {
        self.records.reserve(frames);
        self.mode_transitions.reserve(transitions);
    }

    /// Returns the report to the empty state [`RunReport::new`] would build
    /// for `(name, rate_hz)`, keeping every backing allocation.
    ///
    /// This is the reuse half of the pooled-run protocol: a worker owns one
    /// report per slot, `reset`s it at the start of each run, and the vectors
    /// grow to the largest scenario seen and then stop touching the
    /// allocator. The result is indistinguishable from a fresh report —
    /// metric formulas, serialization, and `absorb` behavior are unaffected
    /// by the retained capacity.
    pub fn reset(&mut self, name: &str, rate_hz: u32) {
        self.name.clear();
        self.name.push_str(name);
        self.rate_hz = rate_hz;
        self.records.clear();
        self.janks.clear();
        self.display_time = SimDuration::ZERO;
        self.ticks_active = 0;
        self.max_queued = 0;
        self.fault_events.clear();
        self.mode_transitions.clear();
        self.truncated = false;
    }

    /// Number of degradations (transitions *into* classic VSync pacing).
    pub fn degradations(&self) -> usize {
        self.mode_transitions.iter().filter(|t| t.mode == PacerMode::Classic).count()
    }

    /// Number of recoveries (transitions back into decoupled pacing).
    pub fn recoveries(&self) -> usize {
        self.mode_transitions.iter().filter(|t| t.mode == PacerMode::Decoupled).count()
    }

    /// Frame drops per second of display time (the headline FDPS metric);
    /// see [`fdps`].
    pub fn fdps(&self) -> f64 {
        fdps(self.janks.len(), self.display_time)
    }

    /// Janks as a fraction of active refreshes (Figure 5's FD%); see
    /// [`RunTotals::fd_fraction`].
    pub fn fd_fraction(&self) -> f64 {
        self.totals().fd_fraction()
    }

    /// Mean rendering latency across all produced frames, in milliseconds;
    /// see [`RunTotals::mean_latency_ms`].
    pub fn mean_latency_ms(&self) -> f64 {
        self.totals().mean_latency_ms()
    }

    /// The report reduced to its [`RunTotals`]: the counts, and the latency
    /// and work sums folded over the records in order.
    pub fn totals(&self) -> RunTotals {
        let mut totals = RunTotals {
            janks: self.janks.len(),
            display_time: self.display_time,
            ticks_active: self.ticks_active,
            ..RunTotals::default()
        };
        for record in &self.records {
            totals.add_record(record);
        }
        totals
    }

    /// Latency summary statistics in milliseconds.
    pub fn latency_summary(&self) -> crate::Summary {
        crate::Summary::from_samples(self.records.iter().map(|r| r.latency().as_millis_f64()))
    }

    /// The direct / stuffed / dropped frame distribution (Figure 6).
    pub fn distribution(&self) -> FrameDistribution {
        let n = self.records.len().max(1) as f64;
        let count = |k: FrameKind| self.records.iter().filter(|r| r.kind == k).count() as f64 / n;
        FrameDistribution {
            direct: count(FrameKind::Direct),
            stuffed: count(FrameKind::Stuffed),
            dropped: count(FrameKind::Dropped),
        }
    }

    /// Largest absolute content error in milliseconds (DTV correctness).
    pub fn max_content_error_ms(&self) -> f64 {
        self.records.iter().map(|r| (r.content_error_ns().abs() as f64) / 1e6).fold(0.0, f64::max)
    }

    /// Merges another report into this one (used by multi-scene tasks and
    /// segmented runs).
    ///
    /// Each incoming segment's refresh indices restart from zero, so they
    /// are re-based past everything merged so far (plus an idle gap of one
    /// refresh, matching the queue-draining pause between animations). This
    /// keeps the merged tick sequence globally monotone — in particular,
    /// jank runs never merge across a segment boundary. Timestamps remain
    /// segment-relative.
    ///
    /// Both reports must keep their records and janks in tick order
    /// (`present_tick` and `tick` non-decreasing), as simulator reports do:
    /// the re-base offset is read from the last record and the last jank.
    pub fn absorb(&mut self, mut other: RunReport) {
        self.absorb_from(&mut other);
    }

    /// Drain-based [`RunReport::absorb`]: merges `other`'s contents while
    /// leaving its (now empty) vectors — and their capacity — behind.
    ///
    /// Pooled segmented runs lean on this: the per-segment report is drained
    /// into the combined report and then `reset` for the next segment, so
    /// one segment-sized allocation serves the whole run. The merge itself
    /// is byte-identical to `absorb`, under the same tick-order
    /// precondition, which debug builds check. `other`'s scalar fields are
    /// left untouched; a subsequent [`RunReport::reset`] clears them.
    pub fn absorb_from(&mut self, other: &mut RunReport) {
        debug_assert!(
            [&*self, &*other].iter().all(|r| r.in_tick_order()),
            "absorb needs records and janks in tick order"
        );
        let offset = self
            .records
            .last()
            .map(|r| r.present_tick)
            .max(self.janks.last().map(|j| j.tick))
            .map_or(0, |last| last + 2);
        self.records.extend(other.records.drain(..).map(|mut r| {
            r.present_tick += offset;
            r.eligible_tick += offset;
            r
        }));
        self.janks.extend(other.janks.drain(..).map(|mut j| {
            j.tick += offset;
            j
        }));
        self.fault_events.extend(other.fault_events.drain(..).map(|mut e| {
            e.tick += offset;
            e
        }));
        self.mode_transitions.append(&mut other.mode_transitions);
        self.display_time += other.display_time;
        self.ticks_active += other.ticks_active;
        self.max_queued = self.max_queued.max(other.max_queued);
        self.truncated |= other.truncated;
    }

    /// Whether records and janks are in tick order, the precondition of
    /// [`RunReport::absorb`].
    fn in_tick_order(&self) -> bool {
        self.records.is_sorted_by_key(|r| r.present_tick) && self.janks.is_sorted_by_key(|j| j.tick)
    }
}

impl Default for RunReport {
    /// An anonymous empty report — the natural starting value for pooled
    /// slots that are `reset` before every use.
    fn default() -> Self {
        RunReport::new("", 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: FrameKind, basis_ms: u64, present_ms: u64) -> FrameRecord {
        FrameRecord {
            seq: 0,
            trigger: SimTime::from_millis(basis_ms),
            basis: SimTime::from_millis(basis_ms),
            content_timestamp: SimTime::from_millis(present_ms),
            queued_at: SimTime::from_millis(basis_ms + 5),
            present: SimTime::from_millis(present_ms),
            present_tick: 2,
            eligible_tick: 2,
            kind,
            ui_cost: SimDuration::from_millis(4),
            rs_cost: SimDuration::from_millis(4),
        }
    }

    #[test]
    fn fdps_counts_janks_per_second() {
        let mut r = RunReport::new("t", 60);
        r.display_time = SimDuration::from_secs(10);
        r.ticks_active = 600;
        for i in 0..20 {
            r.janks.push(JankEvent { tick: i * 30, time: SimTime::from_millis(i * 500) });
        }
        assert!((r.fdps() - 2.0).abs() < 1e-9);
        assert!((r.fd_fraction() - 20.0 / 600.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_all_zeroes() {
        let r = RunReport::new("t", 120);
        assert_eq!(r.fdps(), 0.0);
        assert_eq!(r.fd_fraction(), 0.0);
        assert_eq!(r.mean_latency_ms(), 0.0);
        assert_eq!(r.max_content_error_ms(), 0.0);
    }

    #[test]
    fn latency_is_present_minus_basis() {
        let rec = record(FrameKind::Direct, 10, 43);
        assert!((rec.latency().as_millis_f64() - 33.0).abs() < 1e-9);
    }

    #[test]
    fn content_error_zero_when_timestamp_matches_present() {
        let rec = record(FrameKind::Direct, 10, 43);
        assert_eq!(rec.content_error_ns(), 0);
    }

    #[test]
    fn distribution_fractions_sum_to_one() {
        let mut r = RunReport::new("t", 60);
        r.records.push(record(FrameKind::Direct, 0, 33));
        r.records.push(record(FrameKind::Direct, 16, 50));
        r.records.push(record(FrameKind::Stuffed, 33, 83));
        r.records.push(record(FrameKind::Dropped, 50, 116));
        let d = r.distribution();
        assert!((d.direct + d.stuffed + d.dropped - 1.0).abs() < 1e-12);
        assert!((d.direct - 0.5).abs() < 1e-12);
    }

    #[test]
    fn totals_folded_segment_by_segment_equal_the_merged_reports() {
        // Latencies and costs with inexact binary fractions, so a sum in
        // another order would round differently.
        let mut rng = dvs_sim::SimRng::seed_from(0x0707_4A15);
        let (mut merged, mut folded) = (RunReport::new("merged", 60), RunTotals::default());
        for _ in 0..12 {
            let mut seg = RunReport::new("seg", 60);
            for tick in 0..rng.next_below(40) {
                let mut r = record(FrameKind::Direct, tick, tick + 33);
                r.present =
                    SimTime::from_nanos(r.basis.as_nanos() + 1 + rng.next_below(90_000_000));
                r.present_tick = tick;
                r.ui_cost = SimDuration::from_nanos(rng.next_below(9_000_000));
                r.rs_cost = SimDuration::from_nanos(rng.next_below(21_000_000));
                seg.records.push(r);
                if rng.next_below(5) == 0 {
                    seg.janks.push(JankEvent { tick, time: SimTime::from_millis(tick) });
                }
            }
            seg.display_time = SimDuration::from_nanos(16_666_667 * (1 + rng.next_below(40)));
            seg.ticks_active = rng.next_below(40);
            folded.janks += seg.janks.len();
            folded.display_time += seg.display_time;
            folded.ticks_active += seg.ticks_active;
            seg.records.iter().for_each(|r| folded.add_record(r));
            merged.absorb(seg);
        }
        let want = merged.totals();
        assert_eq!(folded.latency_ms_sum.to_bits(), want.latency_ms_sum.to_bits());
        assert_eq!(folded.work_ms_sum.to_bits(), want.work_ms_sum.to_bits());
        assert_eq!(folded, want);
        assert_eq!(folded.fdps().to_bits(), merged.fdps().to_bits());
        assert_eq!(folded.fd_fraction().to_bits(), merged.fd_fraction().to_bits());
        assert_eq!(folded.mean_latency_ms().to_bits(), merged.mean_latency_ms().to_bits());
        assert!(want.records > 100 && want.janks > 10, "the report exercised the fold");
    }

    #[test]
    fn absorb_concatenates() {
        let mut a = RunReport::new("a", 60);
        a.display_time = SimDuration::from_secs(1);
        a.ticks_active = 60;
        a.janks.push(JankEvent { tick: 5, time: SimTime::from_millis(83) });
        let mut b = RunReport::new("b", 60);
        b.display_time = SimDuration::from_secs(1);
        b.ticks_active = 60;
        b.janks.push(JankEvent { tick: 9, time: SimTime::from_millis(150) });
        a.absorb(b);
        assert_eq!(a.janks.len(), 2);
        assert!((a.fdps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn absorb_offset_matches_a_rescan_over_many_segments() {
        // The reference: rescan every record and jank merged so far, and
        // re-base one past the highest tick, plus the idle gap.
        fn rescan_offset(r: &RunReport) -> u64 {
            r.records
                .iter()
                .map(|r| r.present_tick)
                .chain(r.janks.iter().map(|j| j.tick))
                .max()
                .map_or(0, |last| last + 2)
        }
        let mut rng = dvs_sim::SimRng::seed_from(0x00AB_502B);
        for case in 0..300 {
            let mut merged = RunReport::new("merged", 60);
            for segment in 0..rng.next_below(16) {
                // A segment in tick order: each refresh presents a frame,
                // janks, or neither (either vector may end up empty).
                let mut seg = RunReport::new("seg", 60);
                let mode = rng.next_below(4);
                for tick in 0..rng.next_below(50) {
                    let draw = rng.next_below(3);
                    if mode != 1 && draw == 0 {
                        let mut r = record(FrameKind::Direct, tick, tick + 33);
                        r.present_tick = tick;
                        r.eligible_tick = tick.saturating_sub(rng.next_below(3));
                        seg.records.push(r);
                    } else if mode != 2 && draw == 1 {
                        seg.janks.push(JankEvent { tick, time: SimTime::from_millis(tick) });
                    }
                }
                let donor = seg.clone();
                let offset = rescan_offset(&merged);
                let (records, janks) = (merged.records.len(), merged.janks.len());
                merged.absorb_from(&mut seg);
                let at = format!("case {case}, segment {segment}");
                for (got, want) in merged.records[records..].iter().zip(&donor.records) {
                    assert_eq!(got.present_tick, want.present_tick + offset, "{at}");
                    assert_eq!(got.eligible_tick, want.eligible_tick + offset, "{at}");
                }
                for (got, want) in merged.janks[janks..].iter().zip(&donor.janks) {
                    assert_eq!(got.tick, want.tick + offset, "{at}");
                }
                assert_eq!(merged.records.len(), records + donor.records.len(), "{at}");
                assert_eq!(merged.janks.len(), janks + donor.janks.len(), "{at}");
            }
        }
    }

    #[test]
    fn absorb_from_matches_absorb_and_keeps_donor_capacity() {
        let build = |tag: &str| {
            let mut r = RunReport::new(tag, 60);
            r.display_time = SimDuration::from_secs(1);
            r.ticks_active = 60;
            r.records.push(record(FrameKind::Direct, 0, 33));
            r.janks.push(JankEvent { tick: 7, time: SimTime::from_millis(116) });
            r
        };
        let mut by_value = build("combined");
        by_value.absorb(build("seg"));

        let mut by_drain = build("combined");
        let mut donor = build("seg");
        donor.records.reserve(100);
        let cap = donor.records.capacity();
        by_drain.absorb_from(&mut donor);

        assert_eq!(
            serde_json::to_string(&by_value).unwrap(),
            serde_json::to_string(&by_drain).unwrap(),
            "drain-based absorb must be byte-identical to the by-value one"
        );
        assert!(donor.records.is_empty());
        assert_eq!(donor.records.capacity(), cap, "the donor keeps its allocation for reuse");
    }

    #[test]
    fn reset_is_indistinguishable_from_fresh() {
        let mut pooled = RunReport::new("old-scenario", 120);
        pooled.records.push(record(FrameKind::Dropped, 3, 90));
        pooled.janks.push(JankEvent { tick: 4, time: SimTime::from_millis(66) });
        pooled.display_time = SimDuration::from_secs(9);
        pooled.ticks_active = 540;
        pooled.max_queued = 3;
        pooled.truncated = true;
        pooled.mode_transitions.push(ModeTransition {
            time: SimTime::from_millis(10),
            frame_index: 1,
            mode: PacerMode::Classic,
            reason: "stale".into(),
        });
        let cap = pooled.records.capacity();
        pooled.reset("fresh", 60);
        assert_eq!(
            serde_json::to_string(&pooled).unwrap(),
            serde_json::to_string(&RunReport::new("fresh", 60)).unwrap(),
        );
        assert_eq!(pooled.records.capacity(), cap, "reset must keep the backing allocation");
    }

    #[test]
    fn reserve_for_sizes_records_and_transitions() {
        let mut r = RunReport::new("t", 60);
        r.reserve_for(600, 8);
        assert!(r.records.capacity() >= 600);
        assert!(r.mode_transitions.capacity() >= 8);
    }

    #[test]
    fn serde_round_trip() {
        let mut r = RunReport::new("t", 60);
        r.records.push(record(FrameKind::Stuffed, 1, 51));
        r.fault_events.push(FaultRecord {
            tick: 3,
            time: SimTime::from_millis(50),
            class: FaultClass::VsyncMiss,
        });
        r.mode_transitions.push(ModeTransition {
            time: SimTime::from_millis(60),
            frame_index: 4,
            mode: PacerMode::Classic,
            reason: "test".into(),
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].kind, FrameKind::Stuffed);
        assert_eq!(back.fault_events, r.fault_events);
        assert_eq!(back.mode_transitions, r.mode_transitions);
        assert_eq!(back.degradations(), 1);
        assert_eq!(back.recoveries(), 0);
    }

    #[test]
    fn old_reports_without_fault_fields_still_parse() {
        // Reports serialized before the fault-injection work lack the new
        // fields; #[serde(default)] must fill them in.
        let json = r#"{"name":"old","rate_hz":60,"records":[],"janks":[],
            "display_time":0,"ticks_active":0,"truncated":false}"#;
        let back: RunReport = serde_json::from_str(json).unwrap();
        assert!(back.fault_events.is_empty());
        assert!(back.mode_transitions.is_empty());
    }
}
