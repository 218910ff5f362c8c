//! Baseline calibration: tuning a scenario's key-frame rate so its *VSync*
//! run reproduces the FDPS the paper measured on real hardware.
//!
//! The paper's figures give us, per scenario, the baseline frame drops per
//! second (the blue bars). Our synthetic traces have one free intensity
//! parameter — `long_rate_per_sec` — which this module solves for by
//! bisection against the simulator itself. Crucially only the *baseline* is
//! fitted; every D-VSync number in the repro harness is then a measured
//! outcome of running the same calibrated trace under the decoupled pacer.
//!
//! A search measures the scenario about a dozen times, and neighbouring
//! rates mostly generate the same frames: two rates draw the same random
//! numbers up to the first key-frame trial whose draw lies between their
//! two probabilities. Each call therefore keeps a private memo of its
//! measurements — per animation segment, the highest trial draw that fired
//! and the lowest that missed, plus the measurement's [`RunTotals`] through
//! that segment. A new rate reuses the longest run of leading segments some
//! earlier measurement decided the same way, and skips trace generation
//! entirely when that run is the whole trace. Every segment runs from fresh
//! pipeline state, and reused segments always form a leading run, so a new
//! rate resumes the fold from its source's totals through that run and
//! folds in only the segments it re-simulates
//! ([`Simulator::try_tally_into`](crate::Simulator::try_tally_into)) — the
//! same additions, in the same order, as
//! [`RunReport::totals`](dvs_metrics::RunReport::totals) over the merged
//! report of a full segmented run.
//!
//! The search hands over what its best measurement already built: the
//! fitted trace and the baseline run's totals, from which FDPS, FD% and
//! mean latency follow. A caller such as the sweep's grid cache thus gets
//! the baseline cell without running it again. The fitted trace comes from
//! a second pooled trace: when a measurement that generated its frames
//! becomes the search's best, the memo swaps them out of the working trace
//! before a later measurement overwrites them.

use std::ops::Range;

use dvs_metrics::RunTotals;
use dvs_workload::{FrameTrace, ScenarioSpec, TraceGenerator};

use crate::config::PipelineConfig;
use crate::core::RunArena;
use crate::pacer::VsyncPacer;
use crate::simulator::Simulator;

/// The result of calibrating one scenario: the fitted spec plus the trace
/// and baseline measurement the search already made for it.
#[derive(Clone, Debug)]
pub struct CalibrationOutcome {
    /// The spec with `cost.long_rate_per_sec` replaced by the fitted value.
    pub spec: ScenarioSpec,
    /// The fitted spec's trace: equal to `spec.generate()`.
    pub trace: FrameTrace,
    /// The baseline run the fitted spec actually measures: bit for bit the
    /// [`totals`](dvs_metrics::RunReport::totals) of a segmented VSync run
    /// of `spec` at the calibration's buffer count, so its FDPS, FD% and
    /// mean latency are that run's.
    pub baseline: RunTotals,
    /// Search steps used: the bracket's doublings plus the bisection steps
    /// (0 for a zero target).
    pub iterations: usize,
}

/// Fits `spec.cost.long_rate_per_sec` so that the VSync baseline with
/// `buffers` buffers measures `spec.paper_baseline_fdps` frame drops per
/// second (within ~5 %), and returns the adjusted spec.
///
/// A target of `0.0` returns a spec with no key frames at all.
///
/// # Examples
///
/// ```
/// use dvs_pipeline::calibrate_spec;
/// use dvs_workload::{CostProfile, ScenarioSpec};
///
/// let spec = ScenarioSpec::new("cal", 60, 600, CostProfile::scattered(1.0))
///     .with_paper_fdps(2.0);
/// let out = calibrate_spec(&spec, 3);
/// assert!((out.baseline.fdps() - 2.0).abs() < 0.6);
/// ```
pub fn calibrate_spec(spec: &ScenarioSpec, buffers: usize) -> CalibrationOutcome {
    let mut arena = RunArena::new();
    calibrate_spec_pooled(spec, buffers, &mut arena)
}

/// [`calibrate_spec`] through a caller-provided [`RunArena`].
///
/// Each measurement is a segmented VSync run (as
/// [`run_segmented`](crate::run_segmented) performs it with a
/// [`VsyncPacer`]) whose segments execute through `arena` and its scratch
/// report. Segments and whole traces that an earlier measurement of the
/// same call already decided are reused instead of re-simulated (see the
/// module docs); the memo lives only for this call. The fitted rate, the
/// baseline totals and `iterations` are bit-identical to measuring every
/// rate in full, and to [`calibrate_spec`]: the search
/// sequence is deterministic and the arena is scratch. The returned trace
/// is the one the best measurement's frames were generated into, generated
/// again only when neither pooled trace still holds them.
pub fn calibrate_spec_pooled(
    spec: &ScenarioSpec,
    buffers: usize,
    arena: &mut RunArena,
) -> CalibrationOutcome {
    let mut memo = Memo::new(spec, buffers);
    let (best, iterations) = memo.search(arena);
    memo.into_outcome(best, iterations)
}

/// One measurement of the search.
#[derive(Clone, Copy)]
struct Measurement {
    rate: f64,
    /// The segmented VSync run's totals at `rate`.
    totals: RunTotals,
    /// The memoized measurement whose frames this one's are (`None` for a
    /// zero rate, which is never memoized).
    run: Option<usize>,
}

impl Measurement {
    fn fdps(&self) -> f64 {
        self.totals.fdps()
    }
}

/// One animation segment of a memoized measurement.
#[derive(Clone, Copy)]
struct SegmentOutcome {
    /// Highest key-frame trial draw in this segment that fired.
    fired: f64,
    /// Lowest key-frame trial draw in this segment that missed.
    missed: f64,
    /// The measurement's totals through this segment.
    totals: RunTotals,
}

impl SegmentOutcome {
    fn untried() -> Self {
        SegmentOutcome {
            fired: f64::NEG_INFINITY,
            missed: f64::INFINITY,
            totals: RunTotals::default(),
        }
    }

    /// Whether key-frame probability `p` decides every trial of this
    /// segment as the memoized rate did. When it does so for every segment
    /// up to this one, it generates the same frames through this one.
    fn admits(&self, p: f64) -> bool {
        self.fired < p && p <= self.missed
    }
}

/// The measurements of one calibration call.
struct Memo {
    /// The scenario, at the rate measured last.
    spec: ScenarioSpec,
    cfg: PipelineConfig,
    segments: Vec<Range<usize>>,
    /// Each memoized (positive-rate) measurement.
    runs: Vec<Measurement>,
    /// `segments.len()` outcomes per memoized measurement, in order.
    outcomes: Vec<SegmentOutcome>,
    /// Pooled full trace and the one segment being simulated.
    trace: FrameTrace,
    segment: FrameTrace,
    /// The memoized measurement whose frames `trace` holds (`None` after a
    /// zero-rate measurement, which is never memoized, and while `trace`
    /// holds no measurement's frames).
    traced: Option<usize>,
    /// The frames of the search's best measurement so far, swapped out of
    /// `trace` when a measurement that generated them became the best, and
    /// the memoized measurement they belong to (`None` while empty).
    kept: FrameTrace,
    kept_run: Option<usize>,
}

impl Memo {
    fn new(spec: &ScenarioSpec, buffers: usize) -> Self {
        Memo {
            spec: spec.clone(),
            cfg: PipelineConfig::new(spec.rate_hz, buffers),
            segments: spec.segment_ranges(spec.frames),
            runs: Vec::new(),
            outcomes: Vec::new(),
            trace: FrameTrace::new(String::new(), spec.rate_hz),
            segment: FrameTrace::new(String::new(), spec.rate_hz),
            traced: None,
            kept: FrameTrace::new(String::new(), spec.rate_hz),
            kept_run: None,
        }
    }

    /// The bisection for the key-frame rate whose VSync baseline measures
    /// the spec's paper FDPS: the best measurement and the steps taken.
    fn search(&mut self, arena: &mut RunArena) -> (Measurement, usize) {
        let target = self.spec.paper_baseline_fdps;
        if target <= 0.0 {
            // A zero rate is never memoized, so its measurement always
            // leaves its own frames in the pooled trace.
            return (self.measure(0.0, arena), 0);
        }

        // Bracket the target: grow `hi` until the measured FDPS exceeds it.
        let mut lo = 0.0f64;
        let mut hi = (target * 0.8).max(0.25);
        let mut iterations = 0usize;
        let mut at_hi = self.measure(hi, arena);
        while at_hi.fdps() < target && hi < self.spec.rate_hz as f64 {
            lo = hi;
            hi *= 2.0;
            at_hi = self.measure(hi, arena);
            iterations += 1;
            if iterations > 16 {
                break;
            }
        }

        // Bisect.
        let mut best = at_hi;
        self.keep(best);
        for _ in 0..18 {
            iterations += 1;
            let mid = 0.5 * (lo + hi);
            let measured = self.measure(mid, arena);
            let f = measured.fdps();
            if (f - target).abs() < (best.fdps() - target).abs() {
                best = measured;
                self.keep(best);
            }
            if (f - target).abs() / target < 0.03 {
                break;
            }
            if f < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (best, iterations)
    }

    /// The segmented VSync run of the scenario at key-frame `rate`.
    fn measure(&mut self, rate: f64, arena: &mut RunArena) -> Measurement {
        self.spec.cost.long_rate_per_sec = rate;
        let n = self.segments.len();
        // A zero rate makes no trials, so it neither reuses nor is reused.
        let trials = rate > 0.0;
        let p = self.probability();

        // The memoized run that decides the most leading segments like `p`
        // (tied runs hold the same frames over those segments).
        let memoized = if trials { self.runs.len() } else { 0 };
        let source = (0..memoized)
            .map(|run| (run, self.run_outcomes(run).iter().take_while(|o| o.admits(p)).count()))
            .max_by_key(|&(_, admitted)| admitted);
        if let Some((run, admitted)) = source {
            if admitted == n {
                return Measurement { rate, ..self.runs[run] };
            }
        }

        let base = self.outcomes.len();
        self.outcomes.resize(base + n, SegmentOutcome::untried());
        let seg_len = self.spec.segment_frames.max(1);
        let fresh = &mut self.outcomes[base..];
        TraceGenerator::new(&self.spec).generate_observed(&mut self.trace, |frame, u, fired| {
            let o = &mut fresh[frame / seg_len];
            if fired {
                o.fired = o.fired.max(u);
            } else {
                o.missed = o.missed.min(u);
            }
        });

        let (run, admitted) = source.unwrap_or((0, 0));
        let sim = Simulator::new(&self.cfg);
        let mut totals = RunTotals::default();
        for k in 0..n {
            if k < admitted {
                // Reused segments lead, so the source's totals through `k`
                // are this run's too.
                totals = self.outcomes[run * n + k].totals;
            } else {
                self.segment.frames.clear();
                self.segment.frames.extend_from_slice(&self.trace.frames[self.segments[k].clone()]);
                sim.tally_into(&self.segment, &mut VsyncPacer::new(), arena, &mut totals);
            }
            self.outcomes[base + k].totals = totals;
        }

        let run = trials.then_some(self.runs.len());
        let measured = Measurement { rate, totals, run };
        self.traced = run;
        if trials {
            self.runs.push(measured);
        } else {
            self.outcomes.truncate(base);
        }
        measured
    }

    /// The search made `best` its best measurement: when the pooled trace
    /// holds its frames, they move to `kept` (a swap, not a copy) before a
    /// later measurement overwrites them.
    fn keep(&mut self, best: Measurement) {
        if best.run.is_some() && best.run == self.traced {
            std::mem::swap(&mut self.trace, &mut self.kept);
            std::mem::swap(&mut self.traced, &mut self.kept_run);
        }
    }

    /// The key-frame probability of the rate measured last.
    fn probability(&self) -> f64 {
        self.spec.cost.key_frame_probability(self.spec.period())
    }

    /// The segment outcomes of memoized measurement `run`.
    fn run_outcomes(&self, run: usize) -> &[SegmentOutcome] {
        let n = self.segments.len();
        &self.outcomes[run * n..(run + 1) * n]
    }

    /// Whether the frames of memoized measurement `held` are the frames
    /// the rate measured last generates: `held` decides every trial as
    /// that rate does.
    fn frames_match(&self, held: Option<usize>) -> bool {
        let p = self.probability();
        held.is_some_and(|run| self.run_outcomes(run).iter().all(|o| o.admits(p)))
    }

    /// Sets the spec to the best measurement's rate and moves that rate's
    /// frames into the pooled trace, from `kept` or left in place. Returns
    /// `false` when neither trace holds them.
    fn take_best_frames(&mut self, best: &Measurement) -> bool {
        self.spec.cost.long_rate_per_sec = best.rate;
        if best.rate == 0.0 {
            // Only a zero target measures a zero rate, once, so its frames
            // are the ones generated last.
            return self.traced.is_none();
        }
        if self.frames_match(self.kept_run) {
            std::mem::swap(&mut self.trace, &mut self.kept);
            std::mem::swap(&mut self.traced, &mut self.kept_run);
        }
        self.frames_match(self.traced)
    }

    /// The outcome of a search whose best measurement is `best`: its frames
    /// come from whichever pooled trace holds them, and are generated again
    /// only when neither does.
    fn into_outcome(mut self, best: Measurement, iterations: usize) -> CalibrationOutcome {
        if !self.take_best_frames(&best) {
            TraceGenerator::new(&self.spec).generate_into(&mut self.trace);
        }
        CalibrationOutcome { spec: self.spec, trace: self.trace, baseline: best.totals, iterations }
    }
}

/// Totals as bits: the f64 sums compared by representation.
#[cfg(test)]
fn bits(t: &RunTotals) -> (usize, u64, u64, usize, u64, u64) {
    let (latency, work) = (t.latency_ms_sum.to_bits(), t.work_ms_sum.to_bits());
    (t.janks, t.display_time.as_nanos(), t.ticks_active, t.records, latency, work)
}

/// A full segmented VSync run's totals, as [`bits`].
#[cfg(test)]
fn measure(spec: &ScenarioSpec, buffers: usize) -> (usize, u64, u64, usize, u64, u64) {
    let report = crate::runner::run_segmented(spec, buffers, || Box::new(VsyncPacer::new()));
    bits(&report.totals())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::CostProfile;

    #[test]
    fn zero_target_disables_key_frames() {
        let spec = ScenarioSpec::new("z", 60, 300, CostProfile::scattered(5.0));
        let out = calibrate_spec(&spec, 3);
        assert_eq!(out.spec.cost.long_rate_per_sec, 0.0);
        assert!(out.baseline.fdps() < 0.7, "smooth spec FDPS {}", out.baseline.fdps());
        assert_eq!(out.trace, out.spec.generate());
    }

    #[test]
    fn hits_moderate_target() {
        let spec =
            ScenarioSpec::new("m", 60, 1000, CostProfile::scattered(1.0)).with_paper_fdps(3.0);
        let out = calibrate_spec(&spec, 3);
        assert!(
            (out.baseline.fdps() - 3.0).abs() < 0.9,
            "target 3.0, measured {}",
            out.baseline.fdps()
        );
    }

    #[test]
    fn hits_high_rate_target_at_120hz() {
        let spec =
            ScenarioSpec::new("h", 120, 600, CostProfile::clustered(4.0)).with_paper_fdps(12.0);
        let out = calibrate_spec(&spec, 4);
        assert!(
            (out.baseline.fdps() - 12.0).abs() < 3.0,
            "target 12, measured {}",
            out.baseline.fdps()
        );
    }

    #[test]
    fn pooled_calibration_through_warm_arena_is_bit_identical() {
        let spec =
            ScenarioSpec::new("w", 60, 800, CostProfile::scattered(1.0)).with_paper_fdps(2.5);
        let fresh = calibrate_spec(&spec, 3);
        // Warm the arena on a different scenario first, then recalibrate:
        // leftover buffer contents must not influence the fit.
        let mut arena = RunArena::new();
        let other =
            ScenarioSpec::new("warmup", 120, 400, CostProfile::clustered(3.0)).with_paper_fdps(6.0);
        let _ = calibrate_spec_pooled(&other, 4, &mut arena);
        let pooled = calibrate_spec_pooled(&spec, 3, &mut arena);
        assert_eq!(fresh.spec.cost.long_rate_per_sec, pooled.spec.cost.long_rate_per_sec);
        assert_eq!(bits(&fresh.baseline), bits(&pooled.baseline));
        assert_eq!(fresh.trace, pooled.trace);
        assert_eq!(fresh.iterations, pooled.iterations);
    }

    #[test]
    fn memo_measures_like_full_runs_and_keeps_zero_rates_apart() {
        // A zero rate makes no key-frame trials: its untried segments would
        // admit any probability, so it must never be reused, nor reuse.
        let spec = ScenarioSpec::new("mix", 60, 600, CostProfile::scattered(2.0));
        let mut memo = Memo::new(&spec, 3);
        let mut arena = RunArena::new();
        for rate in [0.0, 2.0, 0.0, 2.0 + 1e-12, 1e-9, 0.0, 3.0, 2.5, 2.0] {
            let full = measure(&spec.clone().with_cost(spec.cost.with_long_rate(rate)), 3);
            let m = memo.measure(rate, &mut arena);
            assert_eq!(bits(&m.totals), full, "rate {rate}");
        }
        // 2.0 + 1e-12 and the second 2.0 decide every trial like the first
        // 2.0, so they were not memoized again; 1e-9, 3.0 and 2.5 were.
        assert_eq!(memo.runs.len(), 4);
    }

    #[test]
    fn searches_hand_over_the_best_frames_they_generated() {
        // A search that pooled only the last generated trace generated the
        // fitted trace again at the end of 10 of these 21 calibrations.
        // With the best measurement's frames kept, only a best measurement
        // that reused an earlier run held by neither trace needs that.
        let mut arena = RunArena::new();
        let (mut calibrations, mut generated_again) = (0, 0);
        for (rate_hz, cost) in [
            (60, CostProfile::scattered(1.0)),
            (90, CostProfile::scattered(2.0)),
            (120, CostProfile::clustered(3.0)),
        ] {
            for target in [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0] {
                let spec = ScenarioSpec::new("kept", rate_hz, 600, cost).with_paper_fdps(target);
                let mut memo = Memo::new(&spec, 3);
                let (best, _) = memo.search(&mut arena);
                calibrations += 1;
                if memo.take_best_frames(&best) {
                    assert_eq!(memo.trace, memo.spec.generate(), "{rate_hz} Hz, target {target}");
                } else {
                    generated_again += 1;
                }
            }
        }
        assert_eq!((generated_again, calibrations), (2, 21));
    }

    #[test]
    fn fitted_spec_reproduces_measurement() {
        let spec =
            ScenarioSpec::new("r", 60, 800, CostProfile::scattered(1.0)).with_paper_fdps(2.0);
        let out = calibrate_spec(&spec, 3);
        // Re-running the fitted spec yields the same totals (determinism),
        // on the trace calibration handed over.
        assert_eq!(measure(&out.spec, 3), bits(&out.baseline));
        assert_eq!(out.trace, out.spec.generate());
    }
}
