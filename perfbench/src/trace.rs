//! The span recorder behind the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions; nothing inside the program is instrumented. A span
//! holds its kind, the device or cell index it works on (the id that ties
//! the spans of one unit together), its parent, its thread, its start and
//! end, and the thread's allocation counters at both ends. Spans stay in
//! per-thread memory until the pass ends, when [`Summary::fold`] turns them
//! into per-layer self time, call-duration histograms and allocations.
//!
//! Pacer callbacks are the exception: a run makes several per simulated
//! frame, far too many to keep one record each, so [`Timed`] folds each
//! callback into its layer's totals and into the enclosing span as it
//! returns. A layer's self time is its spans' duration minus the time
//! covered by their children, callbacks included.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use dvs_metrics::ModeTransition;
use dvs_pipeline::{FramePacer, FramePlan, PacerCtx};
use dvs_sim::SimTime;

use crate::alloc::{thread_allocs, uncounted, ThreadAllocs};

/// What a span covers: one of the named layers, or executor glue that
/// belongs to no layer (its self time is the unattributed time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sample,
    Generate,
    Decode,
    Plan,
    Materialize,
    Calibrate,
    Simulate,
    CorePlan,
    VsyncPlan,
    Fold,
    Merge,
    Checkpoint,
    /// Work before the executor starts (keys, fingerprint).
    Prepare,
    /// One unit of executor work: a shard, a calibration or a cell.
    Cell,
    /// Work after the executor ends (slot decoding, row assembly).
    Assemble,
}

/// The layers, in report order.
pub const LAYERS: [Kind; 12] = [
    Kind::Sample,
    Kind::Generate,
    Kind::Decode,
    Kind::Plan,
    Kind::Materialize,
    Kind::Calibrate,
    Kind::Simulate,
    Kind::CorePlan,
    Kind::VsyncPlan,
    Kind::Fold,
    Kind::Merge,
    Kind::Checkpoint,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sample => "workload.sample",
            Kind::Generate => "workload.generate",
            Kind::Decode => "workload.decode",
            Kind::Plan => "faults.plan",
            Kind::Materialize => "faults.materialize",
            Kind::Calibrate => "pipeline.calibrate",
            Kind::Simulate => "pipeline.simulate",
            Kind::CorePlan => "core.plan",
            Kind::VsyncPlan => "pipeline.vsync_plan",
            Kind::Fold => "metrics.fold",
            Kind::Merge => "metrics.merge",
            Kind::Checkpoint => "exec.checkpoint",
            Kind::Prepare => "exec.prepare",
            Kind::Cell => "exec.cell",
            Kind::Assemble => "exec.assemble",
        }
    }

    fn layer_index(self) -> Option<usize> {
        LAYERS.iter().position(|&k| k == self)
    }
}

const NO_PARENT: u32 = u32::MAX;

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Rec {
    kind: Kind,
    id: u64,
    parent: u32,
    start: u64,
    end: u64,
    at_start: ThreadAllocs,
    at_end: ThreadAllocs,
    /// Time and allocations of pacer callbacks made directly inside.
    leaf_ns: u64,
    leaf_allocs: u64,
    leaf_bytes: u64,
}

#[derive(Default)]
struct LeafAgg {
    calls: u64,
    ns: u64,
    allocs: u64,
    bytes: u64,
    hist: Hist,
}

/// One thread's spans for one pass, plus its folded pacer callbacks.
#[derive(Default)]
pub struct ThreadTrace {
    recs: Vec<Rec>,
    stack: Vec<u32>,
    core_plan: LeafAgg,
    vsync_plan: LeafAgg,
    /// Callback time seen with no span open (must stay 0).
    orphan_ns: u64,
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// Hands over the calling thread's spans and starts it afresh.
pub fn take_thread() -> ThreadTrace {
    uncounted(|| TRACE.with(|t| std::mem::take(&mut *t.borrow_mut())))
}

/// Runs `f` inside a span of `kind` for unit `id` on the calling thread.
pub fn span<R>(kind: Kind, id: u64, f: impl FnOnce() -> R) -> R {
    let idx = uncounted(|| {
        TRACE.with(|t| {
            let t = &mut *t.borrow_mut();
            let idx = t.recs.len() as u32;
            let parent = t.stack.last().copied().unwrap_or(NO_PARENT);
            t.recs.push(Rec {
                kind,
                id,
                parent,
                start: 0,
                end: 0,
                at_start: ThreadAllocs::default(),
                at_end: ThreadAllocs::default(),
                leaf_ns: 0,
                leaf_allocs: 0,
                leaf_bytes: 0,
            });
            t.stack.push(idx);
            idx
        })
    });
    let at_start = thread_allocs();
    let start = now_ns();
    TRACE.with(|t| {
        let rec = &mut t.borrow_mut().recs[idx as usize];
        rec.at_start = at_start;
        rec.start = start;
    });
    let r = f();
    let end = now_ns();
    let at_end = thread_allocs();
    TRACE.with(|t| {
        let t = &mut *t.borrow_mut();
        let rec = &mut t.recs[idx as usize];
        rec.end = end;
        rec.at_end = at_end;
        t.stack.pop();
    });
    r
}

/// Times one pacer callback and folds it into its layer and its parent.
fn leaf<R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    let a0 = thread_allocs();
    let t0 = now_ns();
    let r = f();
    let t1 = now_ns();
    let a1 = thread_allocs();
    let (d, da, db) = (t1 - t0, a1.allocs - a0.allocs, a1.bytes - a0.bytes);
    uncounted(|| {
        TRACE.with(|t| {
            let t = &mut *t.borrow_mut();
            let agg = if kind == Kind::CorePlan { &mut t.core_plan } else { &mut t.vsync_plan };
            agg.calls += 1;
            agg.ns += d;
            agg.allocs += da;
            agg.bytes += db;
            agg.hist.record(d);
            match t.stack.last() {
                Some(&top) => {
                    let rec = &mut t.recs[top as usize];
                    rec.leaf_ns += d;
                    rec.leaf_allocs += da;
                    rec.leaf_bytes += db;
                }
                None => t.orphan_ns += d,
            }
        })
    });
    r
}

/// A pacer whose every [`FramePacer`] callback is timed as `kind`
/// (`core.plan` around `DvsyncPacer`, `pipeline.vsync_plan` around
/// `VsyncPacer`). Decisions pass through unchanged.
pub struct Timed<P> {
    inner: P,
    kind: Kind,
}

impl<P> Timed<P> {
    pub fn new(inner: P, kind: Kind) -> Self {
        Timed { inner, kind }
    }
}

impl<P: FramePacer> FramePacer for Timed<P> {
    fn plan_next(&mut self, ctx: &PacerCtx) -> Option<FramePlan> {
        let kind = self.kind;
        leaf(kind, || self.inner.plan_next(ctx))
    }

    fn on_present(&mut self, seq: u64, tick: u64, time: SimTime) {
        let kind = self.kind;
        leaf(kind, || self.inner.on_present(seq, tick, time))
    }

    fn on_jank(&mut self, tick: u64, time: SimTime) {
        let kind = self.kind;
        leaf(kind, || self.inner.on_jank(tick, time))
    }

    fn take_transitions(&mut self) -> Vec<ModeTransition> {
        let kind = self.kind;
        leaf(kind, || self.inner.take_transitions())
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

// ---- Histograms ------------------------------------------------------------

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of nanosecond durations: exact below 64 ns, then
/// 64 buckets per power of two (under 1.6 % relative error).
#[derive(Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let mant = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + mant) as usize
}

/// The middle of bucket `b`, in ns.
fn bucket_mid(b: usize) -> f64 {
    let b = b as u64;
    if b < SUB {
        return b as f64;
    }
    let shift = (b / SUB - 1) as u32;
    let lo = (SUB + b % SUB) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q` quantile in ns (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        bucket_mid(self.counts.len() - 1)
    }

    /// The highest of p90, p99, p99.9, … with at least ten calls beyond
    /// it, as `(label, quantile)`; p50 when fewer than 100 calls were made.
    pub fn tail(&self) -> (&'static str, f64) {
        let mut best = ("p50", 0.5);
        for (label, q) in [
            ("p90", 0.9),
            ("p99", 0.99),
            ("p99.9", 0.999),
            ("p99.99", 0.9999),
            ("p99.999", 0.99999),
        ] {
            if self.n as f64 * (1.0 - q) >= 10.0 - 1e-9 {
                best = (label, q);
            }
        }
        best
    }
}

// ---- Folding ---------------------------------------------------------------

/// One layer's totals across every folded pass.
#[derive(Clone, Default)]
pub struct LayerStats {
    pub calls: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    /// Durations of the layer's calls, children included.
    pub hist: Hist,
}

/// Per-layer totals plus thread accounting, accumulated over passes.
#[derive(Clone, Default)]
pub struct Summary {
    pub layers: [LayerStats; LAYERS.len()],
    /// Time threads spent inside a top-level span.
    pub busy_ns: u64,
    /// Self time of executor spans that belong to no layer.
    pub unattributed_ns: u64,
    pub passes: u64,
}

impl Summary {
    pub fn layer(&self, kind: Kind) -> &LayerStats {
        &self.layers[kind.layer_index().expect("a layer kind")]
    }

    /// Folds one pass's thread traces in. Returns an error naming the
    /// broken invariant if the spans do not account for the busy time
    /// exactly: every layer's self time plus the unattributed time must
    /// sum to the threads' busy time.
    pub fn fold(&mut self, threads: Vec<ThreadTrace>) -> Result<(), String> {
        let mut pass = Summary::default();
        for t in threads {
            if !t.stack.is_empty() {
                return Err(format!("{} spans left open at the end of a pass", t.stack.len()));
            }
            if t.orphan_ns != 0 {
                return Err(format!("{} ns of pacer callbacks ran outside any span", t.orphan_ns));
            }
            let n = t.recs.len();
            let mut child_ns = vec![0u64; n];
            let mut child_allocs = vec![0u64; n];
            let mut child_bytes = vec![0u64; n];
            for r in &t.recs {
                if r.parent != NO_PARENT {
                    let p = r.parent as usize;
                    child_ns[p] += r.end - r.start;
                    child_allocs[p] += r.at_end.allocs - r.at_start.allocs;
                    child_bytes[p] += r.at_end.bytes - r.at_start.bytes;
                }
            }
            for (i, r) in t.recs.iter().enumerate() {
                let dur = r.end - r.start;
                let covered = child_ns[i] + r.leaf_ns;
                let self_ns = dur.checked_sub(covered).ok_or_else(|| {
                    format!("{} span {} is shorter than its children", r.kind.name(), r.id)
                })?;
                if r.parent == NO_PARENT {
                    pass.busy_ns += dur;
                }
                match r.kind.layer_index() {
                    Some(l) => {
                        let s = &mut pass.layers[l];
                        s.calls += 1;
                        s.self_ns += self_ns;
                        s.allocs += (r.at_end.allocs - r.at_start.allocs)
                            .saturating_sub(child_allocs[i] + r.leaf_allocs);
                        s.bytes += (r.at_end.bytes - r.at_start.bytes)
                            .saturating_sub(child_bytes[i] + r.leaf_bytes);
                        s.hist.record(dur);
                    }
                    None => pass.unattributed_ns += self_ns,
                }
            }
            for (kind, agg) in [(Kind::CorePlan, &t.core_plan), (Kind::VsyncPlan, &t.vsync_plan)] {
                let s = &mut pass.layers[kind.layer_index().expect("a layer kind")];
                s.calls += agg.calls;
                s.self_ns += agg.ns;
                s.allocs += agg.allocs;
                s.bytes += agg.bytes;
                s.hist.merge(&agg.hist);
            }
        }
        let attributed: u64 = pass.layers.iter().map(|l| l.self_ns).sum();
        if attributed + pass.unattributed_ns != pass.busy_ns {
            return Err(format!(
                "layer self time {attributed} ns + unattributed {} ns != busy {} ns",
                pass.unattributed_ns, pass.busy_ns
            ));
        }
        for (mine, theirs) in self.layers.iter_mut().zip(&pass.layers) {
            mine.calls += theirs.calls;
            mine.self_ns += theirs.self_ns;
            mine.allocs += theirs.allocs;
            mine.bytes += theirs.bytes;
            mine.hist.merge(&theirs.hist);
        }
        self.busy_ns += pass.busy_ns;
        self.unattributed_ns += pass.unattributed_ns;
        self.passes += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for v in (0..5000u64).chain([1 << 20, 1 << 40, u64::MAX / 2]) {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order broke at {v}");
            last = b;
            let mid = bucket_mid(b);
            assert!((mid - v as f64).abs() <= v as f64 / 64.0 + 0.5, "{v} -> {mid}");
        }
    }

    #[test]
    fn tail_needs_ten_calls_beyond_it() {
        let mut h = Hist::default();
        for v in 0..1000 {
            h.record(v);
        }
        assert_eq!(h.tail().0, "p99");
        assert!((h.quantile(0.5) - 499.0).abs() <= 499.0 / 64.0, "{}", h.quantile(0.5));
        let mut small = Hist::default();
        small.record(7);
        assert_eq!(small.tail().0, "p50");
    }

    #[test]
    fn nested_spans_account_for_all_busy_time() {
        let _ = take_thread();
        span(Kind::Cell, 0, || {
            span(Kind::Sample, 0, || std::hint::black_box(vec![0u8; 64]));
            span(Kind::Simulate, 0, || {
                leaf(Kind::CorePlan, || std::hint::black_box(vec![1u8; 8]));
            });
        });
        let mut s = Summary::default();
        s.fold(vec![take_thread()]).expect("spans account for busy time");
        assert_eq!(s.layer(Kind::Sample).calls, 1);
        assert_eq!(s.layer(Kind::CorePlan).calls, 1);
        assert_eq!(s.layer(Kind::Sample).allocs, 1);
        assert_eq!(s.layer(Kind::Simulate).allocs, 0, "callback allocations are the callback's");
        assert_eq!(s.layer(Kind::CorePlan).allocs, 1);
        let attributed: u64 = s.layers.iter().map(|l| l.self_ns).sum();
        assert_eq!(attributed + s.unattributed_ns, s.busy_ns);
    }
}
