//! The parallel sweep engine: an explicit grid of (scenario × pacer ×
//! buffer-count × refresh-rate) cells executed by a fixed-size worker pool,
//! with results that are **byte-identical** to sequential execution.
//!
//! # Determinism guarantee
//!
//! Parallel and sequential sweeps produce identical
//! [`SuiteResult`](crate::SuiteResult)s because nothing a worker computes
//! depends on *which* worker computes it or *when*:
//!
//! 1. **Seeding** — every random stream is seeded by
//!    [`dvs_sim::stable_seed`] over a stable textual key. Cells of the same
//!    scenario deliberately share the scenario's trace seed (the paper's
//!    methodology measures every configuration on the *same* trace), and that
//!    key never includes worker ids, thread ids, timestamps, or queue order.
//! 2. **Isolation** — a cell's work (calibration or one pacer run) touches
//!    only its own spec and RNG stream; there is no shared mutable state
//!    beyond the work queue's next-index counter and the write-once slots of
//!    the [`GridCache`].
//! 3. **Placement** — each worker writes results into per-index slots, so
//!    completion order is irrelevant.
//!
//! `--jobs 1` (or [`SweepEngine::sequential`]) bypasses threads entirely and
//! runs the same closures in index order — the reference path the parallel
//! path is tested against byte-for-byte.
//!
//! # Redundancy and allocation
//!
//! Two mechanisms make large grids cheap without changing a single output
//! byte:
//!
//! * a [`GridCache`] calibrates each scenario **exactly once per cache**
//!   (shared via `Arc`, write-once slots keyed by `(spec_index, seed)`),
//!   instead of once per suite call and once per cell, and keeps what
//!   calibration hands over: the fitted trace, sliced into segments, and
//!   the baseline cell's metrics, which are its best measurement;
//! * every worker owns one [`RunArena`], and each cell folds its segments
//!   through it into one [`RunTotals`] — no frame record is built — and
//!   hands back only the FDPS and mean latency those totals give.
//!
//! The suite runner that drives these passes is
//! [`run_suite_resilient`](crate::run_suite_resilient).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_metrics::RunTotals;
use dvs_pipeline::{calibrate_spec_pooled, PipelineConfig, RunArena, Simulator, VsyncPacer};
use dvs_workload::{FrameTrace, ScenarioSpec, TraceCache};
use serde::{Deserialize, Serialize};

use crate::suite::SuiteRow;

/// Which pacing policy a cell measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacerKind {
    /// The coupled VSync baseline.
    Vsync,
    /// The decoupled D-VSync pacer.
    Dvsync,
}

impl PacerKind {
    /// The stable textual label (`"vsync"` / `"dvsync"`).
    pub fn label(self) -> &'static str {
        match self {
            PacerKind::Vsync => "vsync",
            PacerKind::Dvsync => "dvsync",
        }
    }
}

/// One unit of sweep work: a scenario measured under one pacer and buffer
/// configuration at one refresh rate.
///
/// Cells are plain `Copy` data — the scenario is identified by its index in
/// the grid's spec slice plus the spec's stable seed, not by an owned name
/// `String`, so building and dispatching a grid allocates nothing per cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepCell {
    /// Index of the scenario in the grid's spec list.
    pub spec_index: usize,
    /// The scenario's trace-stream seed (`ScenarioSpec::seed`).
    ///
    /// Cells of the same scenario share this seed **by design**: the paper's
    /// comparisons run every configuration on the same calibrated trace.
    /// Carrying it in the cell lets cache lookups key on `(spec_index,
    /// seed)` and catch a mismatched spec slice without string keys.
    pub seed: u64,
    /// Pacing policy under test.
    pub pacer: PacerKind,
    /// Buffer count for this measurement.
    pub buffers: usize,
    /// Refresh rate in Hz.
    pub rate_hz: u32,
}

impl SweepCell {
    /// The cell's stable textual key, unique within a grid. `scenario` is
    /// the cell's scenario name, borrowed from the caller's spec slice —
    /// cells do not own labels.
    pub fn key(&self, scenario: &str) -> String {
        format!("{scenario}|{}|{}buf|{}hz", self.pacer.label(), self.buffers, self.rate_hz)
    }
}

/// An explicit grid of sweep cells plus the configurations that shaped it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepGrid {
    /// Baseline (VSync) buffer count.
    pub baseline_buffers: usize,
    /// D-VSync buffer counts, in measurement order.
    pub dvsync_buffers: Vec<usize>,
    /// The cells, in deterministic (scenario-major) order.
    pub cells: Vec<SweepCell>,
}

impl SweepGrid {
    /// Builds the suite grid: per scenario, one VSync baseline cell followed
    /// by one D-VSync cell per buffer configuration.
    pub fn for_suite(
        specs: &[ScenarioSpec],
        baseline_buffers: usize,
        dvsync_buffers: &[usize],
    ) -> Self {
        Self::for_scenarios(
            specs.iter().map(|s| (s.seed, s.rate_hz)),
            baseline_buffers,
            dvsync_buffers,
        )
    }

    /// [`SweepGrid::for_suite`] from bare `(seed, rate_hz)` pairs — cells
    /// carry no other per-scenario state.
    pub fn for_scenarios(
        scenarios: impl ExactSizeIterator<Item = (u64, u32)>,
        baseline_buffers: usize,
        dvsync_buffers: &[usize],
    ) -> Self {
        let mut cells = Vec::with_capacity(scenarios.len() * (1 + dvsync_buffers.len()));
        for (spec_index, (seed, rate_hz)) in scenarios.enumerate() {
            cells.push(SweepCell {
                spec_index,
                seed,
                pacer: PacerKind::Vsync,
                buffers: baseline_buffers,
                rate_hz,
            });
            for &b in dvsync_buffers {
                cells.push(SweepCell {
                    spec_index,
                    seed,
                    pacer: PacerKind::Dvsync,
                    buffers: b,
                    rate_hz,
                });
            }
        }
        SweepGrid { baseline_buffers, dvsync_buffers: dvsync_buffers.to_vec(), cells }
    }

    /// Cells per scenario (baseline + one per D-VSync configuration).
    pub fn cells_per_scenario(&self) -> usize {
        1 + self.dvsync_buffers.len()
    }
}

// ---- Job-count control -----------------------------------------------------

/// Process-wide default worker count; 0 means "ask the OS".
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default job count used by [`default_jobs`].
///
/// `0` restores "available parallelism". The `repro` CLI calls this from
/// `--jobs N`; library callers normally pass an explicit count instead.
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::SeqCst);
}

/// The job count sweeps use when none is given explicitly: the value set via
/// [`set_default_jobs`], else the machine's available parallelism.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::SeqCst) {
        0 => thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

// ---- The engine ------------------------------------------------------------

/// A fixed-size worker pool that maps an index range through a closure and
/// returns the results **in index order**, regardless of completion order.
#[derive(Clone, Copy, Debug)]
pub struct SweepEngine {
    jobs: usize,
}

impl SweepEngine {
    /// An engine with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        SweepEngine { jobs: jobs.max(1) }
    }

    /// The single-threaded reference engine.
    pub fn sequential() -> Self {
        SweepEngine { jobs: 1 }
    }

    /// An engine with the process default job count ([`default_jobs`]).
    pub fn with_default_jobs() -> Self {
        SweepEngine::new(default_jobs())
    }

    /// The worker count this engine runs with.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f(0..n)` and returns the results indexed `0..n`.
    ///
    /// With one worker (or one item) this is a plain sequential loop — the
    /// reference path. Otherwise `min(jobs, n)` scoped threads pull indices
    /// from a shared atomic counter (work stealing at index granularity).
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.run_with(n, || (), |_, i| f(i))
    }

    /// [`SweepEngine::run`] with per-worker scratch state: each worker calls
    /// `init()` once and threads the value through every cell it executes.
    /// This is how sweeps hold one [`RunArena`] per worker — cells recycle
    /// the worker's buffers instead of allocating their own.
    ///
    /// Workers buffer results locally and take the shared lock **once, at
    /// drain time**, writing each result into its per-index slot — the lock
    /// is never contended per cell, and no post-hoc sort is needed. The
    /// output is identical to the sequential path for any worker count (the
    /// per-worker state never influences results; it is reusable scratch).
    pub fn run_with<S, T, I, F>(&self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if self.jobs == 1 || n <= 1 {
            let mut state = init();
            return (0..n).map(|i| f(&mut state, i)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(&mut state, i)));
                    }
                    let mut slots = slots.lock().expect("sweep worker poisoned");
                    for (i, v) in local {
                        slots[i] = Some(v);
                    }
                });
            }
        });
        let slots = slots.into_inner().expect("sweep results poisoned");
        slots.into_iter().map(|s| s.expect("every index was executed")).collect()
    }
}

// ---- The grid cache --------------------------------------------------------

/// One scenario's shared calibration artifacts: the fitted spec plus its
/// generated animation segments.
#[derive(Debug)]
pub struct FittedScenario {
    /// The raw spec's RNG seed, pinned so lookups can verify identity.
    pub seed: u64,
    /// The calibrated spec (`cost.long_rate_per_sec` fitted to the paper's
    /// baseline FDPS).
    pub spec: ScenarioSpec,
    /// The fitted trace sliced into animation segments, ready to run.
    pub segments: Vec<FrameTrace>,
    /// The baseline (VSync) cell's metrics, measured once per cache.
    ///
    /// Every call of a ladder re-measures the *identical* baseline
    /// configuration — same trace, same pacer, same buffer count — so the
    /// result is memoized alongside the calibration. A calibrated entry
    /// starts with it set: calibration's best measurement is that very run
    /// (its totals, bit for bit), so the cell never runs. An entry decoded
    /// from a recording measures it on first use.
    baseline: OnceLock<CellMetrics>,
}

impl FittedScenario {
    /// The baseline cell's metrics: handed over by calibration, or computed
    /// through `arena` on first use.
    pub(crate) fn baseline_metrics(&self, cell: &SweepCell, arena: &mut RunArena) -> CellMetrics {
        *self.baseline.get_or_init(|| run_cell(cell, &self.segments, arena))
    }
}

/// Calibrates and generates each scenario of a grid **exactly once**,
/// sharing the result across cells, suite calls, and worker threads via
/// `Arc`.
///
/// Calibration is a scenario's most expensive step (a search of about a
/// dozen measurements, even though they reuse each other's segments), and
/// evaluation flows like the buffer-ablation ladder call the suite runner
/// several times over the *same* scenarios, so a long-lived cache passed
/// to every call calibrates each scenario once for the whole flow. Slots
/// are write-once ([`OnceLock`]) and keyed by `(spec_index, seed)`: lookups
/// allocate nothing, racing workers converge on one entry (one miss per
/// scenario, ever), and a mismatched spec slice panics instead of silently
/// serving another scenario's trace.
#[derive(Debug)]
pub struct GridCache {
    baseline_buffers: usize,
    slots: Vec<OnceLock<Arc<FittedScenario>>>,
    trace_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    loads: AtomicU64,
}

/// Cache traffic observed during a sweep (surfaced in sweep output).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepStats {
    /// Calibration/trace lookups served from the shared cache.
    pub cache_hits: u64,
    /// Lookups that calibrated + generated (exactly one per scenario).
    pub cache_misses: u64,
    /// Of the misses, how many skipped calibration by decoding a recorded
    /// binary trace (`repro trace record --fitted`).
    #[serde(default)]
    pub cache_loads: u64,
}

impl GridCache {
    /// An empty cache for a grid over `specs` calibrated at
    /// `baseline_buffers`.
    pub fn for_suite(specs: &[ScenarioSpec], baseline_buffers: usize) -> Self {
        GridCache {
            baseline_buffers,
            slots: (0..specs.len()).map(|_| OnceLock::new()).collect(),
            trace_dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            loads: AtomicU64::new(0),
        }
    }

    /// An empty cache that first tries *calibrated* binary traces recorded
    /// under `dir` (one [`TraceCache::trace_path`] file per spec, written by
    /// `repro trace record --fitted`). A hit skips the whole
    /// calibrate-and-generate step: cells consume only the scenario's name
    /// and its segment frames, both of which calibration preserves, so a
    /// recording made by the same build replays byte-identically. A missing
    /// or mismatched file falls back to calibration — the directory is
    /// purely an accelerator.
    pub fn with_trace_dir(
        specs: &[ScenarioSpec],
        baseline_buffers: usize,
        dir: impl Into<PathBuf>,
    ) -> Self {
        let mut cache = Self::for_suite(specs, baseline_buffers);
        cache.trace_dir = Some(dir.into());
        cache
    }

    /// The scenario count this cache was sized for.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The baseline buffer count calibrations in this cache ran against.
    pub fn baseline_buffers(&self) -> usize {
        self.baseline_buffers
    }

    /// The fitted scenario for `specs[spec_index]`: calibrated and generated
    /// on first use (through the caller's `arena`), shared afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `spec_index` is out of range, or if the slot was populated
    /// from a spec with a different seed (a different spec slice).
    pub fn fitted(
        &self,
        specs: &[ScenarioSpec],
        spec_index: usize,
        arena: &mut RunArena,
    ) -> Arc<FittedScenario> {
        let spec = &specs[spec_index];
        let slot = &self.slots[spec_index];
        let mut generated = false;
        let mut loaded = false;
        let entry = slot.get_or_init(|| {
            generated = true;
            if let Some(trace) = self.load_recorded(spec) {
                loaded = true;
                let segments = spec.segments_of(&trace);
                // Served from a recording, the entry's `spec` is the *raw*
                // spec: only `cost` differs from the fitted one, and cells
                // read nothing but the name (identical) and the segments
                // (decoded from the calibrated recording).
                return Arc::new(FittedScenario {
                    seed: spec.seed,
                    spec: spec.clone(),
                    segments,
                    baseline: OnceLock::new(),
                });
            }
            // Calibration hands over the fitted trace and its best
            // measurement, which is the baseline cell's run.
            let out = calibrate_spec_pooled(spec, self.baseline_buffers, arena);
            let segments = out.spec.segments_of(&out.trace);
            Arc::new(FittedScenario {
                seed: spec.seed,
                spec: out.spec,
                segments,
                baseline: OnceLock::from(CellMetrics::of(&out.baseline)),
            })
        });
        assert_eq!(
            entry.seed, spec.seed,
            "grid cache keyed on (spec_index, seed): slot {spec_index} was built from a \
             different spec slice"
        );
        if generated {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if loaded {
                self.loads.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        entry.clone()
    }

    /// Decodes the recorded calibrated trace for `spec`, or `None` when
    /// there is no trace directory, the file is absent or undecodable, or
    /// its identity (name, rate, backend, frame count) disagrees.
    fn load_recorded(&self, spec: &ScenarioSpec) -> Option<FrameTrace> {
        let dir = self.trace_dir.as_deref()?;
        let trace = FrameTrace::load_binary(TraceCache::trace_path(dir, spec)).ok()?;
        let matches = trace.name == spec.name
            && trace.rate_hz == spec.rate_hz
            && trace.backend == spec.backend
            && trace.len() == spec.frames;
        matches.then_some(trace)
    }

    /// Lifetime hit/miss counters (cumulative across suite calls sharing
    /// this cache).
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_loads: self.loads.load(Ordering::Relaxed),
        }
    }
}

// ---- The suite sweep -------------------------------------------------------

/// How sweep cells report their measurements.
///
/// One mode remains. It stays a parameter of
/// [`run_suite_resilient`](crate::run_suite_resilient) and
/// [`grid_fingerprint`](crate::grid_fingerprint) because the fingerprint
/// spells it out (`mode=Aggregate`), so checkpoints written before the
/// other mode was removed still resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepMode {
    /// Each cell folds its segments through the worker's pooled arena into
    /// one [`RunTotals`], which gives the row's FDPS and mean latency; only
    /// those two scalars leave the cell. The determinism wall pins them to
    /// fresh full-report runs.
    Aggregate,
}

/// One cell's row contribution (the only data a suite grid keeps per cell).
///
/// Crate-visible (and serde-capable) so the resilient executor can persist a
/// completed cell into a checkpoint and restore it exactly: the vendored
/// `serde_json` prints `f64` via the shortest round-trip `Display`, so a
/// serialize→parse cycle reproduces these fields bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct CellMetrics {
    pub(crate) fdps: f64,
    pub(crate) latency_ms: f64,
}

impl CellMetrics {
    /// The row's two scalars from a cell run's totals.
    pub(crate) fn of(totals: &RunTotals) -> Self {
        CellMetrics { fdps: totals.fdps(), latency_ms: totals.mean_latency_ms() }
    }
}

/// Executes one cell: folds its segments through the worker's arena
/// ([`tally_segments`]) and returns the row's two scalars.
pub(crate) fn run_cell(
    cell: &SweepCell,
    segments: &[FrameTrace],
    arena: &mut RunArena,
) -> CellMetrics {
    CellMetrics::of(&tally_segments(segments, cell.rate_hz, cell.buffers, cell.pacer, arena))
}

/// Folds `segments`, each from a fresh pipeline and `pacer`, through `arena`
/// into one [`RunTotals`]: bit for bit the totals of the report
/// [`run_segmented`](dvs_pipeline::run_segmented) would merge from them.
/// Panics if a segment is empty or disagrees with `rate_hz`.
pub(crate) fn tally_segments(
    segments: &[FrameTrace],
    rate_hz: u32,
    buffers: usize,
    pacer: PacerKind,
    arena: &mut RunArena,
) -> RunTotals {
    let cfg = PipelineConfig::new(rate_hz, buffers);
    let sim = Simulator::new(&cfg);
    let mut totals = RunTotals::default();
    for segment in segments {
        let run = match pacer {
            PacerKind::Vsync => {
                sim.try_tally_into(segment, &mut VsyncPacer::new(), arena, &mut totals)
            }
            PacerKind::Dvsync => {
                let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(buffers));
                sim.try_tally_into(segment, &mut pacer, arena, &mut totals)
            }
        };
        if let Err(e) = run {
            panic!("{e}");
        }
    }
    totals
}

/// Assembles suite rows in scenario order from index-stable metric slots,
/// so a resumed sweep's rows are byte-identical to a clean run's.
pub(crate) fn assemble_rows(
    fitted: &[Arc<FittedScenario>],
    grid: &SweepGrid,
    metrics: &[CellMetrics],
) -> Vec<SuiteRow> {
    let per = grid.cells_per_scenario();
    fitted
        .iter()
        .enumerate()
        .map(|(s, entry)| {
            let base = &metrics[s * per];
            let dvs = &metrics[s * per + 1..(s + 1) * per];
            SuiteRow {
                name: entry.spec.name.clone(),
                abbrev: entry.spec.abbrev.clone(),
                paper_fdps: entry.spec.paper_baseline_fdps,
                baseline_fdps: base.fdps,
                dvsync_fdps: dvs.iter().map(|m| m.fdps).collect(),
                baseline_latency_ms: base.latency_ms,
                dvsync_latency_ms: dvs.first().map(|m| m.latency_ms).unwrap_or(0.0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_suite_resilient, ResilienceConfig, ResilientSweep};
    use dvs_workload::CostProfile;

    fn suite(
        specs: &[ScenarioSpec],
        ladder: &[usize],
        jobs: usize,
        cache: Option<&GridCache>,
    ) -> ResilientSweep {
        let cfg = ResilienceConfig::default();
        run_suite_resilient("t", specs, 3, ladder, jobs, SweepMode::Aggregate, cache, &cfg)
            .expect("a sweep without checkpoints or injected faults completes")
    }

    #[test]
    fn engine_output_is_index_ordered() {
        let seq = SweepEngine::sequential().run(17, |i| i * i);
        let par = SweepEngine::new(4).run(17, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(seq, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn engine_handles_degenerate_sizes() {
        assert!(SweepEngine::new(8).run(0, |i| i).is_empty());
        assert_eq!(SweepEngine::new(8).run(1, |i| i + 1), vec![1]);
        // More workers than items.
        assert_eq!(SweepEngine::new(64).run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn engine_state_is_initialised_once_per_worker() {
        let inits = AtomicU64::new(0);
        let out = SweepEngine::new(4).run_with(
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |count, i| {
                *count += 1;
                (i as u64, *count)
            },
        );
        // Results are index-ordered regardless of which worker ran them.
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
        }
        let inits = inits.load(Ordering::Relaxed);
        assert!(inits <= 4, "at most one init per worker, got {inits}");
        // Per-worker state was actually threaded through: counts sum to n.
        assert!(out.iter().map(|(_, c)| *c).max().unwrap() >= 64 / 4);
    }

    #[test]
    fn cell_seed_matches_scenario_seed() {
        let spec = ScenarioSpec::new("Walmart", 60, 600, CostProfile::scattered(1.0));
        let grid = SweepGrid::for_suite(std::slice::from_ref(&spec), 3, &[4, 5]);
        assert_eq!(grid.cells.len(), 3);
        for cell in &grid.cells {
            assert_eq!(cell.seed, spec.seed, "{}", cell.key(&spec.name));
        }
        // Keys are unique within the grid.
        let mut keys: Vec<String> = grid.cells.iter().map(|c| c.key(&spec.name)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), grid.cells.len());
    }

    #[test]
    fn suite_sweep_matches_sequential_byte_for_byte() {
        let specs = vec![
            ScenarioSpec::new("sweep a", 60, 600, CostProfile::scattered(1.0)).with_paper_fdps(2.0),
            ScenarioSpec::new("sweep b", 60, 600, CostProfile::scattered(1.5)).with_paper_fdps(1.0),
            ScenarioSpec::new("sweep c", 90, 450, CostProfile::clustered(1.0)).with_paper_fdps(3.0),
        ];
        let run = |jobs| suite(&specs, &[4, 5], jobs, None).report.to_json();
        assert_eq!(run(1), run(4), "parallel sweep must be byte-identical to sequential");
    }

    #[test]
    fn grid_cache_shares_one_fitted_entry_per_scenario() {
        let specs =
            vec![ScenarioSpec::new("cache", 60, 300, CostProfile::scattered(1.0))
                .with_paper_fdps(1.5)];
        let cache = GridCache::for_suite(&specs, 3);
        let mut arena = RunArena::new();
        let a = cache.fitted(&specs, 0, &mut arena);
        let b = cache.fitted(&specs, 0, &mut arena);
        assert!(Arc::ptr_eq(&a, &b), "a cache hit must return the original Arc");
        assert_eq!(cache.stats(), SweepStats { cache_hits: 1, cache_misses: 1, cache_loads: 0 });
        // The cached fit equals an independent calibration.
        let fresh = dvs_pipeline::calibrate_spec(&specs[0], 3).spec;
        assert_eq!(a.spec.cost.long_rate_per_sec, fresh.cost.long_rate_per_sec);
        assert_eq!(a.segments, fresh.generate_segments());
        // Calibration handed over the baseline cell: it is set before any
        // cell runs, and equals running that cell.
        let cell = SweepGrid::for_suite(&specs, 3, &[]).cells[0];
        let handed = *a.baseline.get().expect("a calibrated entry carries its baseline");
        let run = run_cell(&cell, &a.segments, &mut arena);
        assert_eq!(handed.fdps.to_bits(), run.fdps.to_bits());
        assert_eq!(handed.latency_ms.to_bits(), run.latency_ms.to_bits());
    }

    #[test]
    fn cache_stats_surface_in_sweep_output() {
        let specs =
            vec![ScenarioSpec::new("stats", 60, 300, CostProfile::scattered(1.0))
                .with_paper_fdps(1.0)];
        let cache = GridCache::for_suite(&specs, 3);
        let first = suite(&specs, &[4], 1, Some(&cache));
        assert_eq!(first.stats, SweepStats { cache_hits: 0, cache_misses: 1, cache_loads: 0 });
        let second = suite(&specs, &[4], 1, Some(&cache));
        assert_eq!(second.stats, SweepStats { cache_hits: 1, cache_misses: 1, cache_loads: 0 });
        assert!(second.render().contains("trace cache: 1 hits, 1 misses"));
        assert_eq!(
            first.report.to_json(),
            second.report.to_json(),
            "a warm cache must not change results"
        );
    }

    #[test]
    fn default_jobs_is_settable_and_restorable() {
        let machine = default_jobs();
        assert!(machine >= 1);
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        set_default_jobs(0);
        assert_eq!(default_jobs(), machine);
    }
}
