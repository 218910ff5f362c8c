//! The `sweep-cold` and `sweep-resumable` workloads: the suite75 buffer
//! ladder (VSync at 3 buffers, D-VSync at 4/5/6/7; 75 scenarios × 5 cells)
//! through `run_suite_resilient`, each pass with a fresh `GridCache`.
//!
//! `sweep-cold` calibrates every scenario inside the pass, so calibration
//! bisection and event loops over long traces dominate. `sweep-resumable`
//! replays a calibrated corpus recorded during set-up and checkpoints as it
//! goes: the cells are the same, calibration moves into set-up, and durable
//! writes sit beside the trace reads.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dvs_bench::sweepbench::{bench_specs, DEFAULT_LADDER};
use dvs_bench::tracetool::record_suite;
use dvs_bench::{
    grid_fingerprint, run_suite_resilient, CellSlot, Checkpoint, CheckpointConfig, GridCache,
    PacerKind, ResilienceConfig, SuiteResult, SuiteRow, SweepEngine, SweepGrid, SweepMode,
    SweepReport, CHECKPOINT_VERSION,
};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_metrics::{QuarantineEntry, QuarantineReport, RunAggregate};
use dvs_pipeline::{
    calibrate_spec_pooled, run_segments_into, FramePacer, PipelineConfig, RunArena, SimCore,
    Simulator, VsyncPacer,
};
use dvs_sim::{stable_seed, DvsResult};
use dvs_workload::{FrameTrace, ScenarioSpec, TraceCache};
use serde::{Deserialize, Serialize};

use crate::exec::{attempt, digest, for_each_unit, ExecCounts, Pass, Probe};
use crate::trace::{span, take_thread, Kind, Timed};

pub const BASELINE_BUFFERS: usize = 3;

/// Completed cells between checkpoint writes on `sweep-resumable`: one
/// write per five scenarios. The CLI's default of one write per cell makes
/// every pass force hundreds of write-backs (each save renames over the last
/// file), and pass times then follow the disk more than the program.
pub const CHECKPOINT_CADENCE: usize = 25;
const LABEL: &str = "perfbench suite75 buffer ladder";

/// A cell's result as the executor stores it in a checkpoint slot: the same
/// fields in the same order as `dvs-bench`'s cell metrics, so slot JSON and
/// checkpoint bytes match the program's.
#[derive(Clone, Copy, Serialize, Deserialize)]
struct CellMetrics {
    fdps: f64,
    latency_ms: f64,
}

/// One scenario ready to run: the spec whose name and paper target the row
/// carries, and its trace sliced into animation segments.
struct Fitted {
    spec: ScenarioSpec,
    segments: Vec<FrameTrace>,
}

/// The executor's shared progress: the slot map, completions since the
/// last checkpoint write, and the checkpoint bytes written or write errors.
#[derive(Default)]
struct Progress {
    slots: Vec<Option<CellSlot>>,
    since_checkpoint: usize,
    bytes: u64,
    errors: Vec<String>,
}

pub struct Sweep {
    pub specs: Vec<ScenarioSpec>,
    pub jobs: usize,
    /// The calibrated corpus and the checkpoint file (`sweep-resumable`).
    replay: Option<(PathBuf, PathBuf)>,
}

/// The suite75 scenarios with trace seeds derived from the workload seed.
pub fn suite(seed: u64) -> Vec<ScenarioSpec> {
    let mut specs = bench_specs(false);
    for s in &mut specs {
        s.seed = stable_seed(&format!("perfbench/{seed}/{}", s.name));
    }
    specs
}

impl Sweep {
    pub fn cold(specs: Vec<ScenarioSpec>, jobs: usize) -> Self {
        Sweep { specs, jobs, replay: None }
    }

    /// Records the calibrated corpus under `dir` and checkpoints to a file
    /// beside it.
    pub fn resumable(specs: Vec<ScenarioSpec>, jobs: usize, dir: &Path) -> DvsResult<Self> {
        let corpus = dir.join("corpus");
        record_suite(&specs, &corpus, true, BASELINE_BUFFERS)?;
        Ok(Sweep { specs, jobs, replay: Some((corpus, dir.join("sweep.ckpt"))) })
    }

    fn cells_per_scenario() -> u64 {
        1 + DEFAULT_LADDER.len() as u64
    }

    /// Cells one pass measures.
    pub fn cells(&self) -> u64 {
        self.specs.len() as u64 * Self::cells_per_scenario()
    }

    /// Simulated frames the measured cells of one pass complete.
    pub fn frames(&self) -> u64 {
        self.specs.iter().map(|s| s.frames as u64).sum::<u64>() * Self::cells_per_scenario()
    }

    /// Of [`Sweep::frames`], those run under the D-VSync pacer.
    pub fn dvsync_frames(&self) -> u64 {
        self.specs.iter().map(|s| s.frames as u64).sum::<u64>() * DEFAULT_LADDER.len() as u64
    }

    fn cache(&self) -> GridCache {
        match &self.replay {
            Some((corpus, _)) => GridCache::with_trace_dir(&self.specs, BASELINE_BUFFERS, corpus),
            None => GridCache::for_suite(&self.specs, BASELINE_BUFFERS),
        }
    }

    fn resilience(&self) -> ResilienceConfig {
        ResilienceConfig {
            checkpoint: self.replay.as_ref().map(|(_, ckpt)| CheckpointConfig {
                path: ckpt.display().to_string(),
                cadence: CHECKPOINT_CADENCE,
                resume: false,
            }),
            ..ResilienceConfig::default()
        }
    }

    fn check(&self, report: &SweepReport, exec: ExecCounts) -> Pass {
        let mut problems = Vec::new();
        let rows = report.result.rows.len();
        if rows != self.specs.len() {
            problems.push(format!("{rows} rows for {} scenarios", self.specs.len()));
        }
        if self.replay.is_some() && exec.cache_loads != exec.cache_misses {
            problems.push(format!(
                "{} of {} cache misses replayed a recording; the rest calibrated",
                exec.cache_loads, exec.cache_misses
            ));
        }
        Pass {
            digest: digest(&report.to_json()),
            units: self.cells(),
            quarantined: report.quarantine.entries.len() as u64,
            problems,
            exec,
            headline: headline(&report.result),
        }
    }

    /// One untraced pass through the program's own resilient sweep.
    pub fn run(&self) -> DvsResult<Pass> {
        let cache = self.cache();
        let out = run_suite_resilient(
            LABEL,
            &self.specs,
            BASELINE_BUFFERS,
            &DEFAULT_LADDER,
            self.jobs,
            SweepMode::Aggregate,
            Some(&cache),
            &self.resilience(),
        )?;
        let exec = ExecCounts {
            cache_hits: out.stats.cache_hits,
            cache_misses: out.stats.cache_misses,
            cache_loads: out.stats.cache_loads,
            retried: out.accounting.cells_retried as u64,
        };
        Ok(self.check(&out.report, exec))
    }

    /// The calibration pass for scenario `i`, as `GridCache::fitted` does it
    /// on a miss: decode the recording when one matches, else calibrate and
    /// generate. Returns the entry and the frames decoded.
    fn fit(&self, i: usize, arena: &mut RunArena) -> (Fitted, u64) {
        let spec = &self.specs[i];
        let id = i as u64;
        if let Some((corpus, _)) = &self.replay {
            let path = TraceCache::trace_path(corpus, spec);
            let trace = span(Kind::Decode, id, || FrameTrace::load_binary(path).ok());
            let decoded = trace.as_ref().map_or(0, |t| t.len() as u64);
            let matches = |t: &FrameTrace| {
                t.name == spec.name
                    && t.rate_hz == spec.rate_hz
                    && t.backend == spec.backend
                    && t.len() == spec.frames
            };
            if let Some(trace) = trace.filter(matches) {
                let segments = span(Kind::Generate, id, || spec.segments_of(&trace));
                return (Fitted { spec: spec.clone(), segments }, decoded);
            }
        }
        let fitted =
            span(Kind::Calibrate, id, || calibrate_spec_pooled(spec, BASELINE_BUFFERS, arena).spec);
        let segments = span(Kind::Generate, id, || {
            let trace = fitted.generate();
            fitted.segments_of(&trace)
        });
        (Fitted { spec: fitted, segments }, 0)
    }

    /// One traced pass: the same public calls, in the same order, as
    /// `run_suite_resilient` with a fresh cache, each inside its span.
    /// Returns the pass, what only tracing sees, and the pass's wall time.
    /// With `count_events`, the cells are run once more after the clock
    /// stops, through `Simulator::try_run_into`, to count the events that
    /// `run_segments_into` does not return.
    pub fn run_traced(&self, count_events: bool) -> DvsResult<(Pass, Probe, f64)> {
        let start = Instant::now();
        // The calibration pass runs on the sweep engine itself, as
        // `run_suite_resilient` runs it; each unit hands back its spans.
        let fitted =
            SweepEngine::new(self.jobs).run_with(self.specs.len(), RunArena::new, |arena, i| {
                let (entry, decoded) = span(Kind::Cell, i as u64, || self.fit(i, arena));
                (Arc::new(entry), decoded, take_thread())
            });
        let mut threads = Vec::with_capacity(fitted.len());
        let (mut decoded_frames, mut misses, mut loads) = (0, 0, 0);
        let fitted: Vec<Arc<Fitted>> = fitted
            .into_iter()
            .map(|(entry, decoded, trace)| {
                threads.push(trace);
                decoded_frames += decoded;
                misses += 1;
                loads += u64::from(decoded > 0);
                entry
            })
            .collect();

        let resilience = self.resilience();
        let (grid, keys, fingerprint) = span(Kind::Prepare, 0, || {
            let grid = SweepGrid::for_scenarios(
                fitted.iter().map(|f| (f.spec.seed, f.spec.rate_hz)),
                BASELINE_BUFFERS,
                &DEFAULT_LADDER,
            );
            let keys: Vec<String> =
                grid.cells.iter().map(|c| c.key(&fitted[c.spec_index].spec.name)).collect();
            let fingerprint = grid_fingerprint(
                &self.specs,
                BASELINE_BUFFERS,
                &DEFAULT_LADDER,
                SweepMode::Aggregate,
                resilience.retry,
            );
            (grid, keys, fingerprint)
        });
        let n = grid.cells.len();
        let ckpt_path = self.replay.as_ref().map(|(_, p)| p.as_path());
        let shared = Mutex::new(Progress { slots: vec![None; n], ..Progress::default() });
        let cell_threads = for_each_unit(n, self.jobs, |arena, i| {
            if shared.lock().expect("slot map poisoned").slots[i].is_some() {
                return;
            }
            let cell = &grid.cells[i];
            let entry = &fitted[cell.spec_index];
            let slot = attempt(i, &keys[i], arena, |arena| {
                let m = arena.with_scratch_report(|arena, out| {
                    span(Kind::Simulate, i as u64, || {
                        run_segments_into(
                            &entry.spec.name,
                            cell.rate_hz,
                            &entry.segments,
                            cell.buffers,
                            SimCore::default(),
                            || timed_pacer(cell.pacer, cell.buffers),
                            arena,
                            out,
                        )
                    });
                    let agg = span(Kind::Fold, i as u64, || RunAggregate::from_report(out));
                    CellMetrics { fdps: agg.fdps(), latency_ms: agg.mean_latency_ms() }
                });
                serde_json::to_string(&m).ok()
            });
            let mut sh = shared.lock().expect("slot map poisoned");
            sh.slots[i] = Some(slot);
            sh.since_checkpoint += 1;
            if let Some(path) = ckpt_path.filter(|_| sh.since_checkpoint >= CHECKPOINT_CADENCE) {
                sh.since_checkpoint = 0;
                match save_checkpoint(path, fingerprint, &sh.slots, i) {
                    Ok(bytes) => sh.bytes += bytes,
                    Err(e) => sh.errors.push(e),
                }
            }
        });
        threads.extend(cell_threads);

        let Progress { slots, bytes: mut checkpoint_bytes, mut errors, .. } =
            shared.into_inner().expect("slot map poisoned");
        let mut retried = 0;
        let report = span(Kind::Assemble, 0, || {
            if let Some(path) = ckpt_path {
                match save_checkpoint(path, fingerprint, &slots, n) {
                    Ok(bytes) => checkpoint_bytes += bytes,
                    Err(e) => errors.push(e),
                }
            }
            let mut metrics = Vec::with_capacity(n);
            let mut quarantine = QuarantineReport::new();
            for (i, slot) in slots.iter().enumerate() {
                let slot = slot.as_ref().expect("every cell ran");
                retried += u64::from(slot.attempts > 1);
                match slot.ok.as_deref().and_then(|j| serde_json::from_str::<CellMetrics>(j).ok()) {
                    Some(m) => metrics.push(m),
                    None => {
                        metrics.push(CellMetrics { fdps: 0.0, latency_ms: 0.0 });
                        quarantine.entries.push(QuarantineEntry {
                            cell_index: i,
                            key: keys[i].clone(),
                            attempts: slot.attempts,
                            cause: slot.quarantined.as_ref().map_or_else(
                                || "cell result failed to parse".to_string(),
                                |q| q.cause.clone(),
                            ),
                        });
                    }
                }
            }
            SweepReport { result: assemble(&fitted, &metrics), quarantine }
        });
        threads.push(take_thread());
        let wall = start.elapsed().as_secs_f64();

        let exec = ExecCounts { cache_hits: 0, cache_misses: misses, cache_loads: loads, retried };
        let mut pass = self.check(&report, exec);
        pass.problems.extend(errors);
        for f in &fitted {
            let frames: usize = f.segments.iter().map(FrameTrace::len).sum();
            if frames != f.spec.frames {
                pass.problems.push(format!(
                    "{}: segments cover {frames} of {} frames",
                    f.spec.name, f.spec.frames
                ));
            }
        }
        let events = if count_events { count_cell_events(&grid, &fitted) } else { 0 };
        let probe = Probe { events, decoded_frames, checkpoint_bytes, threads };
        Ok((pass, probe, wall))
    }
}

fn timed_pacer(kind: PacerKind, buffers: usize) -> Box<dyn FramePacer> {
    match kind {
        PacerKind::Vsync => Box::new(Timed::new(VsyncPacer::new(), Kind::VsyncPlan)),
        PacerKind::Dvsync => Box::new(Timed::new(
            DvsyncPacer::new(DvsyncConfig::with_buffers(buffers)),
            Kind::CorePlan,
        )),
    }
}

fn plain_pacer(kind: PacerKind, buffers: usize) -> Box<dyn FramePacer> {
    match kind {
        PacerKind::Vsync => Box::new(VsyncPacer::new()),
        PacerKind::Dvsync => Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(buffers))),
    }
}

/// Events the measured cells dispatch: each cell's segments run through
/// the simulator `run_segments_into` drives, which returns `CoreStats`.
fn count_cell_events(grid: &SweepGrid, fitted: &[Arc<Fitted>]) -> u64 {
    let mut arena = RunArena::new();
    let mut out = dvs_metrics::RunReport::default();
    let mut events = 0;
    for cell in &grid.cells {
        let cfg = PipelineConfig::new(cell.rate_hz, cell.buffers);
        let sim = Simulator::new(&cfg).with_core(SimCore::default());
        for segment in &fitted[cell.spec_index].segments {
            let mut pacer = plain_pacer(cell.pacer, cell.buffers);
            events += sim
                .try_run_into(segment, pacer.as_mut(), &mut arena, &mut out)
                .map_or(0, |s| s.events_processed);
        }
    }
    events
}

/// The suite rows in scenario order, as the sweep runner assembles them.
fn assemble(fitted: &[Arc<Fitted>], metrics: &[CellMetrics]) -> SuiteResult {
    let per = Sweep::cells_per_scenario() as usize;
    let rows = fitted
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
        .collect();
    SuiteResult {
        label: LABEL.to_string(),
        baseline_buffers: BASELINE_BUFFERS,
        dvsync_buffers: DEFAULT_LADDER.to_vec(),
        rows,
    }
}

/// The model's FDPS reduction per D-VSync buffer count beside the paper's.
/// suite75 is the Mate 60 Pro Vulkan OS suite, which Fig. 12 reports at 4
/// buffers; the Pixel 5 app ladder of Fig. 11 is the paper's only ladder.
fn headline(result: &SuiteResult) -> String {
    let mut out = String::from(
        "FDPS reduction vs VSync at 3 buffers (paper: Fig. 12 Mate 60 Pro Vulkan 83.5 % at \
         4 buffers; Fig. 11 Pixel 5 apps 71.6 / 87.7 / 97 % at 4 / 5 / 7):",
    );
    for (i, b) in result.dvsync_buffers.iter().enumerate() {
        out.push_str(&format!(" {b} buf {:.1} %", result.reduction_percent(i)));
        if *b == 4 {
            out.push_str(&format!(
                " (model - paper {:+.1} pt)",
                result.reduction_percent(i) - 83.5
            ));
        }
        out.push(';');
    }
    out.pop();
    out
}

/// Clones the slot map into a checkpoint and saves it, inside an
/// `exec.checkpoint` span, as the executor does under its lock. Returns the
/// bytes the file holds.
fn save_checkpoint(
    path: &Path,
    fingerprint: u64,
    slots: &[Option<CellSlot>],
    id: usize,
) -> Result<u64, String> {
    span(Kind::Checkpoint, id as u64, || {
        Checkpoint { version: CHECKPOINT_VERSION, fingerprint, slots: slots.to_vec() }.save(path)
    })
    .map_err(|e| e.to_string())?;
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| e.to_string())
}
