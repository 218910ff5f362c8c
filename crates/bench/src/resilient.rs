//! The resilient sweep executor: panic isolation, deterministic retry with
//! quarantine, and byte-identical checkpoint/resume.
//!
//! At fleet scale partial failure is the common case: one cell out of
//! millions panics, a run gets killed mid-sweep, a checkpoint write gets
//! torn. This module wraps the sweep's cell work in an execution layer that
//! survives all three without giving up the workspace's determinism
//! contract:
//!
//! * **Panic isolation** — every cell attempt runs under
//!   [`std::panic::catch_unwind`] (safe code; the crate keeps
//!   `#![forbid(unsafe_code)]`). A caught panic becomes a typed
//!   [`DvsError::CellFailed`] instead of poisoning the worker pool, and the
//!   worker's pooled [`RunArena`] — potentially left mid-run by the unwind —
//!   is discarded and replaced before the next attempt.
//! * **Deterministic retry** — a bounded *attempt-count* budget
//!   ([`RetryPolicy`]), no wall-clock anywhere (lint-clean under the
//!   determinism rules). Every attempt starts from a fresh arena and the
//!   same seeds, so a retry computes exactly what the first attempt would
//!   have. Cells that exhaust the budget land in a [`QuarantineReport`]
//!   and the sweep completes with explicit [`PartialAccounting`] rather
//!   than aborting.
//! * **Checkpoint/resume** — completed cells are persisted at a configurable
//!   cadence ([`CheckpointConfig`]); a killed run resumed with the same grid
//!   produces a final [`SweepReport`] **byte-identical** to an uninterrupted
//!   run, at any kill point and across `--jobs N`. Cell results round-trip
//!   through the checkpoint exactly because *both* fresh and resumed cells
//!   travel the same serialize→parse path (and the vendored `serde_json`
//!   prints `f64` losslessly).
//! * **Fault harness** — [`ExecFaults`] injects deterministic failures into
//!   the executor itself (`panic-in-cell K`, `crash-at-cell K`, torn
//!   checkpoint writes), mirroring how `dvs-faults` pre-materializes draws:
//!   the machinery that contains faults is itself tested by injected faults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};
use std::thread;

use dvs_metrics::{PartialAccounting, QuarantineEntry, QuarantineReport};
use dvs_pipeline::RunArena;
use dvs_sim::{DvsError, DvsResult};
use dvs_workload::{compositor_scenario_suite, ScenarioSpec};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{fingerprint_of, CellSlot, Checkpoint, QuarantinedSlot};
use crate::compose::{ComposeRow, ComposeSweep, INTERFERENCE_BUDGET};
use crate::suite::SuiteResult;
use crate::sweep::{
    assemble_rows, run_cell, CellMetrics, GridCache, PacerKind, SweepEngine, SweepGrid, SweepMode,
    SweepStats,
};

// ---- Configuration ---------------------------------------------------------

/// The bounded, attempt-count retry budget. Deliberately free of wall-clock
/// state (no backoff timers): retrying a deterministic cell either succeeds
/// on an attempt or never will, so the budget is a pure count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per cell before quarantine (>= 1; 1 = no retries).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// Where and how often to persist sweep progress.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// The checkpoint file path (a `String` so the config itself is serde;
    /// the vendored serde has no `PathBuf` impls).
    pub path: String,
    /// Completed cells between checkpoint writes; `0` disables periodic
    /// writes entirely.
    pub cadence: usize,
    /// Whether to restore completed cells from an existing checkpoint at
    /// `path` before executing (a missing file simply starts fresh).
    pub resume: bool,
}

/// Deterministic fault injection into the executor itself — the resilient
/// layer's own test harness. All injection points are reached by explicit
/// counts (cell indices, attempt numbers, completion totals), never by
/// timing, so every injected failure reproduces exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecFaults {
    /// Panic inside this cell index (the cell's work never runs for the
    /// affected attempts).
    pub panic_in_cell: Option<usize>,
    /// How many attempts of the targeted cell panic; `u32::MAX` (the
    /// default, so `panic_in_cell` alone means "always panics") makes every
    /// attempt fail — the cell that must quarantine, not abort.
    pub panic_attempts: u32,
    /// Stop scheduling new cells once this many cells have completed, then
    /// return [`DvsError::SweepInterrupted`] — a deterministic stand-in for
    /// `kill -9` at a cell boundary.
    pub crash_at_cell: Option<usize>,
    /// Write every checkpoint torn (truncated, no atomic rename), so a
    /// subsequent resume must detect [`DvsError::CheckpointCorrupt`].
    pub torn_checkpoint_write: bool,
}

impl Default for ExecFaults {
    fn default() -> Self {
        Self {
            panic_in_cell: None,
            panic_attempts: u32::MAX,
            crash_at_cell: None,
            torn_checkpoint_write: false,
        }
    }
}

/// The full resilience configuration for one sweep run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Per-cell retry budget.
    pub retry: RetryPolicy,
    /// Optional checkpoint persistence.
    pub checkpoint: Option<CheckpointConfig>,
    /// Executor-level fault injection (all-`None`/false in production).
    pub faults: ExecFaults,
}

// ---- Results ---------------------------------------------------------------

/// The part of a resilient sweep that must be byte-identical across kill /
/// resume / worker-count variations: the measured suite plus the quarantine
/// list. Run-shaped telemetry (cache traffic, resume counts, checkpoint
/// writes) lives outside this struct by design — an interrupted-and-resumed
/// run legitimately differs there.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepReport {
    /// The measured suite.
    pub result: SuiteResult,
    /// Cells excluded after exhausting retries, in cell-index order.
    pub quarantine: QuarantineReport,
}

impl SweepReport {
    /// The canonical JSON encoding — the artifact the byte-identity
    /// guarantee is stated over.
    pub fn to_json(&self) -> String {
        // dvs-lint: allow(panic-escape, reason = "serde_json serialization of plain data structs with string keys cannot fail")
        serde_json::to_string_pretty(self).expect("sweep report serializes")
    }
}

/// A resilient sweep's complete outcome: the deterministic report plus
/// run-shaped telemetry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilientSweep {
    /// The deterministic artifact (suite + quarantine).
    pub report: SweepReport,
    /// Cache traffic for this run (differs between fresh and resumed runs).
    pub stats: SweepStats,
    /// The completion ledger: measured + quarantined = total, with retry and
    /// resume counts.
    pub accounting: PartialAccounting,
    /// Checkpoint files written during this run.
    pub checkpoint_writes: usize,
}

impl ResilientSweep {
    /// Whether any cell was quarantined (maps to `repro` exit code 2).
    pub fn degraded(&self) -> bool {
        !self.report.quarantine.is_empty()
    }

    /// Renders the suite table, cache line, quarantine list, and accounting
    /// summary.
    pub fn render(&self) -> String {
        let mut out = self.report.result.render();
        out.push_str(&format!(
            "trace cache: {} hits, {} misses\n",
            self.stats.cache_hits, self.stats.cache_misses
        ));
        out.push_str(&self.report.quarantine.render());
        out.push_str(&self.accounting.render());
        out
    }
}

// ---- Panic capture ---------------------------------------------------------

std::thread_local! {
    /// Set while a cell attempt runs under `catch_unwind`, telling the
    /// process panic hook to stay quiet: the panic is expected, contained,
    /// and reported through `DvsError::CellFailed` instead of stderr.
    static CONTAINED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// contained cell panics and delegates everything else to the previous hook.
fn install_contained_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        // dvs-lint: allow(hot-alloc, reason = "one-time panic-hook installation behind a Once")
        std::panic::set_hook(Box::new(move |info| {
            if CONTAINED.with(|c| c.get()) {
                return;
            }
            prev(info);
        }));
    });
}

/// Extracts the human-readable payload of a caught panic.
fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        // dvs-lint: allow(hot-alloc, reason = "caught-panic bookkeeping is the cold failure path, never the measured path")
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        // dvs-lint: allow(hot-alloc, reason = "caught-panic bookkeeping is the cold failure path, never the measured path")
        s.clone()
    } else {
        // dvs-lint: allow(hot-alloc, reason = "caught-panic bookkeeping is the cold failure path, never the measured path")
        "panic with non-string payload".to_string()
    }
}

// ---- The executor ----------------------------------------------------------

/// Mutable sweep progress shared by all workers (one lock, taken once per
/// completed cell — never inside a cell's compute).
struct ExecShared {
    /// Per-cell outcomes; doubles as the checkpoint's slot map.
    slots: Vec<Option<CellSlot>>,
    /// Completed cells (measured or quarantined), including resumed ones.
    done: usize,
    /// Completions since the last checkpoint write.
    since_checkpoint: usize,
    /// Checkpoint files written so far.
    checkpoint_writes: usize,
    /// Set when the injected crash point fires.
    interrupted: bool,
    /// First checkpoint-write error, if any (aborts the sweep).
    io_error: Option<DvsError>,
}

/// Runs one cell's bounded attempt loop and returns its durable outcome.
///
/// Each attempt runs under `catch_unwind`; after a caught panic the worker's
/// arena is discarded and replaced (the unwind may have left it mid-run),
/// so the next attempt — and every later cell on this worker — starts clean.
fn run_attempts<T, F>(
    index: usize,
    key: &str,
    arena: &mut RunArena,
    cfg: &ResilienceConfig,
    work: &F,
) -> CellSlot
where
    T: Serialize,
    F: Fn(&mut RunArena, usize) -> T + Sync,
{
    let budget = cfg.retry.max_attempts.max(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let inject =
            cfg.faults.panic_in_cell == Some(index) && attempts <= cfg.faults.panic_attempts;
        CONTAINED.with(|c| c.set(true));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected panic (attempt {attempts})");
            }
            work(arena, index)
        }));
        CONTAINED.with(|c| c.set(false));
        match outcome {
            Ok(metrics) => {
                // Fresh and resumed cells both travel this serialize path, so
                // resume cannot introduce a representation difference. A
                // serialize failure is quarantined like a panic would be —
                // one unrepresentable cell must not take down the sweep.
                return match serde_json::to_string(&metrics) {
                    Ok(json) => CellSlot { ok: Some(json), quarantined: None, attempts },
                    Err(e) => CellSlot {
                        ok: None,
                        quarantined: Some(QuarantinedSlot {
                            // dvs-lint: allow(hot-alloc, reason = "quarantine-cause construction on the serialization-failure path only")
                            key: key.to_string(),
                            // dvs-lint: allow(hot-alloc, reason = "quarantine-cause construction on the serialization-failure path only")
                            cause: format!("cell metrics failed to serialize: {e}"),
                        }),
                        attempts,
                    },
                };
            }
            Err(payload) => {
                // The unwind may have abandoned the arena mid-run: replace it
                // wholesale rather than trusting its internal state.
                *arena = RunArena::new();
                let cause = panic_cause(payload);
                // dvs-lint: allow(hot-alloc, reason = "caught-panic bookkeeping is the cold failure path, never the measured path")
                let failure = DvsError::CellFailed { key: key.to_string(), cause };
                if attempts >= budget {
                    return CellSlot {
                        ok: None,
                        quarantined: Some(QuarantinedSlot {
                            // dvs-lint: allow(hot-alloc, reason = "caught-panic bookkeeping is the cold failure path, never the measured path")
                            key: key.to_string(),
                            // dvs-lint: allow(hot-alloc, reason = "caught-panic bookkeeping is the cold failure path, never the measured path")
                            cause: failure.to_string(),
                        }),
                        attempts,
                    };
                }
            }
        }
    }
}

/// Executes `n` cells resiliently and returns the filled slot map plus the
/// checkpoint-write count.
///
/// Generic over the cell result: anything serializable can ride the slot
/// map (suite cells store [`CellMetrics`], compose cells store whole rows).
///
/// Unlike [`SweepEngine::run_with`], workers publish each completion into
/// the shared state immediately (not buffered until drain), because the
/// checkpoint cadence needs a current view of progress at every completion.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_cells<T, F>(
    n: usize,
    jobs: usize,
    keys: &[String],
    fingerprint: u64,
    cfg: &ResilienceConfig,
    resumed_slots: Vec<Option<CellSlot>>,
    resumed: usize,
    work: &F,
) -> DvsResult<(Vec<Option<CellSlot>>, usize)>
where
    T: Serialize,
    F: Fn(&mut RunArena, usize) -> T + Sync,
{
    install_contained_panic_hook();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let shared = Mutex::new(ExecShared {
        slots: resumed_slots,
        done: resumed,
        since_checkpoint: 0,
        checkpoint_writes: 0,
        interrupted: false,
        io_error: None,
    });

    let worker = |arena: &mut RunArena| loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let already_done = {
            // dvs-lint: allow(panic-escape, reason = "poisoning requires a worker panic, which the cell boundary quarantines; treating an escape as fatal is the design")
            let sh = shared.lock().expect("resilient sweep state poisoned");
            // dvs-lint: allow(panic-escape, reason = "slots has n entries and i < n is checked above")
            sh.slots[i].is_some()
        };
        if already_done {
            continue; // restored from the checkpoint; nothing to execute
        }
        // dvs-lint: allow(panic-escape, reason = "keys has n entries and i < n is checked above")
        let slot = run_attempts(i, &keys[i], arena, cfg, work);
        // dvs-lint: allow(panic-escape, reason = "poisoning requires a worker panic, which the cell boundary quarantines; treating an escape as fatal is the design")
        let mut sh = shared.lock().expect("resilient sweep state poisoned");
        if sh.interrupted {
            // The injected crash already fired: a real kill loses in-flight
            // work, so this completion must not reach the slot map or the
            // checkpoint. Keeps `completed` == the crash point for any jobs.
            break;
        }
        // dvs-lint: allow(panic-escape, reason = "slots has n entries and i < n is checked above")
        sh.slots[i] = Some(slot);
        sh.done += 1;
        if let Some(ck) = &cfg.checkpoint {
            if ck.cadence > 0 {
                sh.since_checkpoint += 1;
                if sh.since_checkpoint >= ck.cadence {
                    sh.since_checkpoint = 0;
                    let ckpt = Checkpoint {
                        version: crate::checkpoint::CHECKPOINT_VERSION,
                        fingerprint,
                        // dvs-lint: allow(hot-alloc, reason = "checkpoint serialization is cadence-gated I/O, outside every cell's compute")
                        slots: sh.slots.clone(),
                    };
                    let wrote = if cfg.faults.torn_checkpoint_write {
                        ckpt.save_torn(Path::new(&ck.path))
                    } else {
                        ckpt.save(Path::new(&ck.path))
                    };
                    match wrote {
                        Ok(()) => sh.checkpoint_writes += 1,
                        Err(e) => {
                            sh.io_error = Some(e);
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        if cfg.faults.crash_at_cell == Some(sh.done) {
            sh.interrupted = true;
            stop.store(true, Ordering::Relaxed);
        }
    };

    if jobs <= 1 || n <= 1 {
        let mut arena = RunArena::new();
        worker(&mut arena);
    } else {
        thread::scope(|scope| {
            for _ in 0..jobs.min(n) {
                scope.spawn(|| {
                    let mut arena = RunArena::new();
                    worker(&mut arena);
                });
            }
        });
    }

    // dvs-lint: allow(panic-escape, reason = "poisoning requires a worker panic, which the cell boundary quarantines; treating an escape as fatal is the design")
    let sh = shared.into_inner().expect("resilient sweep state poisoned");
    if let Some(e) = sh.io_error {
        return Err(e);
    }
    if sh.interrupted {
        return Err(DvsError::SweepInterrupted { completed: sh.done, total: n });
    }
    debug_assert!(sh.slots.iter().all(|s| s.is_some()), "every cell completed or quarantined");
    Ok((sh.slots, sh.checkpoint_writes))
}

/// Decodes a finished slot map in cell-index order — never completion
/// order — so the quarantine list, the accounting and every caller's fold
/// are deterministic for any worker count.
///
/// `on_cell` receives each cell's value in index order, or `None` for a
/// quarantined cell; `what` names the stored value in the error of a slot
/// that does not parse as `T`.
///
/// # Errors
///
/// * [`DvsError::CheckpointCorrupt`] naming the cell's key, when its stored
///   JSON does not parse as `T`;
/// * any error `on_cell` returns.
pub(crate) fn decode_slots<T, F>(
    slots: &[Option<CellSlot>],
    keys: &[String],
    resumed: usize,
    what: &str,
    mut on_cell: F,
) -> DvsResult<(QuarantineReport, PartialAccounting)>
where
    T: Deserialize,
    F: FnMut(Option<T>) -> DvsResult<()>,
{
    let mut quarantine = QuarantineReport::new();
    let mut accounting = PartialAccounting {
        cells_total: slots.len(),
        cells_resumed: resumed,
        ..Default::default()
    };
    for (i, slot) in slots.iter().enumerate() {
        // dvs-lint: allow(panic-escape, reason = "the executor fills every slot before returning Ok")
        let slot = slot.as_ref().expect("executor filled every slot");
        if let Some(json) = &slot.ok {
            let value = serde_json::from_str(json).map_err(|e| DvsError::CheckpointCorrupt {
                // dvs-lint: allow(panic-escape, reason = "keys has one entry per slot; i indexes the same range")
                path: keys[i].clone(),
                detail: format!("stored {what} failed to parse: {e}"),
            })?;
            on_cell(Some(value))?;
            accounting.cells_ok += 1;
            if slot.attempts > 1 {
                accounting.cells_retried += 1;
            }
        } else {
            // dvs-lint: allow(panic-escape, reason = "the branch above guarantees ok is None, so quarantined is Some")
            let q = slot.quarantined.as_ref().expect("slot is ok or quarantined");
            on_cell(None)?;
            quarantine.entries.push(QuarantineEntry {
                cell_index: i,
                key: q.key.clone(),
                attempts: slot.attempts,
                cause: q.cause.clone(),
            });
            accounting.cells_quarantined += 1;
        }
    }
    debug_assert!(accounting.is_consistent());
    Ok((quarantine, accounting))
}

// ---- The resilient suite sweep ---------------------------------------------

/// The grid fingerprint binding a checkpoint to one sweep identity.
///
/// Covers everything that shapes the grid and its results — scenario names,
/// seeds, and rates; buffer configurations; reporting mode; retry budget —
/// and deliberately **excludes** the worker count: resuming a `--jobs 8` run
/// with `--jobs 1` is valid and byte-identical.
pub fn grid_fingerprint(
    specs: &[ScenarioSpec],
    baseline_buffers: usize,
    dvsync_buffers: &[usize],
    mode: SweepMode,
    retry: RetryPolicy,
) -> u64 {
    let mut canon = String::from("dvs-sweep-grid v1;");
    for s in specs {
        canon.push_str(&format!("{}#{:016x}@{}hz;", s.name, s.seed, s.rate_hz));
    }
    canon.push_str(&format!(
        "base={baseline_buffers};dvs={dvsync_buffers:?};mode={mode:?};attempts={}",
        retry.max_attempts
    ));
    fingerprint_of(&canon)
}

/// Restores prior progress from a checkpoint, if configured and present.
/// Returns the slot map to start from plus the resumed-cell count.
pub(crate) fn restore_progress(
    cfg: &ResilienceConfig,
    fingerprint: u64,
    n: usize,
) -> DvsResult<(Vec<Option<CellSlot>>, usize)> {
    let empty = (0..n).map(|_| None).collect();
    let Some(ck) = &cfg.checkpoint else {
        return Ok((empty, 0));
    };
    if !ck.resume || !Path::new(&ck.path).exists() {
        return Ok((empty, 0));
    }
    let ckpt = Checkpoint::load(Path::new(&ck.path), fingerprint)?;
    if ckpt.slots.len() != n {
        return Err(DvsError::CheckpointIncompatible {
            path: ck.path.clone(),
            detail: format!("{} slots for a grid of {n} cells", ckpt.slots.len()),
        });
    }
    let resumed = ckpt.done();
    Ok((ckpt.slots, resumed))
}

/// Calibrates and measures a suite through the resilient executor — the
/// one suite runner.
///
/// Each scenario's baseline is calibrated to its paper FDPS, then the
/// baseline and every D-VSync buffer configuration run on the calibrated
/// trace. Calibration and trace generation go through `cache`, so a
/// long-lived cache shared by repeated calls (a buffer ladder) calibrates
/// each scenario once; `None` builds a fresh cache for this call. The
/// report is byte-identical for every `jobs` value. Panicking cells retry
/// and quarantine instead of aborting, and progress persists/resumes
/// through `cfg.checkpoint`.
///
/// Quarantined cells contribute zeroed metrics to their suite row (the row
/// is still present, keeping the report's shape stable) and are listed in
/// the report's quarantine section — consumers must treat those row entries
/// as excluded, which [`PartialAccounting`] makes explicit.
///
/// # Errors
///
/// * [`DvsError::SweepInterrupted`] — the injected crash point fired;
///   progress up to the last checkpoint write survives on disk.
/// * [`DvsError::CheckpointCorrupt`] / [`DvsError::CheckpointIncompatible`] —
///   resume was requested against an unusable checkpoint.
/// * [`DvsError::Io`] — a checkpoint write failed.
///
/// # Panics
///
/// Panics if `cache` was built for a different spec count or baseline
/// buffer count than this call.
#[allow(clippy::too_many_arguments)]
pub fn run_suite_resilient(
    label: &str,
    specs: &[ScenarioSpec],
    baseline_buffers: usize,
    dvsync_buffers: &[usize],
    jobs: usize,
    mode: SweepMode,
    cache: Option<&GridCache>,
    cfg: &ResilienceConfig,
) -> DvsResult<ResilientSweep> {
    let engine = SweepEngine::new(jobs);
    let fresh;
    let cache = match cache {
        Some(cache) => {
            assert_eq!(cache.len(), specs.len(), "grid cache sized for a different spec slice");
            assert_eq!(
                cache.baseline_buffers(),
                baseline_buffers,
                "grid cache calibrated at a different baseline buffer count"
            );
            cache
        }
        None => {
            fresh = GridCache::for_suite(specs, baseline_buffers);
            &fresh
        }
    };

    // One calibration cell per scenario, through the cache. This pass is
    // *not* a cell failure domain — a panic here aborts the sweep (see
    // "Failure domains" in docs/SIMULATOR-INTERNALS.md): calibration
    // artifacts are shared by every cell of a scenario, so there is no
    // per-cell blast radius to contain.
    let fitted =
        engine.run_with(specs.len(), RunArena::new, |arena, i| cache.fitted(specs, i, arena));
    let grid = SweepGrid::for_scenarios(
        fitted.iter().map(|f| (f.seed, f.spec.rate_hz)),
        baseline_buffers,
        dvsync_buffers,
    );
    let n = grid.cells.len();
    let keys: Vec<String> =
        // dvs-lint: allow(panic-escape, reason = "spec_index was produced by the grid builder against this fitted list")
        grid.cells.iter().map(|c| c.key(&fitted[c.spec_index].spec.name)).collect();
    let fingerprint = grid_fingerprint(specs, baseline_buffers, dvsync_buffers, mode, cfg.retry);
    let (start_slots, resumed) = restore_progress(cfg, fingerprint, n)?;

    let work = |arena: &mut RunArena, i: usize| {
        // dvs-lint: allow(panic-escape, reason = "i ranges over 0..grid.cells.len()")
        let cell = &grid.cells[i];
        // dvs-lint: allow(panic-escape, reason = "spec_index was produced by the grid builder against this fitted list")
        let entry = &fitted[cell.spec_index];
        if cell.pacer == PacerKind::Vsync {
            // The baseline cell is identical in every call sharing this
            // cache — measure it once, reuse forever.
            entry.baseline_metrics(cell, arena)
        } else {
            run_cell(cell, &entry.spec, &entry.segments, arena)
        }
    };

    let (slots, mut checkpoint_writes) =
        execute_cells(n, engine.jobs(), &keys, fingerprint, cfg, start_slots, resumed, &work)?;

    // Completed: flush a final full checkpoint so resuming a finished run
    // short-circuits instead of re-measuring.
    if let Some(ck) = &cfg.checkpoint {
        if ck.cadence > 0 && !cfg.faults.torn_checkpoint_write {
            Checkpoint {
                version: crate::checkpoint::CHECKPOINT_VERSION,
                fingerprint,
                slots: slots.clone(),
            }
            .save(Path::new(&ck.path))?;
            checkpoint_writes += 1;
        }
    }

    // A quarantined cell keeps its row position with zeroed metrics; the
    // quarantine list is the authoritative exclusion record.
    let mut metrics = Vec::with_capacity(n);
    let (quarantine, accounting) =
        decode_slots(&slots, &keys, resumed, "cell metrics", |m: Option<CellMetrics>| {
            metrics.push(m.unwrap_or(CellMetrics { fdps: 0.0, latency_ms: 0.0 }));
            Ok(())
        })?;

    let rows = assemble_rows(&fitted, &grid, &metrics);
    Ok(ResilientSweep {
        report: SweepReport {
            result: SuiteResult {
                label: label.to_string(),
                baseline_buffers,
                dvsync_buffers: dvsync_buffers.to_vec(),
                rows,
            },
            quarantine,
        },
        stats: cache.stats(),
        accounting,
        checkpoint_writes,
    })
}

/// A deliberately small two-scenario workload for exercising the resilient
/// executor end to end in seconds: kill/resume matrices in CI, exit-code
/// tests, chaos tests. Scenario shapes (rates, lengths, cost profiles) are
/// fixed so every caller sees the same grid and the same fingerprints.
pub fn tiny_suite() -> Vec<ScenarioSpec> {
    use dvs_workload::CostProfile;
    vec![
        ScenarioSpec::new("tiny app", 60, 240, CostProfile::scattered(1.0)).with_paper_fdps(2.0),
        ScenarioSpec::new("tiny game", 90, 180, CostProfile::clustered(1.0)).with_paper_fdps(3.0),
    ]
}

// ---- The resilient compose sweep -------------------------------------------

/// A compose sweep run through the resilient executor.
///
/// Unlike suite rows (which keep quarantined cells in place with zeroed
/// metrics to preserve the table's shape), a quarantined compose scenario is
/// *omitted* from the rows — its row is self-describing, so dropping it
/// cannot shift another scenario's values — and recorded in the quarantine
/// list, which stays the authoritative exclusion record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilientCompose {
    /// The measured scenarios, in suite order (quarantined ones omitted).
    pub sweep: ComposeSweep,
    /// Scenarios excluded after exhausting retries.
    pub quarantine: QuarantineReport,
    /// The completion ledger.
    pub accounting: PartialAccounting,
}

impl ResilientCompose {
    /// Whether any scenario was quarantined (maps to `repro` exit code 2).
    pub fn degraded(&self) -> bool {
        !self.quarantine.is_empty()
    }

    /// Renders the interference tables plus quarantine and accounting lines.
    pub fn render(&self) -> String {
        let mut out = crate::compose::render(&self.sweep);
        out.push_str(&self.quarantine.render());
        out.push_str(&self.accounting.render());
        out
    }
}

/// Runs the compositor interference suite through the resilient executor —
/// the one compose runner: a panicking scenario retries and quarantines
/// instead of aborting the sweep, and rows come back in suite order for
/// every worker count.
pub fn run_compose_resilient(jobs: usize, cfg: &ResilienceConfig) -> DvsResult<ResilientCompose> {
    let suite = compositor_scenario_suite();
    let n = suite.len();
    let keys: Vec<String> = suite.iter().map(|s| s.name.clone()).collect();
    let mut canon = String::from("dvs-compose-grid v1;");
    for k in &keys {
        canon.push_str(k);
        canon.push(';');
    }
    canon.push_str(&format!("budget={INTERFERENCE_BUDGET};attempts={}", cfg.retry.max_attempts));
    let fingerprint = fingerprint_of(&canon);
    let (start_slots, resumed) = restore_progress(cfg, fingerprint, n)?;
    let work = |_arena: &mut RunArena, i: usize| {
        // dvs-lint: allow(panic-escape, reason = "i ranges over 0..suite.len()")
        crate::compose::run_scenario(&suite[i], INTERFERENCE_BUDGET)
    };
    let (slots, _writes) =
        execute_cells(n, jobs.max(1), &keys, fingerprint, cfg, start_slots, resumed, &work)?;

    let mut rows = Vec::with_capacity(n);
    let (quarantine, accounting) =
        decode_slots(&slots, &keys, resumed, "compose row", |row: Option<ComposeRow>| {
            rows.extend(row);
            Ok(())
        })?;
    Ok(ResilientCompose { sweep: ComposeSweep { rows }, quarantine, accounting })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::CostProfile;

    fn specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new("res a", 60, 240, CostProfile::scattered(1.0)).with_paper_fdps(2.0),
            ScenarioSpec::new("res b", 90, 180, CostProfile::clustered(1.0)).with_paper_fdps(3.0),
        ]
    }

    fn temp_ckpt(name: &str) -> String {
        let dir = std::env::temp_dir().join("dvsync_resilient_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id())).to_string_lossy().into_owned()
    }

    fn clean_run(specs: &[ScenarioSpec], jobs: usize) -> ResilientSweep {
        let cfg = ResilienceConfig::default();
        run_suite_resilient("t", specs, 3, &[4, 5], jobs, SweepMode::Aggregate, None, &cfg).unwrap()
    }

    #[test]
    fn clean_resilient_run_measures_every_cell() {
        let specs = specs();
        let resilient = clean_run(&specs, 2);
        assert_eq!(
            resilient.report.to_json(),
            clean_run(&specs, 1).report.to_json(),
            "the report must not depend on the worker count"
        );
        assert!(resilient.report.quarantine.is_empty());
        assert!(!resilient.degraded());
        assert!(resilient.accounting.is_consistent());
        assert_eq!(resilient.accounting.cells_ok, resilient.accounting.cells_total);
        assert_eq!(
            resilient.stats,
            SweepStats { cache_hits: 0, cache_misses: 2, cache_loads: 0 },
            "without a caller's cache each scenario calibrates once, in a fresh cache"
        );
    }

    #[test]
    fn always_panicking_cell_quarantines_instead_of_aborting() {
        let specs = specs();
        let cfg = ResilienceConfig {
            retry: RetryPolicy { max_attempts: 3 },
            checkpoint: None,
            faults: ExecFaults {
                panic_in_cell: Some(1),
                panic_attempts: u32::MAX,
                ..Default::default()
            },
        };
        for jobs in [1, 4] {
            let out = run_suite_resilient(
                "t",
                &specs,
                3,
                &[4, 5],
                jobs,
                SweepMode::Aggregate,
                None,
                &cfg,
            )
            .unwrap();
            assert!(out.degraded());
            assert_eq!(out.report.quarantine.len(), 1);
            let q = &out.report.quarantine.entries[0];
            assert_eq!(q.cell_index, 1);
            assert_eq!(q.attempts, 3);
            assert!(q.cause.contains("injected panic"), "{}", q.cause);
            assert!(q.key.contains("res a"), "{}", q.key);
            assert_eq!(out.accounting.cells_quarantined, 1);
            assert!(out.accounting.is_consistent());
            let rendered = out.render();
            assert!(rendered.contains("quarantined cell 1"));
        }
    }

    #[test]
    fn transient_panic_is_recovered_by_retry() {
        let specs = specs();
        let cfg = ResilienceConfig {
            retry: RetryPolicy { max_attempts: 3 },
            checkpoint: None,
            faults: ExecFaults {
                panic_in_cell: Some(2),
                panic_attempts: 2, // fails twice, succeeds on the third
                ..Default::default()
            },
        };
        let out = run_suite_resilient("t", &specs, 3, &[4, 5], 1, SweepMode::Aggregate, None, &cfg)
            .unwrap();
        assert!(!out.degraded());
        assert_eq!(out.accounting.cells_retried, 1);
        // The retried cell's metrics match an uninjected run exactly.
        let clean = clean_run(&specs, 1);
        assert_eq!(out.report.to_json(), clean.report.to_json());
    }

    #[test]
    fn crash_then_resume_is_byte_identical_to_uninterrupted() {
        let specs = specs();
        let path = temp_ckpt("crash_resume.ckpt");
        let _ = std::fs::remove_file(&path);
        let reference = clean_run(&specs, 1);
        let ck = CheckpointConfig { path: path.clone(), cadence: 1, resume: true };
        let crash_cfg = ResilienceConfig {
            retry: RetryPolicy::default(),
            checkpoint: Some(ck.clone()),
            faults: ExecFaults { crash_at_cell: Some(2), ..Default::default() },
        };
        let err =
            run_suite_resilient("t", &specs, 3, &[4, 5], 1, SweepMode::Aggregate, None, &crash_cfg)
                .unwrap_err();
        assert!(matches!(err, DvsError::SweepInterrupted { completed: 2, total: 6 }), "{err}");

        let resume_cfg = ResilienceConfig {
            retry: RetryPolicy::default(),
            checkpoint: Some(ck),
            faults: ExecFaults::default(),
        };
        let resumed = run_suite_resilient(
            "t",
            &specs,
            3,
            &[4, 5],
            4,
            SweepMode::Aggregate,
            None,
            &resume_cfg,
        )
        .unwrap();
        assert_eq!(resumed.accounting.cells_resumed, 2);
        assert_eq!(
            resumed.report.to_json(),
            reference.report.to_json(),
            "resumed report must be byte-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_checkpoint_is_rejected_on_resume() {
        let specs = specs();
        let path = temp_ckpt("torn.ckpt");
        let _ = std::fs::remove_file(&path);
        let ck = CheckpointConfig { path: path.clone(), cadence: 1, resume: false };
        let torn_cfg = ResilienceConfig {
            retry: RetryPolicy::default(),
            checkpoint: Some(ck.clone()),
            faults: ExecFaults { torn_checkpoint_write: true, ..Default::default() },
        };
        // The run itself completes (writes are fire-and-forget torn files).
        run_suite_resilient("t", &specs, 3, &[4, 5], 1, SweepMode::Aggregate, None, &torn_cfg)
            .unwrap();
        let resume_cfg = ResilienceConfig {
            retry: RetryPolicy::default(),
            checkpoint: Some(CheckpointConfig { resume: true, ..ck }),
            faults: ExecFaults::default(),
        };
        let err = run_suite_resilient(
            "t",
            &specs,
            3,
            &[4, 5],
            1,
            SweepMode::Aggregate,
            None,
            &resume_cfg,
        )
        .unwrap_err();
        assert!(matches!(err, DvsError::CheckpointCorrupt { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fingerprint_binds_grid_identity_but_not_jobs() {
        let specs = specs();
        let base =
            grid_fingerprint(&specs, 3, &[4, 5], SweepMode::Aggregate, RetryPolicy::default());
        // Same inputs → same fingerprint (no hidden state).
        assert_eq!(
            base,
            grid_fingerprint(&specs, 3, &[4, 5], SweepMode::Aggregate, RetryPolicy::default())
        );
        // The value checkpoints were written under while a second mode
        // existed: those checkpoints must still resume.
        assert_eq!(base, 0xa1ea_1c24_3f87_4bc1);
        // Any identity change moves it.
        assert_ne!(
            base,
            grid_fingerprint(&specs, 3, &[4], SweepMode::Aggregate, RetryPolicy::default())
        );
        assert_ne!(
            base,
            grid_fingerprint(
                &specs,
                3,
                &[4, 5],
                SweepMode::Aggregate,
                RetryPolicy { max_attempts: 5 }
            )
        );
    }

    #[test]
    fn resume_against_wrong_grid_is_incompatible() {
        let specs = specs();
        let path = temp_ckpt("wrong_grid.ckpt");
        let _ = std::fs::remove_file(&path);
        let ck = CheckpointConfig { path: path.clone(), cadence: 1, resume: false };
        let cfg = ResilienceConfig {
            retry: RetryPolicy::default(),
            checkpoint: Some(ck.clone()),
            faults: ExecFaults::default(),
        };
        run_suite_resilient("t", &specs, 3, &[4, 5], 1, SweepMode::Aggregate, None, &cfg).unwrap();
        // Resume with a different buffer ladder → fingerprint mismatch.
        let other = ResilienceConfig {
            retry: RetryPolicy::default(),
            checkpoint: Some(CheckpointConfig { resume: true, ..ck }),
            faults: ExecFaults::default(),
        };
        let err = run_suite_resilient("t", &specs, 3, &[4], 1, SweepMode::Aggregate, None, &other)
            .unwrap_err();
        assert!(matches!(err, DvsError::CheckpointIncompatible { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compose_quarantines_a_panicking_scenario() {
        let clean = run_compose_resilient(1, &ResilienceConfig::default()).unwrap();
        assert!(!clean.degraded());
        let direct = ComposeSweep {
            rows: compositor_scenario_suite()
                .iter()
                .map(|s| crate::compose::run_scenario(s, INTERFERENCE_BUDGET))
                .collect(),
        };
        assert_eq!(
            serde_json::to_string(&clean.sweep).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "clean resilient compose must match running each scenario directly"
        );
        let cfg = ResilienceConfig {
            retry: RetryPolicy { max_attempts: 2 },
            checkpoint: None,
            faults: ExecFaults {
                panic_in_cell: Some(0),
                panic_attempts: u32::MAX,
                ..Default::default()
            },
        };
        let out = run_compose_resilient(2, &cfg).unwrap();
        assert!(out.degraded());
        assert_eq!(out.quarantine.len(), 1);
        assert_eq!(out.quarantine.entries[0].cell_index, 0);
        assert_eq!(out.quarantine.entries[0].attempts, 2);
        assert_eq!(out.sweep.rows.len(), clean.sweep.rows.len() - 1);
        assert!(out.accounting.is_consistent());
        assert!(out.render().contains("quarantined cell 0"));
    }

    #[test]
    fn resume_with_missing_checkpoint_starts_fresh() {
        let specs = specs();
        let path = temp_ckpt("missing.ckpt");
        let _ = std::fs::remove_file(&path);
        let cfg = ResilienceConfig {
            retry: RetryPolicy::default(),
            checkpoint: Some(CheckpointConfig { path: path.clone(), cadence: 0, resume: true }),
            faults: ExecFaults::default(),
        };
        let out = run_suite_resilient("t", &specs, 3, &[4, 5], 1, SweepMode::Aggregate, None, &cfg)
            .unwrap();
        assert_eq!(out.accounting.cells_resumed, 0);
        assert_eq!(out.checkpoint_writes, 0, "cadence 0 disables checkpointing");
        assert!(!Path::new(&path).exists());
        assert_eq!(out.report.to_json(), clean_run(&specs, 1).report.to_json());
    }

    #[test]
    fn unparseable_slot_is_corrupt_and_names_its_cell() {
        let stored =
            |json: String| Some(CellSlot { ok: Some(json), quarantined: None, attempts: 1 });
        let metrics = CellMetrics { fdps: 1.0, latency_ms: 2.0 };
        let slots = vec![
            stored(serde_json::to_string(&metrics).unwrap()),
            stored(serde_json::to_string(&ComposeSweep { rows: Vec::new() }).unwrap()),
        ];
        let keys = vec!["first".to_string(), "second".to_string()];
        let mut decoded = Vec::new();
        let err = decode_slots(&slots, &keys, 0, "cell metrics", |m: Option<CellMetrics>| {
            decoded.push(m);
            Ok(())
        })
        .unwrap_err();
        match err {
            DvsError::CheckpointCorrupt { path, detail } => {
                assert_eq!(path, "second", "the error names the bad cell's key");
                assert!(detail.contains("stored cell metrics failed to parse"), "{detail}");
            }
            other => panic!("expected CheckpointCorrupt, got {other}"),
        }
        assert_eq!(decoded, vec![Some(metrics)], "cells before the bad slot were handed over");
    }
}
