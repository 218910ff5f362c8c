//! Population-scale fleet simulation through the resilient executor.
//!
//! A fleet run expands a seeded [`FleetSpec`] into millions of per-device
//! simulations and reduces them to population distributions without ever
//! materializing the population: shards of the device index space are the
//! unit of work (and the resilient executor's *cells* — panic isolation,
//! retry/quarantine, checkpoint/resume all apply per shard), each shard
//! folds its devices into a [`FleetSketch`], and shard sketches merge into
//! the final report.
//!
//! Determinism contract, pinned by `tests/fleet_differential.rs`:
//!
//! * every shard re-derives its devices as a pure function of
//!   `(spec.seed, index)` — a retried or resumed shard reproduces exactly
//!   the devices it covered before;
//! * sketch merging is byte-for-byte associative and commutative, so the
//!   final report is invariant under `--jobs`, shard count, and shard
//!   order;
//! * [`run_fleet_shard`]'s one loop, a warm arena across a shard's
//!   devices, gives the bytes of a sketch built from fresh per-device
//!   [`Simulator`] runs, clean and faulted.

use std::path::{Path, PathBuf};

use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::named_profile;
use dvs_metrics::{FleetSketch, PartialAccounting, PowerModel, QuarantineReport, RunTotals};
use dvs_pipeline::{PipelineConfig, RunArena, Simulator};
use dvs_sim::{DvsError, DvsResult};
use dvs_workload::{DeviceRun, FleetSpec, FrameTrace};
use serde::{Deserialize, Serialize};

use crate::checkpoint::fingerprint_of;
use crate::resilient::{decode_slots, execute_cells, restore_progress, ResilienceConfig};

/// How many homogeneous lanes one [`run_batch`](dvs_pipeline::run_batch)
/// bucket holds in the repository benchmark's traced fleet copy. The fleet
/// runner itself no longer batches: [`run_fleet_shard`] runs each device
/// through its worker's one arena.
pub const BATCH_WIDTH: usize = 64;

/// Frames simulated per device by default (`repro fleet --frames`): one
/// second of simulated time at 60 Hz, long enough for the pacers to settle
/// and janks to accumulate, short enough that a population is millions of
/// devices, not millions of minutes.
pub const FRAMES_PER_DEVICE: usize = 60;

/// The engine name a fleet run is bound to. Every run takes
/// [`run_fleet_shard`]'s one loop; the name stays in the checkpoint
/// fingerprint, so checkpoints written before the loop changed still
/// resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetEngine {
    /// The one engine name, and the one the repository benchmark runs.
    Batched,
}

impl FleetEngine {
    /// Stable name (part of the checkpoint fingerprint).
    pub fn name(self) -> &'static str {
        match self {
            FleetEngine::Batched => "batched",
        }
    }
}

/// The identity-bearing part of a fleet run: the population description and
/// its sketched distributions. Everything here is invariant under worker
/// count, shard count and shard order — run-shaped telemetry
/// (accounting, checkpoint writes) lives in [`ResilientFleet`].
///
/// The quarantine list is empty on clean runs; when shards are quarantined
/// its entries name shard indices, which do depend on the shard count — the
/// invariance contract applies to runs that measure the same device set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetReport {
    /// Population name.
    pub label: String,
    /// Population size (devices the spec describes).
    pub devices: u64,
    /// Frames simulated per device.
    pub frames_per_device: usize,
    /// The merged population sketch (`sketch.devices` = devices actually
    /// measured; less than `devices` only when shards were quarantined).
    pub sketch: FleetSketch,
    /// Shards excluded after exhausting retries.
    pub quarantine: QuarantineReport,
}

impl FleetReport {
    /// Canonical JSON — the byte-identity surface chaos/differential tests
    /// compare.
    pub fn to_json(&self) -> DvsResult<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| DvsError::InvalidConfig(format!("fleet report failed to serialize: {e}")))
    }

    /// Whether any shard was quarantined (maps to `repro` exit code 2).
    pub fn degraded(&self) -> bool {
        !self.quarantine.is_empty()
    }

    /// Renders the population distribution table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet '{}': {} devices x {} frames, {} measured\n",
            self.label, self.devices, self.frames_per_device, self.sketch.devices
        );
        out.push_str(&format!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "metric", "mean", "p50", "p90", "p99", "max"
        ));
        for (name, m) in [
            ("fdps", &self.sketch.fdps),
            ("latency_ms", &self.sketch.latency_ms),
            ("energy_mj", &self.sketch.energy_mj),
        ] {
            out.push_str(&format!(
                "{:<12} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                name,
                m.mean(),
                m.quantile(0.50),
                m.quantile(0.90),
                m.quantile(0.99),
                m.stats.max(),
            ));
        }
        out.push_str(&self.quarantine.render());
        out
    }
}

/// A fleet run's full outcome: the identity-bearing report plus run-shaped
/// telemetry.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilientFleet {
    /// The population report (the byte-identity surface).
    pub report: FleetReport,
    /// The shard completion ledger.
    pub accounting: PartialAccounting,
    /// Checkpoints written during the run. A snapshot that a newer one
    /// replaced before the writer took it is never written, so the count
    /// depends on disk speed: at most one per cadence point plus the final
    /// snapshot.
    pub checkpoint_writes: usize,
}

impl ResilientFleet {
    /// Whether any shard was quarantined.
    pub fn degraded(&self) -> bool {
        self.report.degraded()
    }

    /// Renders the distribution table plus the accounting ledger.
    pub fn render(&self) -> String {
        let mut out = self.report.render();
        out.push_str(&self.accounting.render());
        out
    }
}

/// Folds one finished device run into the shard's sketch: FDPS and mean
/// latency from the run's totals, bit for bit what its
/// [`RunReport`](dvs_metrics::RunReport) would give, and energy from the
/// §6.4 power model (every frame pays the FPE/DTV cost under D-VSync).
fn observe_device(sketch: &mut FleetSketch, totals: &RunTotals) {
    let energy_uj = PowerModel::default()
        .energy_of(totals, totals.display_time, totals.records as u64, 0)
        .total_uj();
    sketch.observe_device(totals.fdps(), totals.mean_latency_ms(), energy_uj / 1000.0);
}

/// Resolves a device's fault plan (`None` for clean devices).
fn fleet_plan(spec: &FleetSpec, dev: &DeviceRun) -> Option<dvs_faults::FaultPlan> {
    if dev.is_clean() {
        None
    } else {
        named_profile(dev.fault_profile, dev.fault_seed_key(&spec.name))
    }
}

/// The file a recorded binary trace for device `index` lives at under a
/// fleet trace directory: `dev-<index>.dvst` (written by
/// `repro trace record --fleet`).
pub fn fleet_trace_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("dev-{index}.{}", dvs_workload::codec::BINARY_EXT))
}

/// Loads the trace for `dev` into `trace`: decoded from the recorded
/// binary file when a trace directory is given and the recording matches
/// the device's identity (rate and frame count), regenerated in place
/// otherwise. Recordings are purely an accelerator — the fallback keeps any
/// run byte-identical to a directory-less one.
fn load_device_trace(dev: &DeviceRun, frames: usize, dir: Option<&Path>, trace: &mut FrameTrace) {
    if let Some(dir) = dir {
        if let Ok(recorded) = FrameTrace::load_binary(fleet_trace_path(dir, dev.index)) {
            if recorded.rate_hz == dev.rate_hz && recorded.len() == frames {
                *trace = recorded;
                return;
            }
        }
    }
    dev.trace_into(trace);
}

/// Runs one shard of the population and returns its sketch. Pure in
/// `(spec, shard, shards)`: any worker, any attempt, any resume produces
/// the same bytes — which is what lets shards be resilient-executor cells.
///
/// Each device regenerates (or decodes) into one pooled trace, runs through
/// the worker's one `arena` with a fresh D-VSync pacer, and is folded into
/// the sketch.
///
/// With a `trace_dir` of per-device binary recordings
/// ([`fleet_trace_path`]), devices decode their recorded traces instead of
/// regenerating them; the bytes are the same either way.
pub fn run_fleet_shard(
    spec: &FleetSpec,
    shard: usize,
    shards: usize,
    arena: &mut RunArena,
    trace_dir: Option<&Path>,
) -> FleetSketch {
    let mut sketch = FleetSketch::new();
    let mut trace = FrameTrace::new(String::new(), 0);
    for i in spec.shard_range(shard, shards) {
        let Some(dev) = spec.device(i) else { continue };
        load_device_trace(&dev, spec.frames, trace_dir, &mut trace);
        let cfg = PipelineConfig::new(dev.rate_hz, dev.buffers);
        let plan = fleet_plan(spec, &dev);
        let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(dev.buffers));
        let mut totals = RunTotals::default();
        Simulator::new(&cfg)
            .with_faults(plan.as_ref())
            .try_tally_into(&trace, &mut pacer, arena, &mut totals)
            .expect("generated fleet traces always validate");
        observe_device(&mut sketch, &totals);
    }
    sketch
}

/// The fingerprint binding a checkpoint to one fleet identity: the full
/// canonical population, the shard partition, the engine, and the retry
/// budget — and deliberately **not** the worker count.
pub fn fleet_fingerprint(
    spec: &FleetSpec,
    shards: usize,
    engine: FleetEngine,
    cfg: &ResilienceConfig,
) -> u64 {
    let canon = format!(
        "dvs-fleet-grid v1;{};shards={shards};engine={};attempts={}",
        spec.canonical(),
        engine.name(),
        cfg.retry.max_attempts
    );
    fingerprint_of(&canon)
}

/// Runs the whole population through the resilient executor, shards as
/// cells, and merges shard sketches (in shard-index order, though any order
/// gives the same bytes) into a [`FleetReport`].
pub fn run_fleet_resilient(
    spec: &FleetSpec,
    shards: usize,
    jobs: usize,
    engine: FleetEngine,
    cfg: &ResilienceConfig,
) -> DvsResult<ResilientFleet> {
    run_fleet_resilient_with(spec, shards, jobs, engine, cfg, None)
}

/// [`run_fleet_resilient`] with an optional directory of per-device binary
/// trace recordings; shards decode recorded traces instead of regenerating
/// them, and fall back per device when a recording is absent or mismatched.
pub fn run_fleet_resilient_with(
    spec: &FleetSpec,
    shards: usize,
    jobs: usize,
    engine: FleetEngine,
    cfg: &ResilienceConfig,
    trace_dir: Option<&Path>,
) -> DvsResult<ResilientFleet> {
    spec.validate().map_err(DvsError::InvalidConfig)?;
    let n = shards.max(1);
    let keys: Vec<String> = (0..n)
        .map(|s| {
            let r = spec.shard_range(s, n);
            format!("{} shard {s} [{}, {})", spec.name, r.start, r.end)
        })
        .collect();
    let fingerprint = fleet_fingerprint(spec, n, engine, cfg);
    let (start_slots, resumed) = restore_progress(cfg, fingerprint, n)?;
    let work = |arena: &mut RunArena, i: usize| run_fleet_shard(spec, i, n, arena, trace_dir);
    let (slots, checkpoint_writes) =
        execute_cells(n, jobs.max(1), &keys, fingerprint, cfg, start_slots, resumed, &work)?;

    // Shard sketches merge one at a time, in shard-index order.
    let mut sketch = FleetSketch::new();
    let (quarantine, accounting) =
        decode_slots(&slots, &keys, resumed, "shard sketch", |shard: Option<FleetSketch>| {
            match shard {
                Some(shard) => sketch.try_merge(&shard),
                None => Ok(()),
            }
        })?;

    Ok(ResilientFleet {
        report: FleetReport {
            label: spec.name.clone(),
            devices: spec.devices,
            frames_per_device: spec.frames,
            sketch,
            quarantine,
        },
        accounting,
        checkpoint_writes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::{ExecFaults, RetryPolicy};

    fn tiny() -> FleetSpec {
        FleetSpec::tiny(48, 24)
    }

    fn clean_run(shards: usize, jobs: usize) -> ResilientFleet {
        let cfg = ResilienceConfig::default();
        run_fleet_resilient(&tiny(), shards, jobs, FleetEngine::Batched, &cfg).unwrap()
    }

    #[test]
    fn report_is_invariant_under_jobs_and_shards() {
        let base = clean_run(1, 1).report;
        assert_eq!(base.sketch.devices, 48);
        let base = base.to_json().unwrap();
        for (shards, jobs) in [(2, 1), (5, 4), (48, 2), (7, 3)] {
            let got = clean_run(shards, jobs).report.to_json().unwrap();
            assert_eq!(got, base, "report changed under shards={shards} jobs={jobs}");
        }
    }

    #[test]
    fn quarantined_shard_excludes_only_its_devices() {
        let cfg = ResilienceConfig {
            retry: RetryPolicy { max_attempts: 2 },
            checkpoint: None,
            faults: ExecFaults {
                panic_in_cell: Some(1),
                panic_attempts: u32::MAX,
                ..Default::default()
            },
        };
        let out = run_fleet_resilient(&tiny(), 4, 2, FleetEngine::Batched, &cfg).unwrap();
        assert!(out.degraded());
        assert_eq!(out.accounting.cells_quarantined, 1);
        let spec = tiny();
        let lost = spec.shard_range(1, 4);
        assert_eq!(out.report.sketch.devices, 48 - (lost.end - lost.start));
    }

    #[test]
    fn recorded_trace_dir_replays_byte_identically() {
        let spec = tiny();
        let dir = std::env::temp_dir().join(format!("dvst-fleet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..spec.devices {
            let dev = spec.device(i).unwrap();
            dev.trace().save_binary(fleet_trace_path(&dir, i)).unwrap();
        }
        let base = clean_run(3, 1).report.to_json().unwrap();
        let cfg = ResilienceConfig::default();
        let loaded =
            run_fleet_resilient_with(&spec, 3, 1, FleetEngine::Batched, &cfg, Some(dir.as_path()))
                .unwrap();
        assert_eq!(loaded.report.to_json().unwrap(), base, "recordings must not change results");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_mentions_population_and_metrics() {
        let out = clean_run(2, 1);
        let text = out.render();
        assert!(text.contains("fleet 'tiny'"));
        assert!(text.contains("fdps"));
        assert!(text.contains("energy_mj"));
    }
}
