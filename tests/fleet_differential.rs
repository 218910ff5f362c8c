//! Differential wall around the fleet layer.
//!
//! Three equivalences, all byte-for-byte on serialized output:
//!
//! * the **batch kernel**'s lanes (`run_batch`) vs per-device [`Simulator`]
//!   runs — K ∈ {1, 2, 7, 64} lanes, clean and fault-injected, and for
//!   K = 1 against *both* execution cores (event heap and the reference
//!   tick-stepper), so the lane path is transitively pinned to the
//!   retained reference semantics;
//! * the **shard loop**, one warm arena across its devices, vs fresh
//!   per-device runs, clean and fault-injected — the only check of the
//!   fleet runner against runs it does not share an arena with;
//! * the sketch-reduced **fleet report** vs itself under every execution
//!   shape — worker count (`--jobs 1` vs `4`), shard count, shard order,
//!   and resume — which is what makes fleet results reproducible claims
//!   rather than run artifacts.

use std::path::Path;

use dvs_bench::{
    run_fleet_resilient, run_fleet_shard, CheckpointConfig, FleetEngine, ResilienceConfig,
};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::{named_profile, FaultPlan};
use dvs_metrics::{FleetSketch, PowerModel};
use dvs_pipeline::{run_batch, BatchLane, PipelineConfig, RunArena, SimCore, Simulator};
use dvs_workload::{CostProfile, FleetSpec, FrameTrace, ScenarioSpec};

const RATE_HZ: u32 = 60;
const BUFFERS: usize = 4;

fn pacer() -> DvsyncPacer {
    DvsyncPacer::new(DvsyncConfig::with_buffers(BUFFERS))
}

/// A per-lane trace: lengths, costs, and seeds all vary with the index so
/// no two lanes are on the same schedule.
fn lane_trace(k: usize, i: usize) -> FrameTrace {
    let cost = match i % 3 {
        0 => CostProfile::scattered(1.0 + i as f64 / 2.0),
        1 => CostProfile::clustered(0.5 + i as f64 / 3.0),
        _ => CostProfile::smooth(),
    };
    ScenarioSpec::new(format!("fleet-diff/{k}/{i}"), RATE_HZ, 30 + 7 * i, cost).generate()
}

/// Every second lane gets a fault plan, cycling through the named profiles.
fn lane_plan(k: usize, i: usize, faulted: bool) -> Option<FaultPlan> {
    if !faulted || i.is_multiple_of(2) {
        return None;
    }
    let profiles = ["gpu-spikes", "ui-pauses", "vsync-noise", "mixed"];
    named_profile(profiles[i % profiles.len()], format!("fleet-diff/{k}/{i}"))
}

fn solo_json(
    cfg: &PipelineConfig,
    trace: &FrameTrace,
    plan: Option<&FaultPlan>,
    core: SimCore,
) -> String {
    let report = Simulator::new(cfg).with_core(core).with_faults(plan).run(trace, &mut pacer());
    serde_json::to_string(&report).expect("reports serialize")
}

/// Runs K lanes batched and asserts each lane's report byte-identical to a
/// solo event-heap run of the same device.
fn assert_batch_matches_solo(k: usize, faulted: bool) {
    let cfg = PipelineConfig::new(RATE_HZ, BUFFERS);
    let mut lanes: Vec<BatchLane<DvsyncPacer>> = (0..k)
        .map(|i| BatchLane::new(lane_trace(k, i), lane_plan(k, i, faulted), pacer()))
        .collect();
    run_batch(&cfg, &mut lanes).expect("batch runs");
    for (i, lane) in lanes.iter().enumerate() {
        let batched = serde_json::to_string(&lane.out).expect("reports serialize");
        let solo = solo_json(&cfg, &lane.trace, lane.plan.as_ref(), SimCore::EventHeap);
        assert_eq!(batched, solo, "K={k} faulted={faulted}: lane {i} diverged from solo run");
    }
}

#[test]
fn batch_kernel_matches_per_device_runs_clean() {
    for k in [1, 2, 7, 64] {
        assert_batch_matches_solo(k, false);
    }
}

#[test]
fn batch_kernel_matches_per_device_runs_faulted() {
    for k in [1, 2, 7, 64] {
        assert_batch_matches_solo(k, true);
    }
}

#[test]
fn single_lane_batch_matches_both_cores() {
    let cfg = PipelineConfig::new(RATE_HZ, BUFFERS);
    for faulted in [false, true] {
        // i = 1 so the faulted pass actually carries a plan.
        let trace = lane_trace(1, 1);
        let plan = lane_plan(1, 1, faulted);
        let mut lanes = vec![BatchLane::new(trace, plan, pacer())];
        run_batch(&cfg, &mut lanes).expect("batch runs");
        let batched = serde_json::to_string(&lanes[0].out).expect("reports serialize");
        for core in [SimCore::EventHeap, SimCore::Reference] {
            let solo = solo_json(&cfg, &lanes[0].trace, lanes[0].plan.as_ref(), core);
            assert_eq!(batched, solo, "faulted={faulted}: batch diverged from {core:?} core");
        }
    }
}

/// The tiny population with every device clean, or every device faulted
/// (the named profiles only).
fn population(devices: u64, faulted: bool) -> FleetSpec {
    let mut spec = FleetSpec::tiny(devices, 24);
    spec.fault_profiles.retain(|f| (f.item == "clean") != faulted);
    spec
}

/// The shard sketch built independently of the shard loop: a fresh
/// simulator, arena and report per device, reduced from the report.
fn oracle_sketch(spec: &FleetSpec) -> String {
    let mut sketch = FleetSketch::new();
    for i in 0..spec.devices {
        let dev = spec.device(i).expect("index inside the population");
        let cfg = PipelineConfig::new(dev.rate_hz, dev.buffers);
        let plan = (!dev.is_clean()).then(|| {
            named_profile(dev.fault_profile, dev.fault_seed_key(&spec.name))
                .expect("a named profile")
        });
        let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(dev.buffers));
        let report = Simulator::new(&cfg).with_faults(plan.as_ref()).run(&dev.trace(), &mut pacer);
        let energy = PowerModel::default().energy(&report, report.records.len() as u64, 0);
        sketch.observe_device(report.fdps(), report.mean_latency_ms(), energy.total_uj() / 1000.0);
    }
    serde_json::to_string(&sketch).expect("sketches serialize")
}

#[test]
fn shard_loop_matches_fresh_runs_clean_and_faulted() {
    // One arena across every shard, so each shard starts on the warm state
    // the last one left.
    let mut arena = RunArena::new();
    for devices in [1, 5, 64, 135] {
        for faulted in [false, true] {
            let spec = population(devices, faulted);
            let sketch = run_fleet_shard(&spec, 0, 1, &mut arena, None);
            assert_eq!(sketch.devices, devices);
            assert_eq!(
                serde_json::to_string(&sketch).expect("sketches serialize"),
                oracle_sketch(&spec),
                "{devices} devices, faulted={faulted}: the shard loop diverged from fresh runs"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fleet-report invariance: the sketch-reduced population distribution is a
// pure function of the spec, whatever the execution shape.
// ---------------------------------------------------------------------------

fn fleet_json(spec: &FleetSpec, shards: usize, jobs: usize) -> String {
    run_fleet_resilient(spec, shards, jobs, FleetEngine::Batched, &ResilienceConfig::default())
        .expect("fleet run succeeds")
        .report
        .to_json()
        .expect("fleet reports serialize")
}

#[test]
fn fleet_report_is_invariant_under_jobs_and_shards() {
    let spec = FleetSpec::tiny(72, 18);
    let base = fleet_json(&spec, 1, 1);
    for (shards, jobs) in [(1, 4), (4, 1), (4, 4), (9, 4), (72, 1)] {
        assert_eq!(
            fleet_json(&spec, shards, jobs),
            base,
            "report changed under shards={shards} jobs={jobs}"
        );
    }
}

#[test]
fn shard_sketches_merge_to_the_same_bytes_in_any_order() {
    let spec = FleetSpec::tiny(50, 15);
    let shards = 7;
    let mut arena = RunArena::new();
    let sketches: Vec<FleetSketch> =
        (0..shards).map(|s| run_fleet_shard(&spec, s, shards, &mut arena, None)).collect();

    let merge = |order: &[usize]| {
        let mut total = FleetSketch::new();
        for &s in order {
            total.try_merge(&sketches[s]).expect("same-shape sketches merge");
        }
        serde_json::to_string(&total).expect("sketches serialize")
    };
    let forward: Vec<usize> = (0..shards).collect();
    let backward: Vec<usize> = (0..shards).rev().collect();
    let interleaved = [3, 0, 6, 1, 5, 2, 4];
    let base = merge(&forward);
    assert_eq!(merge(&backward), base, "reverse merge order changed the bytes");
    assert_eq!(merge(&interleaved), base, "shuffled merge order changed the bytes");
}

/// A checkpoint killed after three of six shards. The lane-pool fleet
/// runner wrote it; `repro fleet --tiny --shards 6 --jobs 1 --checkpoint
/// <path> --inject-crash-cell 3` still writes the same bytes. The engine
/// name and the shard sketches' bytes did not change when shards moved to
/// one arena, so it still resumes, to the uninterrupted report.
#[test]
fn lane_pool_checkpoint_resumes_to_the_clean_report() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fleet_tiny_batched_3_of_6.ck");
    let path = std::env::temp_dir().join(format!("dvsync_lane_pool_{}.ck", std::process::id()));
    std::fs::copy(&fixture, &path).expect("the checkpoint fixture copies");
    let spec = FleetSpec::tiny(96, 24);
    let path_str = path.to_string_lossy().into_owned();
    let checkpoint = Some(CheckpointConfig { path: path_str, cadence: 1, resume: true });
    let cfg = ResilienceConfig { checkpoint, ..ResilienceConfig::default() };
    let resumed = run_fleet_resilient(&spec, 6, 2, FleetEngine::Batched, &cfg);
    std::fs::remove_file(&path).ok();
    let resumed = resumed.expect("the lane-pool checkpoint resumes");
    assert_eq!(resumed.accounting.cells_resumed, 3, "the checkpoint's three shards were restored");
    assert_eq!(
        resumed.report.to_json().expect("fleet reports serialize"),
        fleet_json(&spec, 6, 1),
        "the resumed report differs from the uninterrupted one"
    );
}
