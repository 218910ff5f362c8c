//! Fleet throughput benchmark: the fleet runner under both engine names,
//! floor-gated at one million simulated devices per minute. Both names now
//! run the same shard loop, so the two arms time the same code.
//!
//! Both arms run the *same* seeded population through
//! [`run_fleet_resilient`] — sampling, trace generation, simulation, and
//! sketch reduction all inside the timed window, so `devices_per_min` is an
//! honest end-to-end figure, not a simulation-only one. The arms' reports
//! are asserted byte-identical in-run: a throughput number from a diverging
//! run is worthless.
//!
//! The committed baseline lives in `BENCH_fleet.json`; `repro fleet --check`
//! gates fresh runs against it. The [`DEVICES_PER_MIN_FLOOR`] gate is
//! absolute and applies in every mode; baseline-relative gates (20 %
//! tolerance) apply only when the workload modes match.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::alloc_track;
use crate::fleet::{run_fleet_resilient, FleetEngine, ResilientFleet};
use crate::resilient::ResilienceConfig;
use crate::sweep::default_jobs;
use dvs_workload::FleetSpec;

/// Throughput of one fleet arm over the benchmark population.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetThroughput {
    /// Arm label.
    pub engine: String,
    /// Devices simulated.
    pub devices: u64,
    /// Frames per device.
    pub frames: usize,
    /// Wall-clock time for the whole arm (sampling + traces + simulation +
    /// reduction), in seconds.
    pub elapsed_secs: f64,
    /// Simulated devices completed per minute of wall-clock.
    pub devices_per_min: f64,
    /// Heap bytes allocated during the arm (0 when no counting allocator is
    /// installed, e.g. under `cargo test`).
    pub bytes_allocated: u64,
    /// Heap allocation calls during the arm (0 without the allocator).
    pub allocations: u64,
}

/// The full benchmark result: both arms plus the headline ratio.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetBench {
    /// Population label.
    pub population: String,
    /// Whether this was the reduced CI smoke workload.
    pub quick: bool,
    /// Devices in the population.
    pub devices: u64,
    /// Frames per device.
    pub frames: usize,
    /// Shards the population was split into.
    pub shards: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// The production arm, `--engine batched`.
    pub batched: FleetThroughput,
    /// The same loop under `--engine per-device`.
    pub per_device: FleetThroughput,
    /// `batched.devices_per_min / per_device.devices_per_min`.
    pub batch_speedup: f64,
}

/// Frames simulated per device — one second of simulated time at 60 Hz:
/// long enough for the pacers to settle and janks to accumulate, short
/// enough that a population is millions of devices, not millions of
/// minutes.
pub const FRAMES_PER_DEVICE: usize = 60;

/// The benchmark population. Quick mode is the CI smoke slice; both modes
/// use the same mixed default population (device models, refresh rates,
/// buffer depths, workload mixes, fault profiles).
pub fn bench_population(quick: bool) -> FleetSpec {
    let devices = if quick { 20_000 } else { 200_000 };
    FleetSpec::default_population("bench", devices, FRAMES_PER_DEVICE)
}

fn run_arm(
    spec: &FleetSpec,
    shards: usize,
    jobs: usize,
    engine: FleetEngine,
) -> (ResilientFleet, FleetThroughput) {
    let alloc_start = alloc_track::snapshot();
    let start = Instant::now();
    let out = run_fleet_resilient(spec, shards, jobs, engine, &ResilienceConfig::default())
        .expect("benchmark population always validates");
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let alloc = alloc_track::delta_since(alloc_start);
    assert!(!out.degraded(), "benchmark arm quarantined shards without injected faults");
    let throughput = FleetThroughput {
        engine: engine.name().to_string(),
        devices: spec.devices,
        frames: spec.frames,
        elapsed_secs: elapsed,
        devices_per_min: spec.devices as f64 / elapsed * 60.0,
        bytes_allocated: alloc.bytes,
        allocations: alloc.allocs,
    };
    (out, throughput)
}

/// Runs both arms over `spec` and cross-checks their reports.
///
/// # Panics
///
/// Panics if the two arms' reports are not byte-identical — a correctness
/// failure, not a performance one.
pub fn run_population(spec: &FleetSpec, shards: usize, jobs: usize, quick: bool) -> FleetBench {
    let (batched_out, batched) = run_arm(spec, shards, jobs, FleetEngine::Batched);
    let (solo_out, per_device) = run_arm(spec, shards, jobs, FleetEngine::PerDevice);
    assert_eq!(
        batched_out.report.to_json().expect("fleet reports serialize"),
        solo_out.report.to_json().expect("fleet reports serialize"),
        "the engine names' reports diverged"
    );
    let batch_speedup = batched.devices_per_min / per_device.devices_per_min.max(1e-9);
    FleetBench {
        population: spec.name.clone(),
        quick,
        devices: spec.devices,
        frames: spec.frames,
        shards,
        jobs,
        batched,
        per_device,
        batch_speedup,
    }
}

/// Runs the full comparison. `quick` selects the reduced CI workload.
pub fn run(quick: bool) -> FleetBench {
    let spec = bench_population(quick);
    let jobs = default_jobs();
    // Enough shards that every worker stays busy through the tail, few
    // enough that per-shard setup is noise. Shard count never changes the
    // report bytes, only the work partition.
    let shards = (jobs * 8).max(16);
    run_population(&spec, shards, jobs, quick)
}

/// Renders the comparison as an aligned text table.
pub fn render(b: &FleetBench) -> String {
    let mut out = String::from("Fleet throughput (the shard loop under both engine names)\n");
    out.push_str(&format!(
        "population: '{}' — {} devices × {} frames, {} shards, {} jobs\n",
        b.population, b.devices, b.frames, b.shards, b.jobs
    ));
    out.push_str(&format!(
        "{:<12} {:>12} {:>16} {:>16} {:>12}\n",
        "engine", "elapsed (s)", "devices/min", "bytes alloc'd", "allocs"
    ));
    for arm in [&b.batched, &b.per_device] {
        out.push_str(&format!(
            "{:<12} {:>12.3} {:>16.0} {:>16} {:>12}\n",
            arm.engine, arm.elapsed_secs, arm.devices_per_min, arm.bytes_allocated, arm.allocations
        ));
    }
    out.push_str(&format!("batch speedup (devices/min): {:.2}x\n", b.batch_speedup));
    out.push_str(&format!(
        "floor: {:.2}M devices/min vs the {:.0}M floor\n",
        b.batched.devices_per_min / 1e6,
        DEVICES_PER_MIN_FLOOR / 1e6
    ));
    out
}

/// The minimum batched-arm throughput any run must show — the tentpole's
/// acceptance floor: one million simulated devices per minute.
pub const DEVICES_PER_MIN_FLOOR: f64 = 1_000_000.0;

/// Gates a fresh result against a committed baseline.
///
/// The [`DEVICES_PER_MIN_FLOOR`] gate is absolute: throughput is a rate, so
/// it applies whether the run was quick or full. Baseline-relative gates
/// (batched devices/min and batch speedup, 20 % tolerance) apply only when
/// both runs used the same workload mode; the batch speedup itself is
/// reported but not floor-gated — both arms are the same loop, so the
/// ratio measures only run-to-run noise.
pub fn check(current: &FleetBench, baseline: &FleetBench) -> Result<String, String> {
    let mut notes = String::new();
    if current.batched.devices_per_min < DEVICES_PER_MIN_FLOOR {
        return Err(format!(
            "fleet throughput {:.0} devices/min is below the {:.0} floor",
            current.batched.devices_per_min, DEVICES_PER_MIN_FLOOR
        ));
    }
    notes.push_str(&format!(
        "throughput {:.2}M devices/min clears the {:.0}M floor\n",
        current.batched.devices_per_min / 1e6,
        DEVICES_PER_MIN_FLOOR / 1e6
    ));
    if current.batch_speedup < 1.0 {
        notes.push_str(&format!(
            "note: the batched arm is not ahead of the per-device arm ({:.2}x)\n",
            current.batch_speedup
        ));
    } else {
        notes.push_str(&format!("batch speedup {:.2}x\n", current.batch_speedup));
    }
    if current.quick != baseline.quick {
        notes.push_str("workload modes differ (quick vs full): only the absolute floor applies\n");
        return Ok(notes);
    }
    if current.batched.devices_per_min < 0.8 * baseline.batched.devices_per_min {
        return Err(format!(
            "fleet throughput regressed: {:.0} devices/min now vs {:.0} baseline (>20% drop)",
            current.batched.devices_per_min, baseline.batched.devices_per_min
        ));
    }
    notes.push_str(&format!(
        "devices/min {:.0} vs baseline {:.0}: ok\n",
        current.batched.devices_per_min, baseline.batched.devices_per_min
    ));
    if current.batch_speedup < 0.8 * baseline.batch_speedup {
        return Err(format!(
            "batch speedup regressed: {:.2}x now vs {:.2}x baseline (>20% drop)",
            current.batch_speedup, baseline.batch_speedup
        ));
    }
    notes.push_str(&format!(
        "batch speedup {:.2}x vs baseline {:.2}x: ok\n",
        current.batch_speedup, baseline.batch_speedup
    ));
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(devices_per_min: f64) -> FleetThroughput {
        FleetThroughput {
            engine: "batched".into(),
            devices: 1000,
            frames: FRAMES_PER_DEVICE,
            elapsed_secs: 1.0,
            devices_per_min,
            bytes_allocated: 0,
            allocations: 0,
        }
    }

    fn bench(devices_per_min: f64, speedup: f64, quick: bool) -> FleetBench {
        FleetBench {
            population: "bench".into(),
            quick,
            devices: 1000,
            frames: FRAMES_PER_DEVICE,
            shards: 16,
            jobs: 4,
            batched: arm(devices_per_min),
            per_device: arm(devices_per_min / speedup.max(1e-9)),
            batch_speedup: speedup,
        }
    }

    #[test]
    fn tiny_population_arms_agree_and_roundtrip_through_json() {
        // run_population panics internally if the arms diverge.
        let spec = FleetSpec::tiny(60, 24);
        let b = run_population(&spec, 4, 2, true);
        assert_eq!(b.devices, 60);
        assert!(b.batched.devices_per_min > 0.0);
        let json = serde_json::to_string_pretty(&b).unwrap();
        let back: FleetBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, b.shards);
        assert!(render(&back).contains("devices/min"));
        assert!(render(&back).contains("batch speedup"));
    }

    #[test]
    fn check_gates_on_floor_and_regression() {
        let base = bench(4e6, 1.5, false);
        // Clears the floor and matches the baseline.
        assert!(check(&bench(4e6, 1.5, false), &base).is_ok());
        // Below the absolute floor: always an error.
        assert!(check(&bench(5e5, 1.5, false), &base).unwrap_err().contains("floor"));
        // >20% throughput drop against a same-mode baseline.
        assert!(check(&bench(3e6, 1.5, false), &base).unwrap_err().contains("regressed"));
        // >20% speedup drop against a same-mode baseline.
        assert!(check(&bench(4e6, 1.0, false), &base).unwrap_err().contains("speedup"));
        // Mode mismatch: relative gates skipped, floor still applies.
        assert!(check(&bench(3e6, 1.0, true), &base).is_ok());
        assert!(check(&bench(5e5, 1.0, true), &base).is_err());
    }
}
