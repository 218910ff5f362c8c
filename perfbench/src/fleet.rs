//! The `fleet` workload: the default mixed population through
//! `run_fleet_resilient`, with the CLI's default engine and shard count.
//!
//! Devices are short (60 frames), so per-device setup dominates: sampling,
//! trace generation, fault plans, and a full per-frame report reduced to
//! three scalars. Calibration, decode and checkpoints are bypassed.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use dvs_bench::{
    fleet_fingerprint, run_fleet_resilient, CellSlot, FleetEngine, FleetReport, ResilienceConfig,
    BATCH_WIDTH,
};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::{named_profile, Horizon};
use dvs_metrics::{FleetSketch, PowerModel, QuarantineEntry, QuarantineReport, RunReport};
use dvs_pipeline::{run_batch, BatchLane, PipelineConfig};
use dvs_sim::DvsResult;
use dvs_workload::{DeviceRun, FleetSpec};

use crate::exec::{attempt, digest, for_each_unit, ExecCounts, Pass, Probe};
use crate::trace::{span, take_thread, Kind, Timed};

/// Frames each device simulates (the CLI default).
pub const FRAMES: usize = 60;

pub struct Fleet {
    pub spec: FleetSpec,
    pub shards: usize,
    pub jobs: usize,
}

impl Fleet {
    /// The default population of `devices` devices, seeded from `seed`.
    pub fn new(seed: u64, devices: u64, jobs: usize) -> Self {
        Fleet {
            spec: FleetSpec::default_population(format!("perfbench-{seed}"), devices, FRAMES),
            shards: (jobs * 8).max(16),
            jobs,
        }
    }

    /// Simulated frames one pass completes.
    pub fn frames(&self) -> u64 {
        self.spec.devices * self.spec.frames as u64
    }

    fn check(&self, report: &FleetReport, retried: u64) -> Pass {
        let json = report.to_json().unwrap_or_default();
        let mut problems = Vec::new();
        if report.sketch.devices != self.spec.devices {
            problems.push(format!(
                "sketch.devices {} != population {}",
                report.sketch.devices, self.spec.devices
            ));
        }
        if json.is_empty() {
            problems.push("fleet report does not serialize".to_string());
        }
        Pass {
            digest: digest(&json),
            units: self.shards as u64,
            quarantined: report.quarantine.entries.len() as u64,
            problems,
            exec: ExecCounts { retried, ..ExecCounts::default() },
            headline: format!(
                "fleet FDPS p50 {:.3}, p99 {:.3} (the paper reports no population figures: \
                 the model is unvalidated at population scale)",
                report.sketch.fdps.quantile(0.50),
                report.sketch.fdps.quantile(0.99)
            ),
        }
    }

    /// One untraced pass through the program's own fleet runner.
    pub fn run(&self) -> DvsResult<Pass> {
        let out = run_fleet_resilient(
            &self.spec,
            self.shards,
            self.jobs,
            FleetEngine::Batched,
            &ResilienceConfig::default(),
        )?;
        Ok(self.check(&out.report, out.accounting.cells_retried as u64))
    }

    /// One traced pass: the same public calls, in the same order, as
    /// `run_fleet_resilient` on the batched engine, each inside its span.
    pub fn run_traced(&self) -> DvsResult<(Pass, Probe, f64)> {
        let start = Instant::now();
        let spec = &self.spec;
        let n = self.shards;
        let (keys, _fingerprint) = span(Kind::Prepare, 0, || {
            spec.validate().map_err(dvs_sim::DvsError::InvalidConfig)?;
            let keys: Vec<String> = (0..n)
                .map(|s| {
                    let r = spec.shard_range(s, n);
                    format!("{} shard {s} [{}, {})", spec.name, r.start, r.end)
                })
                .collect();
            let fp = fleet_fingerprint(spec, n, FleetEngine::Batched, &ResilienceConfig::default());
            DvsResult::Ok((keys, fp))
        })?;

        let slots = Mutex::new(vec![None::<CellSlot>; n]);
        let events = Mutex::new(0u64);
        let mut threads = for_each_unit(n, self.jobs, |arena, i| {
            if slots.lock().expect("slot map poisoned")[i].is_some() {
                return;
            }
            let slot = attempt(i, &keys[i], arena, |_| {
                let (sketch, ev) = shard(spec, i, n);
                *events.lock().expect("event count poisoned") += ev;
                span(Kind::Merge, i as u64, || serde_json::to_string(&sketch).ok())
            });
            slots.lock().expect("slot map poisoned")[i] = Some(slot);
        });

        let slots = slots.into_inner().expect("slot map poisoned");
        let mut retried = 0;
        let report = span(Kind::Assemble, 0, || {
            let mut sketch = FleetSketch::new();
            let mut quarantine = QuarantineReport::new();
            for (i, slot) in slots.iter().enumerate() {
                let slot = slot.as_ref().expect("every shard ran");
                retried += u64::from(slot.attempts > 1);
                let merged = slot.ok.as_deref().and_then(|json| {
                    span(Kind::Merge, i as u64, || {
                        let shard: FleetSketch = serde_json::from_str(json).ok()?;
                        sketch.try_merge(&shard).ok()
                    })
                });
                if merged.is_none() {
                    quarantine.entries.push(QuarantineEntry {
                        cell_index: i,
                        key: keys[i].clone(),
                        attempts: slot.attempts,
                        cause: slot.quarantined.as_ref().map_or_else(
                            || "shard sketch failed to merge".to_string(),
                            |q| q.cause.clone(),
                        ),
                    });
                }
            }
            FleetReport {
                label: spec.name.clone(),
                devices: spec.devices,
                frames_per_device: spec.frames,
                sketch,
                quarantine,
            }
        });
        threads.push(take_thread());
        let wall = start.elapsed().as_secs_f64();
        let probe = Probe {
            events: events.into_inner().expect("event count poisoned"),
            threads,
            ..Probe::default()
        };
        Ok((self.check(&report, retried), probe, wall))
    }
}

/// One shard as `run_fleet_shard` runs it on the batched engine: sample each
/// device, bucket by (rate, buffers), and flush full buckets at once and the
/// rest in key order. Returns the shard sketch and the events dispatched.
fn shard(spec: &FleetSpec, shard: usize, shards: usize) -> (FleetSketch, u64) {
    let mut sketch = FleetSketch::new();
    let mut events = 0;
    let mut lanes: Vec<BatchLane<Timed<DvsyncPacer>>> = Vec::new();
    let mut buckets: BTreeMap<(u32, usize), Vec<(u64, DeviceRun)>> = BTreeMap::new();
    for i in spec.shard_range(shard, shards) {
        let Some(dev) = span(Kind::Sample, i, || spec.device(i)) else { continue };
        let bucket = buckets.entry((dev.rate_hz, dev.buffers)).or_default();
        bucket.push((i, dev));
        if bucket.len() == BATCH_WIDTH {
            let full = std::mem::take(bucket);
            events += flush(spec, &full, &mut lanes, &mut sketch);
        }
    }
    for bucket in buckets.values() {
        if !bucket.is_empty() {
            events += flush(spec, bucket, &mut lanes, &mut sketch);
        }
    }
    (sketch, events)
}

/// One homogeneous bucket through `run_batch`, then each lane folded into
/// the sketch. Faulted devices also pay a side pass that materializes and
/// compiles their plan outside the kernel, so `faults.materialize` can be
/// timed; the kernel repeats that work internally.
fn flush(
    spec: &FleetSpec,
    bucket: &[(u64, DeviceRun)],
    lanes: &mut Vec<BatchLane<Timed<DvsyncPacer>>>,
    sketch: &mut FleetSketch,
) -> u64 {
    let Some((first_index, first)) = bucket.first() else { return 0 };
    let cfg = PipelineConfig::new(first.rate_hz, first.buffers);
    for (j, (index, dev)) in bucket.iter().enumerate() {
        let trace = span(Kind::Generate, *index, || dev.trace());
        let plan = span(Kind::Plan, *index, || {
            if dev.is_clean() {
                None
            } else {
                named_profile(dev.fault_profile, dev.fault_seed_key(&spec.name))
            }
        });
        if let Some(plan) = &plan {
            span(Kind::Materialize, *index, || {
                let frames = trace.len() as u64;
                let ticks = cfg.tick_cap(trace.len());
                let horizon = Horizon::new(frames, ticks, cfg.rate().period());
                std::hint::black_box(plan.materialize(&horizon).compile(ticks, frames));
            });
        }
        let pacer =
            Timed::new(DvsyncPacer::new(DvsyncConfig::with_buffers(dev.buffers)), Kind::CorePlan);
        if j < lanes.len() {
            lanes[j].reload(trace, plan, pacer);
        } else {
            lanes.push(BatchLane::new(trace, plan, pacer));
        }
    }
    let stats = span(Kind::Simulate, *first_index, || run_batch(&cfg, &mut lanes[..bucket.len()]))
        .expect("generated fleet traces always validate");
    for (lane, (index, _)) in lanes.iter().zip(bucket) {
        span(Kind::Fold, *index, || observe_device(sketch, &lane.out));
    }
    stats.events_processed
}

/// The fleet runner's per-device fold: FDPS, mean latency and §6.4 energy.
fn observe_device(sketch: &mut FleetSketch, report: &RunReport) {
    let energy_uj = PowerModel::default().energy(report, report.records.len() as u64, 0).total_uj();
    sketch.observe_device(report.fdps(), report.mean_latency_ms(), energy_uj / 1000.0);
}
