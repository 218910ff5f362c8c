//! Fault injection: the simulator must stay consistent under adversarial
//! pacing policies and degenerate workloads — no panics, no conservation
//! violations, graceful truncation.

use proptest::prelude::*;

use dvsync::core::WatchdogConfig;
use dvsync::faults::{
    CompiledFaults, FaultEvent, FaultPlan, Horizon, StochasticFault, StochasticKind,
};
use dvsync::pipeline::{FramePacer, FramePlan, PacerCtx, PipelineConfig, Simulator};
use dvsync::prelude::*;
use dvsync::sim::SimRng;
use dvsync::workload::{FrameCost, FrameTrace};

/// A pacer that emits legal-but-erratic plans: random deferrals, random
/// future starts, random content timestamps.
struct ChaosPacer {
    rng: SimRng,
}

impl FramePacer for ChaosPacer {
    fn plan_next(&mut self, ctx: &PacerCtx) -> Option<FramePlan> {
        match self.rng.next_below(4) {
            // Defer; the simulator re-consults on the next state change.
            0 => None,
            // Start immediately with a bizarre (but valid) content stamp.
            1 => Some(FramePlan {
                start: ctx.now,
                basis: ctx.now,
                content_timestamp: ctx.now + ctx.period * self.rng.next_below(10),
            }),
            // Start at a random point within the next two periods.
            2 => {
                let delay = dvsync::sim::SimDuration::from_nanos(
                    self.rng.next_below(2 * ctx.period.as_nanos()),
                );
                let at = ctx.now + delay;
                Some(FramePlan { start: at, basis: at, content_timestamp: at })
            }
            // Classic immediate start.
            _ => Some(FramePlan {
                start: ctx.now,
                basis: ctx.last_tick.1,
                content_timestamp: ctx.last_tick.1,
            }),
        }
    }

    fn name(&self) -> &'static str {
        "chaos"
    }
}

fn trace_of(rate: u32, costs: &[(u64, u64)]) -> FrameTrace {
    let mut t = FrameTrace::new("chaos", rate);
    for &(ui_us, rs_us) in costs {
        t.push(FrameCost::new(SimDuration::from_micros(ui_us), SimDuration::from_micros(rs_us)));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An erratic pacer cannot break conservation: every frame still
    /// presents exactly once, in order, or the run reports truncation.
    #[test]
    fn chaos_pacer_preserves_conservation(
        seed in any::<u64>(),
        costs in prop::collection::vec((100u64..15_000, 100u64..25_000), 5..80),
        buffers in 3usize..7,
    ) {
        let trace = trace_of(60, &costs);
        let cfg = PipelineConfig::new(60, buffers);
        let mut pacer = ChaosPacer { rng: SimRng::seed_from(seed) };
        let report = Simulator::new(&cfg).run(&trace, &mut pacer);
        if !report.truncated {
            prop_assert_eq!(report.records.len(), trace.len());
        }
        for (i, w) in report.records.windows(2).enumerate() {
            prop_assert_eq!(w[0].seq + 1, w[1].seq, "order broke at {}", i);
            prop_assert!(w[0].present_tick < w[1].present_tick);
        }
        for r in &report.records {
            prop_assert!(r.queued_at >= r.trigger);
            prop_assert!(r.present > r.queued_at);
        }
    }

    /// Degenerate costs — zero-length stages, entire frames of zero cost —
    /// run to completion without panicking.
    #[test]
    fn zero_cost_frames_are_fine(n in 1usize..60, buffers in 3usize..6) {
        let costs = vec![(0u64, 0u64); n];
        let trace = trace_of(60, &costs);
        let cfg = PipelineConfig::new(60, buffers);
        let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(buffers));
        let report = Simulator::new(&cfg).run(&trace, &mut pacer);
        prop_assert!(!report.truncated);
        prop_assert_eq!(report.records.len(), n);
        prop_assert_eq!(report.janks.len(), 0);
    }
}

/// Builds an arbitrary-but-valid [`FaultPlan`] from plain integers, so the
/// generator needs nothing beyond tuple/vec strategies: `sched` entries are
/// `(kind, index, magnitude ms)` scheduled events, `stoch` entries are
/// `(kind, probability %, magnitude ms)` stochastic processes.
fn build_plan(seed: u64, sched: &[(u8, u64, u64)], stoch: &[(u8, u64, u64)]) -> FaultPlan {
    let mut plan = FaultPlan::new(format!("chaos/{seed}"));
    for &(k, idx, mag) in sched {
        let extra = SimDuration::from_millis(mag);
        plan = plan.with_event(match k % 6 {
            0 => FaultEvent::StallUi { frame: idx, extra },
            1 => FaultEvent::StallRs { frame: idx, extra },
            2 => FaultEvent::MissVsync { tick: idx },
            3 => FaultEvent::JitterVsync { tick: idx, delay: extra },
            4 => FaultEvent::DenyAlloc { tick: idx },
            _ => FaultEvent::RateSwitch { tick: idx, rate_hz: [60, 90, 120][(mag % 3) as usize] },
        });
    }
    for &(k, prob, mag) in stoch {
        plan = plan.with_stochastic(StochasticFault {
            kind: match k % 5 {
                0 => StochasticKind::GpuStall,
                1 => StochasticKind::UiPause,
                2 => StochasticKind::VsyncMiss,
                3 => StochasticKind::VsyncJitter,
                _ => StochasticKind::AllocFail,
            },
            probability: prob as f64 / 100.0,
            magnitude: SimDuration::from_millis(mag),
        });
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any generated fault plan — scheduled bursts, stochastic processes,
    /// even always-firing ones — yields a run that completes without
    /// panicking and conserves frames: every frame presents exactly once,
    /// in order, unless the run honestly reports truncation.
    #[test]
    fn any_fault_plan_runs_without_panicking(
        seed in any::<u64>(),
        costs in prop::collection::vec((100u64..12_000, 100u64..22_000), 10..90),
        sched in prop::collection::vec((0u8..6, 0u64..120, 0u64..40), 0..12),
        stoch in prop::collection::vec((0u8..5, 0u64..=100, 0u64..25), 0..4),
        buffers in 3usize..7,
    ) {
        let plan = build_plan(seed, &sched, &stoch);
        let trace = trace_of(60, &costs);
        let cfg = PipelineConfig::new(60, buffers);
        let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(buffers))
            .with_watchdog(WatchdogConfig::default());
        let report = Simulator::new(&cfg).with_faults(Some(&plan)).run(&trace, &mut pacer);
        if !report.truncated {
            prop_assert_eq!(report.records.len(), trace.len(), "frames lost or duplicated");
        }
        for w in report.records.windows(2) {
            prop_assert_eq!(w[0].seq + 1, w[1].seq);
            prop_assert!(w[0].present_tick < w[1].present_tick);
        }
        // Degradations and recoveries alternate, starting with a degradation.
        for (i, t) in report.mode_transitions.iter().enumerate() {
            let classic = t.mode == dvsync::metrics::PacerMode::Classic;
            prop_assert_eq!(classic, i % 2 == 0, "transition log out of order");
        }
    }

    /// Identical seed and plan replay byte-identically — fault events, mode
    /// transitions, every record.
    #[test]
    fn faulted_runs_replay_byte_identically(
        seed in any::<u64>(),
        costs in prop::collection::vec((100u64..12_000, 100u64..22_000), 10..50),
        sched in prop::collection::vec((0u8..6, 0u64..80, 0u64..30), 0..8),
        stoch in prop::collection::vec((0u8..5, 0u64..60, 0u64..20), 0..3),
    ) {
        let plan = build_plan(seed, &sched, &stoch);
        let trace = trace_of(60, &costs);
        let run = || {
            let cfg = PipelineConfig::new(60, 5);
            let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(5))
                .with_watchdog(WatchdogConfig::default());
            let report = Simulator::new(&cfg).with_faults(Some(&plan)).run(&trace, &mut pacer);
            serde_json::to_string(&report).expect("reports serialize")
        };
        prop_assert_eq!(run(), run(), "replay diverged");
    }

    /// Fault tables drawn on demand answer every query exactly as the
    /// materialized schedule does — scheduled events stacked on stochastic
    /// processes, rate switches, far-future events — at every paper rate,
    /// with ticks asked in run order up to and past the horizon.
    #[test]
    fn on_demand_faults_answer_like_the_materialized_schedule(
        seed in any::<u64>(),
        sched in prop::collection::vec((0u8..6, 0u64..1_500, 0u64..40), 0..16),
        stoch in prop::collection::vec((0u8..5, 0u64..=100, 0u64..25), 0..5),
        frames in 1u64..120,
        rate in 0usize..3,
    ) {
        let plan = build_plan(seed, &sched, &stoch);
        let rate_hz = [60u64, 90, 120][rate];
        let period = dvsync::sim::SimDuration::from_nanos(1_000_000_000 / rate_hz);
        let horizon = Horizon::new(frames, 20 * frames + 200, period);
        let schedule = plan.materialize(&horizon);
        let mut faults = CompiledFaults::from_plan(&plan, &horizon);
        for tick in 0..=horizon.ticks + 2 {
            prop_assert_eq!(faults.is_missed(tick), schedule.is_missed(tick), "miss @{}", tick);
            prop_assert_eq!(faults.tick_delay(tick), schedule.tick_delay(tick), "delay @{}", tick);
            prop_assert_eq!(faults.deny_alloc(tick), schedule.deny_alloc(tick), "deny @{}", tick);
        }
        for frame in 0..frames + 2 {
            prop_assert_eq!(faults.ui_extra(frame), schedule.ui_extra(frame), "ui @{}", frame);
            prop_assert_eq!(faults.rs_extra(frame), schedule.rs_extra(frame), "rs @{}", frame);
        }
        let switches = schedule.rate_switches();
        prop_assert_eq!(faults.rate_switches(), switches.as_slice());
    }
}

/// Fault sweeps through the parallel engine are byte-identical to the
/// sequential reference path: the fault stream is keyed by (scenario,
/// profile) only, never by worker or scheduling state.
#[test]
fn fault_sweeps_are_jobs_invariant() {
    use dvs_bench::SweepEngine;
    use dvsync::faults::named_profile;

    let profiles = dvsync::faults::profile_names();
    let sweep = |jobs: usize| {
        let engine = SweepEngine::new(jobs);
        let reports = engine.run(profiles.len(), |i| {
            let trace = trace_of(60, &[(2_000, 6_000); 90]);
            let plan = named_profile(profiles[i], format!("chaos-sweep/{}", profiles[i]))
                .expect("named profile");
            let cfg = PipelineConfig::new(60, 5);
            let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(5))
                .with_watchdog(WatchdogConfig::default());
            Simulator::new(&cfg).with_faults(Some(&plan)).run(&trace, &mut pacer)
        });
        serde_json::to_string(&reports).expect("reports serialize")
    };
    assert_eq!(sweep(1), sweep(4), "parallel fault sweep diverged from sequential");
}

/// The cells a run killed after `crash_at` completions leaves on disk at
/// checkpoint cadence `cadence`: the last cadence point at or before the
/// kill. The kill waits for the checkpoint writer, so that snapshot, the
/// newest offered, is the one written — never an older one.
fn persisted_at_kill(crash_at: usize, cadence: usize) -> usize {
    crash_at / cadence * cadence
}

/// Chaos for the resilient executor: kill the sweep at seeded-random cell
/// boundaries, resume from the checkpoint, and require the final report to
/// be byte-identical to the uninterrupted run — across `--jobs {1,4}` on
/// the resumed leg and checkpoint cadences 1, 2 and 3. This is the
/// acceptance criterion of docs/resilience.md exercised as a randomized
/// matrix.
#[test]
fn killed_sweeps_resume_byte_identically() {
    use dvs_bench::{
        run_suite_resilient, tiny_suite, CheckpointConfig, ExecFaults, ResilienceConfig, SweepMode,
    };

    let specs = tiny_suite();
    let ladder = [4usize, 5];
    let dir = std::env::temp_dir().join("dvsync_chaos_resume");
    let _ = std::fs::create_dir_all(&dir);
    let mut rng = SimRng::seed_from(0xC4A0_5EED);
    let run = |jobs: usize, cfg: &ResilienceConfig| {
        run_suite_resilient("chaos", &specs, 3, &ladder, jobs, SweepMode::Aggregate, None, cfg)
    };

    let clean = run(1, &ResilienceConfig::default()).expect("uninterrupted run succeeds");
    let clean = clean.report.to_json();
    for trial in 0..8u64 {
        // 6 cells in the tiny grid; kill after 1..=5 completions so the
        // resumed leg always has fresh work to do, and restored work at
        // every cadence point the kill passed.
        let crash_at = 1 + rng.next_below(5) as usize;
        let jobs = [1usize, 4][rng.next_below(2) as usize];
        for cadence in 1..=3 {
            let path = dir.join(format!("ck_{trial}_{cadence}"));
            let _ = std::fs::remove_file(&path);
            let ck = |resume: bool, faults: ExecFaults| ResilienceConfig {
                checkpoint: Some(CheckpointConfig {
                    path: path.to_string_lossy().into_owned(),
                    cadence,
                    resume,
                }),
                faults,
                ..ResilienceConfig::default()
            };

            let crash = ExecFaults { crash_at_cell: Some(crash_at), ..ExecFaults::default() };
            match run(jobs, &ck(false, crash)) {
                Err(dvsync::sim::DvsError::SweepInterrupted { completed, total }) => {
                    assert_eq!(completed, crash_at);
                    assert_eq!(total, 6);
                }
                other => panic!("expected an interrupted sweep, got {other:?}"),
            }

            let resumed =
                run(jobs, &ck(true, ExecFaults::default())).expect("resumed run completes");
            assert_eq!(
                resumed.accounting.cells_resumed,
                persisted_at_kill(crash_at, cadence),
                "checkpoint missed its last snapshot (killed at {crash_at}, cadence {cadence})"
            );
            assert_eq!(
                resumed.report.to_json(),
                clean,
                "resume diverged (killed at {crash_at}, cadence {cadence}, jobs {jobs})"
            );
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// The same kill/resume chaos for the fleet layer: crash a fleet run at
/// seeded-random shard boundaries, resume from the checkpoint, and require
/// the sketch-reduced population report to be byte-identical to the
/// uninterrupted run — across both engines, `--jobs {1,4}` on the resumed
/// leg and checkpoint cadences 1, 2 and 3. Resumed shards are *not*
/// re-simulated (their sketches come back from the checkpoint), so this
/// also pins the sketch serialization round-trip.
#[test]
fn killed_fleet_runs_resume_byte_identically() {
    use dvs_bench::{
        run_fleet_resilient, CheckpointConfig, ExecFaults, FleetEngine, ResilienceConfig,
    };
    use dvsync::workload::FleetSpec;

    let spec = FleetSpec::tiny(60, 12);
    let shards = 6;
    let dir = std::env::temp_dir().join("dvsync_chaos_fleet_resume");
    let _ = std::fs::create_dir_all(&dir);
    let mut rng = SimRng::seed_from(0xF1EE_7C4A);

    for engine in [FleetEngine::Batched, FleetEngine::PerDevice] {
        let clean = run_fleet_resilient(&spec, shards, 1, engine, &ResilienceConfig::default())
            .expect("uninterrupted fleet run succeeds")
            .report
            .to_json()
            .expect("fleet reports serialize");

        for trial in 0..4u64 {
            // Kill after 1..=5 of the 6 shards so the resumed leg always has
            // fresh work to do, and restored work at every cadence point
            // the kill passed.
            let crash_at = 1 + rng.next_below(5) as usize;
            let jobs = [1usize, 4][rng.next_below(2) as usize];
            for cadence in 1..=3 {
                let path = dir.join(format!("ck_{engine:?}_{trial}_{cadence}"));
                let _ = std::fs::remove_file(&path);
                let ck = |resume: bool, faults: ExecFaults| ResilienceConfig {
                    checkpoint: Some(CheckpointConfig {
                        path: path.to_string_lossy().into_owned(),
                        cadence,
                        resume,
                    }),
                    faults,
                    ..ResilienceConfig::default()
                };

                let crash = ExecFaults { crash_at_cell: Some(crash_at), ..ExecFaults::default() };
                match run_fleet_resilient(&spec, shards, jobs, engine, &ck(false, crash)) {
                    Err(dvsync::sim::DvsError::SweepInterrupted { completed, total }) => {
                        assert_eq!(completed, crash_at);
                        assert_eq!(total, shards);
                    }
                    other => panic!("expected an interrupted fleet run, got {other:?}"),
                }

                let resumed = run_fleet_resilient(
                    &spec,
                    shards,
                    jobs,
                    engine,
                    &ck(true, ExecFaults::default()),
                )
                .expect("resumed fleet run completes");
                assert_eq!(
                    resumed.accounting.cells_resumed,
                    persisted_at_kill(crash_at, cadence),
                    "checkpoint missed its last snapshot \
                     (engine {engine:?}, killed at {crash_at}, cadence {cadence})"
                );
                assert_eq!(
                    resumed.report.to_json().expect("fleet reports serialize"),
                    clean,
                    "fleet resume diverged \
                     (engine {engine:?}, killed at {crash_at}, cadence {cadence}, jobs {jobs})"
                );
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

/// A frame an order of magnitude longer than the whole animation: the run
/// truncates via the tick cap instead of hanging. (Everything else being
/// short, the cap is generous; the monster frame still fits — what matters
/// is completion.)
#[test]
fn monster_frame_completes_or_truncates() {
    let mut costs = vec![(500u64, 1_000u64); 30];
    costs[15] = (1_000, 3_000_000); // a 3-second render stage
    let trace = trace_of(60, &costs);
    let cfg = PipelineConfig::new(60, 4);
    let report = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
    // 3 s ≈ 180 missed refreshes: either it finished (with many janks) or
    // the safety cap kicked in; both are acceptable, hanging is not.
    if !report.truncated {
        assert_eq!(report.records.len(), 30);
        assert!(report.janks.len() > 100);
    }
}

/// A pacer that refuses to ever start only stalls its own run: the
/// simulator ends via the tick cap with a truncation flag.
#[test]
fn refusing_pacer_truncates_cleanly() {
    struct Never;
    impl FramePacer for Never {
        fn plan_next(&mut self, _ctx: &PacerCtx) -> Option<FramePlan> {
            None
        }
        fn name(&self) -> &'static str {
            "never"
        }
    }
    let trace = trace_of(60, &[(1_000, 2_000); 10]);
    let cfg = PipelineConfig { max_ticks: Some(50), ..PipelineConfig::new(60, 3) };
    let report = Simulator::new(&cfg).run(&trace, &mut Never);
    assert!(report.truncated);
    assert!(report.records.is_empty());
}

/// Plans in the distant future behave like deferral plus wake-up, not like
/// corruption. (The pacer contract: a future `start` schedules a wake-up at
/// which the pacer is consulted again, so it must eventually say "now".)
#[test]
fn far_future_plans_only_delay() {
    struct Sluggish {
        deadline: Option<dvsync::sim::SimTime>,
    }
    impl FramePacer for Sluggish {
        fn plan_next(&mut self, ctx: &PacerCtx) -> Option<FramePlan> {
            let deadline = *self.deadline.get_or_insert(ctx.now + ctx.period * 3);
            if ctx.now >= deadline {
                self.deadline = None;
                Some(FramePlan { start: ctx.now, basis: ctx.now, content_timestamp: ctx.now })
            } else {
                Some(FramePlan { start: deadline, basis: deadline, content_timestamp: deadline })
            }
        }
        fn name(&self) -> &'static str {
            "sluggish"
        }
    }
    let trace = trace_of(60, &[(1_000, 2_000); 12]);
    let cfg = PipelineConfig::new(60, 4);
    let report = Simulator::new(&cfg).run(&trace, &mut Sluggish { deadline: None });
    assert!(!report.truncated);
    assert_eq!(report.records.len(), 12);
    // One frame roughly every 3-4 periods: plenty of janks, but consistent.
    assert!(report.janks.len() > 12);
}
