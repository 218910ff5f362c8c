//! Differential equivalence: the event-heap engine vs the reference
//! tick-stepper.
//!
//! `dvs-pipeline` ships two execution engines behind one state machine: the
//! production event heap (pop-next-event, pre-sized buffers, compiled fault
//! tables) and the retained quantum-polling tick-stepper. This suite holds
//! them **byte-identical** — serialized `RunReport` equality, which covers
//! every frame record, jank, fault firing, and `ModeTransition` — across:
//!
//! * all 75 OS use cases (suite75), clean and fault-injected;
//! * the D-VSync pacer with the degradation watchdog engaged (mode
//!   transitions must replay identically);
//! * proptest-generated arbitrary fault plans × buffer capacities;
//! * the sweep engine at `--jobs 1` vs `--jobs N`.
//!
//! Because the engines also read faults through different views (ordered-map
//! probes vs compiled dense tables), equality here cross-checks the fault
//! compilation too.
//!
//! Both engines share the one pass that assembles and classifies frame
//! records, so byte equality cannot catch a fault there. Every report this
//! wall compares, and each surface of a contended composite run, is also
//! held to the classification rule applied on its own: records sorted
//! stably by present tick, a jank scan, then the 2.2-period threshold.
//! Every report it compares is also run again through the fold that skips
//! the records (`Simulator::try_tally_into`), on the same engine, and the
//! folded totals must equal the report's own, bit for bit.
//!
//! The same wall holds baseline calibration, which reuses segment results
//! across the rates of one search, bit-identical to a search that measures
//! every rate with a full segmented run, and whose handed-over trace and
//! baseline totals equal a fresh generation and a fresh run.

use proptest::prelude::*;

use dvs_bench::suite75;
use dvs_bench::sweep::SweepEngine;
use dvs_core::{DvsyncConfig, DvsyncPacer, WatchdogConfig};
use dvs_faults::{FaultEvent, FaultPlan, StochasticFault, StochasticKind};
use dvs_metrics::{FrameKind, RunReport, RunTotals};
use dvs_pipeline::{
    calibrate_spec_pooled, run_segmented, CompositeSim, FramePacer, PipelineConfig, RunArena,
    SimCore, Simulator, SurfaceRun, VsyncPacer,
};
use dvs_sim::{stable_seed, SimDuration};
use dvs_workload::{scenarios, CostProfile, FrameCost, FrameTrace, ScenarioSpec};

/// Recomputes every record's kind by the two-pass rule and requires the
/// report's kinds to match: sort the records stably by present tick; a
/// record that passes a jank on its way (one before its present tick) was
/// dropped; else one whose latency exceeds 2.2 panel periods was stuffed;
/// else it was direct. Also requires the records in present order, which
/// the simulator's one-pass assembly relies on. `panel` is the
/// configuration the panel timeline was built from.
fn assert_kinds_follow_the_two_pass_rule(name: &str, report: &RunReport, panel: &PipelineConfig) {
    assert!(
        report.records.is_sorted_by_key(|r| r.present_tick),
        "{name}: records are out of present order"
    );
    let mut sorted = report.records.clone();
    sorted.sort_by_key(|r| r.present_tick);
    let threshold = panel.build_timeline().period_at(0).mul_f64(2.2);
    let mut janks = report.janks.iter().peekable();
    for (got, r) in report.records.iter().zip(&sorted) {
        let mut dropped = false;
        while janks.next_if(|j| j.tick < r.present_tick).is_some() {
            dropped = true;
        }
        let want = if dropped {
            FrameKind::Dropped
        } else if r.latency() > threshold {
            FrameKind::Stuffed
        } else {
            FrameKind::Direct
        };
        assert_eq!((got.seq, got.kind), (r.seq, want), "{name}: frame {} misclassified", r.seq);
    }
}

/// Totals with their f64 sums as bits, so equality is bit for bit.
fn totals_bits(t: &RunTotals) -> (usize, SimDuration, u64, usize, u64, u64) {
    let (latency, work) = (t.latency_ms_sum.to_bits(), t.work_ms_sum.to_bits());
    (t.janks, t.display_time, t.ticks_active, t.records, latency, work)
}

/// A fresh VSync pacer, boxed as the walls' pacer factories return them.
fn vsync_pacer() -> Box<dyn FramePacer> {
    Box::new(VsyncPacer::new())
}

/// Runs one trace on the given engine, checks its frame kinds, folds the
/// same run into totals and checks them against the report's, and
/// serializes the full report. `make_pacer` gives each run a fresh pacer.
fn report_json(
    trace: &FrameTrace,
    buffers: usize,
    core: SimCore,
    mut make_pacer: impl FnMut() -> Box<dyn FramePacer>,
    plan: Option<&FaultPlan>,
) -> String {
    let cfg = PipelineConfig::new(trace.rate_hz, buffers);
    let sim = Simulator::new(&cfg).with_core(core).with_faults(plan);
    let report = sim.run(trace, make_pacer().as_mut());
    let name = format!("{} on {core:?}", trace.name);
    assert_kinds_follow_the_two_pass_rule(&name, &report, &cfg);
    let mut folded = RunTotals::default();
    sim.try_tally_into(trace, make_pacer().as_mut(), &mut RunArena::new(), &mut folded)
        .expect("a trace that ran also folds");
    assert_eq!(
        totals_bits(&folded),
        totals_bits(&report.totals()),
        "{name}: the fold diverged from the report's totals"
    );
    serde_json::to_string(&report).expect("reports serialize")
}

/// Both engines on the same inputs; panics with the scenario name on the
/// first byte that differs.
fn assert_cores_agree(
    name: &str,
    trace: &FrameTrace,
    buffers: usize,
    mut make_pacer: impl FnMut() -> Box<dyn FramePacer>,
    plan: Option<&FaultPlan>,
) -> String {
    let heap = report_json(trace, buffers, SimCore::EventHeap, &mut make_pacer, plan);
    let reference = report_json(trace, buffers, SimCore::Reference, &mut make_pacer, plan);
    assert_eq!(heap, reference, "engines diverged on {name}");
    heap
}

#[test]
fn suite75_clean_runs_are_byte_identical_across_cores() {
    for spec in suite75::bench_suite() {
        let trace = spec.generate();
        assert_cores_agree(&spec.name, &trace, 3, || Box::new(VsyncPacer::new()), None);
    }
}

#[test]
fn suite75_faulted_runs_are_byte_identical_across_cores() {
    let mut nonempty = 0usize;
    for spec in suite75::bench_suite() {
        let trace = spec.generate();
        // One deterministic mixed fault plan per scenario, seeded by name.
        let plan = dvs_faults::named_profile("mixed", &spec.name).expect("mixed profile exists");
        let json =
            assert_cores_agree(&spec.name, &trace, 4, || Box::new(VsyncPacer::new()), Some(&plan));
        if json.contains("fault_events\":[{") {
            nonempty += 1;
        }
    }
    assert!(nonempty > 30, "the mixed profile should fire in most scenarios, got {nonempty}");
}

#[test]
fn dvsync_pacer_runs_are_byte_identical_across_cores() {
    // The D-VSync pacer exercises deferred plans and wake events much harder
    // than the VSync baseline; a suite slice keeps the tick-stepper fast.
    for (i, spec) in suite75::bench_suite().iter().enumerate() {
        if i % 5 != 0 {
            continue;
        }
        let trace = spec.generate();
        assert_cores_agree(
            &spec.name,
            &trace,
            5,
            || Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(5))),
            None,
        );
    }
}

#[test]
fn watchdog_mode_transitions_replay_identically_across_cores() {
    // A burst of render stalls trips the degradation watchdog, and a clean
    // tail re-engages decoupling: the transition log must be part of the
    // byte-identical surface.
    let mut trace = FrameTrace::new("watchdog-differential", 60);
    for _ in 0..240 {
        trace.push(FrameCost::new(SimDuration::from_millis(2), SimDuration::from_millis(5)));
    }
    let mut plan = FaultPlan::new("differential/overload-burst");
    for frame in 40..56 {
        plan = plan.with_event(FaultEvent::StallRs { frame, extra: SimDuration::from_millis(24) });
    }
    let make_pacer = || -> Box<dyn FramePacer> {
        Box::new(
            DvsyncPacer::new(DvsyncConfig::with_buffers(5))
                .with_watchdog(WatchdogConfig::default()),
        )
    };
    let json = assert_cores_agree("watchdog", &trace, 5, make_pacer, Some(&plan));
    assert!(
        json.contains("mode_transitions\":[{"),
        "the overload burst must produce mode transitions for this test to mean anything"
    );
}

#[test]
fn contended_composite_surfaces_follow_the_two_pass_rule() {
    // Three suite75 surfaces under three pacers, contending for one latch
    // per refresh: deferred latches add janks that no single-pipeline run
    // sees. Every surface's kinds must follow the rule on both engines.
    let traces: Vec<FrameTrace> =
        suite75::bench_suite().iter().step_by(25).take(3).map(|s| s.generate()).collect();
    let panel = PipelineConfig::new(traces[0].rate_hz, 3);
    let cfgs: Vec<PipelineConfig> =
        [3, 4, 5].map(|buffers| PipelineConfig::new(panel.rate_hz, buffers)).to_vec();
    for core in [SimCore::EventHeap, SimCore::Reference] {
        let mut pacers: Vec<Box<dyn FramePacer>> = vec![
            Box::new(VsyncPacer::new()),
            Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(4))),
            Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(5))),
        ];
        let mut surfaces: Vec<SurfaceRun> = traces
            .iter()
            .zip(&cfgs)
            .zip(&mut pacers)
            .enumerate()
            .map(|(i, ((trace, cfg), pacer))| SurfaceRun {
                cfg,
                trace,
                pacer: pacer.as_mut(),
                plan: None,
                priority: i as u8,
            })
            .collect();
        let (reports, stats) = CompositeSim::new(&panel)
            .with_core(core)
            .with_budget(1)
            .try_run(&mut surfaces, None)
            .expect("valid composite");
        assert!(stats.deferred_latches.iter().any(|&d| d > 0), "budget 1 never contended");
        for (report, trace) in reports.iter().zip(&traces) {
            let name = format!("composite surface {} on {core:?}", trace.name);
            assert_kinds_follow_the_two_pass_rule(&name, report, &panel);
        }
        for kind in [FrameKind::Direct, FrameKind::Stuffed, FrameKind::Dropped] {
            let seen = reports.iter().flat_map(|r| &r.records).any(|r| r.kind == kind);
            assert!(seen, "no {kind:?} frame on {core:?}: the rule went unexercised");
        }
    }
}

#[test]
fn sweep_differential_is_jobs_invariant() {
    // The per-cell payload is itself a cross-core comparison, so this pins
    // both properties at once: every cell agrees across engines, and the
    // sweep's output is byte-identical at any worker count.
    let traces: Vec<FrameTrace> = suite75::bench_suite().iter().map(|s| s.generate()).collect();
    let cell = |i: usize| {
        let trace = &traces[i];
        let heap = report_json(trace, 3, SimCore::EventHeap, vsync_pacer, None);
        if i.is_multiple_of(5) {
            let reference = report_json(trace, 3, SimCore::Reference, vsync_pacer, None);
            assert_eq!(heap, reference, "engines diverged inside sweep cell {i}");
        }
        heap
    };
    let sequential = SweepEngine::sequential().run(traces.len(), cell);
    let parallel = SweepEngine::new(8).run(traces.len(), cell);
    assert_eq!(sequential, parallel, "jobs=8 must reproduce jobs=1 byte-for-byte");
}

#[test]
fn pooled_arena_runs_are_byte_identical_across_cores_and_reuse() {
    // One arena reused across scenarios and engines: pooled state must never
    // leak a byte from run to run, on either engine, even under faults.
    use dvs_pipeline::RunArena;
    let mut arena = RunArena::new();
    for (i, spec) in suite75::bench_suite().iter().enumerate() {
        if i % 7 != 0 {
            continue;
        }
        let trace = spec.generate();
        let plan = dvs_faults::named_profile("mixed", &spec.name).expect("mixed profile exists");
        let mut pooled_json = Vec::new();
        for core in [SimCore::EventHeap, SimCore::Reference] {
            let cfg = PipelineConfig::new(trace.rate_hz, 4);
            let sim = Simulator::new(&cfg).with_core(core).with_faults(Some(&plan));
            let mut out = dvs_metrics::RunReport::default();
            sim.try_run_into(&trace, &mut VsyncPacer::new(), &mut arena, &mut out)
                .expect("valid trace");
            pooled_json.push(serde_json::to_string(&out).expect("reports serialize"));
        }
        let fresh = report_json(&trace, 4, SimCore::EventHeap, vsync_pacer, Some(&plan));
        assert_eq!(pooled_json[0], pooled_json[1], "pooled engines diverged on {}", spec.name);
        assert_eq!(pooled_json[0], fresh, "pooled run diverged from fresh on {}", spec.name);
    }
}

#[test]
fn segmented_report_capacity_is_stable_across_warm_runs() {
    // `reserve_for` sizes the combined report from the scenario's total
    // frame count plus expected mode transitions, so once a warm arena and
    // report have seen a scenario, re-running it must not grow any vector.
    use dvs_pipeline::{run_segments_into, RunArena};
    let spec = &suite75::bench_suite()[0];
    let segments = spec.generate_segments();
    let mut arena = RunArena::new();
    let mut out = dvs_metrics::RunReport::default();
    let mk = || Box::new(VsyncPacer::new()) as Box<dyn FramePacer>;
    run_segments_into(
        &spec.name,
        spec.rate_hz,
        &segments,
        3,
        SimCore::default(),
        mk,
        &mut arena,
        &mut out,
    );
    let frames: usize = segments.iter().map(|t| t.len()).sum();
    assert!(
        out.records.capacity() >= frames,
        "reserve_for must pre-size for the whole scenario ({} < {frames})",
        out.records.capacity()
    );
    let caps = (out.records.capacity(), out.janks.capacity(), out.mode_transitions.capacity());
    let cold = serde_json::to_string(&out).expect("reports serialize");
    run_segments_into(
        &spec.name,
        spec.rate_hz,
        &segments,
        3,
        SimCore::default(),
        mk,
        &mut arena,
        &mut out,
    );
    let warm = serde_json::to_string(&out).expect("reports serialize");
    assert_eq!(cold, warm, "a warm arena+report must replay the identical run");
    assert_eq!(
        caps,
        (out.records.capacity(), out.janks.capacity(), out.mode_transitions.capacity()),
        "warm reruns must be reallocation-free"
    );
}

/// The calibration search measuring every rate in full: the same bracket
/// and bisection as `calibrate_spec_pooled`, each rate a fresh segmented
/// VSync run. Returns the fitted rate, its FDPS, and the step count.
fn calibration_oracle(spec: &ScenarioSpec, buffers: usize) -> (f64, f64, usize) {
    let measure = |rate: f64| {
        let mut candidate = spec.clone();
        candidate.cost.long_rate_per_sec = rate;
        run_segmented(&candidate, buffers, || Box::new(VsyncPacer::new())).fdps()
    };
    let target = spec.paper_baseline_fdps;
    if target <= 0.0 {
        return (0.0, measure(0.0), 0);
    }
    let mut lo = 0.0f64;
    let mut hi = (target * 0.8).max(0.25);
    let mut iterations = 0usize;
    let mut f_hi = measure(hi);
    while f_hi < target && hi < spec.rate_hz as f64 {
        lo = hi;
        hi *= 2.0;
        f_hi = measure(hi);
        iterations += 1;
        if iterations > 16 {
            break;
        }
    }
    let (mut best_rate, mut best_fdps) = (hi, f_hi);
    for _ in 0..18 {
        iterations += 1;
        let mid = 0.5 * (lo + hi);
        let f = measure(mid);
        if (f - target).abs() < (best_fdps - target).abs() {
            (best_rate, best_fdps) = (mid, f);
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
    (best_rate, best_fdps, iterations)
}

/// The calibration wall's cases: every suite and edge spec at three seeds,
/// alternating 3 and 4 buffers between seeds, plus the long-trace suites
/// rotated one seed and buffer count per spec.
fn calibration_wall() -> Vec<(ScenarioSpec, usize)> {
    let mut specs = [
        scenarios::mate60_vulkan_suite(),
        scenarios::mate60_gles_suite(),
        scenarios::mate40_gles_suite(),
    ]
    .concat();
    specs.push(scenarios::figure1_spec(1200).with_paper_fdps(4.0));
    specs.extend([
        // A remainder segment, and a segment longer than the trace.
        ScenarioSpec::new("odd remainder", 60, 250, CostProfile::scattered(2.0))
            .with_segment_frames(60)
            .with_paper_fdps(2.0),
        ScenarioSpec::new("odd long segment", 60, 200, CostProfile::scattered(2.0))
            .with_segment_frames(500)
            .with_paper_fdps(1.5),
        ScenarioSpec::new("odd 60hz", 60, 600, CostProfile::scattered(3.0)).with_paper_fdps(3.0),
        ScenarioSpec::new("odd 90hz", 90, 450, CostProfile::scattered(2.0)).with_paper_fdps(3.0),
        ScenarioSpec::new("odd clustered", 120, 600, CostProfile::clustered(3.0))
            .with_paper_fdps(8.0),
        ScenarioSpec::new("odd zero target", 60, 300, CostProfile::scattered(5.0)),
        // Unreachable: the bracket stops at the refresh-rate cap, where
        // every rate's key-frame probability saturates.
        ScenarioSpec::new("odd rate cap", 60, 300, CostProfile::scattered(1.0))
            .with_paper_fdps(55.0),
    ]);
    // The long-trace suites (1000-frame apps, 20 s games) rotate instead,
    // one seed and buffer count per spec, to keep the debug run short.
    let long = [scenarios::android_app_suite(), scenarios::game_suite()].concat();

    let seeded = |base: &ScenarioSpec, seed: usize| {
        let mut spec = base.clone();
        spec.seed = stable_seed(&format!("calibration-differential/{seed}/{}", spec.name));
        spec
    };
    let mut cases = Vec::new();
    for seed in 0..3 {
        for (i, spec) in specs.iter().enumerate() {
            cases.push((seeded(spec, seed), 3 + (i + seed) % 2));
        }
    }
    for (j, spec) in long.iter().enumerate() {
        cases.push((seeded(spec, j % 3), 3 + j % 2));
    }
    cases
}

#[test]
fn memoized_calibration_matches_measuring_every_rate() {
    // One warm arena across every call, as a sweep worker holds it.
    let mut arena = RunArena::new();
    for (spec, buffers) in calibration_wall() {
        let (rate, fdps, iterations) = calibration_oracle(&spec, buffers);
        let out = calibrate_spec_pooled(&spec, buffers, &mut arena);
        let at = format!("{} (seed {:x}, {buffers} buffers)", spec.name, spec.seed);
        assert_eq!(
            out.spec.cost.long_rate_per_sec.to_bits(),
            rate.to_bits(),
            "fitted rate on {at}"
        );
        assert_eq!(out.baseline.fdps().to_bits(), fdps.to_bits(), "FDPS on {at}");
        assert_eq!(out.iterations, iterations, "iterations on {at}");
    }
}

/// Calibration hands over its fitted trace and its best measurement, and
/// the sweep serves both as the scenario's trace and its baseline cell. So
/// the trace must be the fitted spec's, and the measurement's totals —
/// records and ticks active included — must be a fresh segmented VSync
/// run's, bit for bit, on every case of the wall and every suite75
/// scenario (46 of which have a zero target).
#[test]
fn calibration_hands_over_its_fitted_trace_and_baseline_run() {
    let mut cases = calibration_wall();
    cases.extend(suite75::bench_suite().into_iter().map(|spec| (spec, 3)));
    let mut arena = RunArena::new();
    for (spec, buffers) in cases {
        let out = calibrate_spec_pooled(&spec, buffers, &mut arena);
        let at = format!("{} (seed {:x}, {buffers} buffers)", spec.name, spec.seed);
        assert!(out.trace == out.spec.generate(), "handed-over trace on {at}");
        let baseline = run_segmented(&out.spec, buffers, vsync_pacer).totals();
        assert_eq!(totals_bits(&out.baseline), totals_bits(&baseline), "baseline on {at}");
    }
}

/// Decodes a proptest-generated `(kind, a, b)` triple into a fault event.
/// Keeping the strategy on plain integers sidesteps any strategy-combinator
/// differences and makes failures trivially minimizable.
fn decode_event(kind: u8, a: u64, b: u64) -> FaultEvent {
    match kind % 6 {
        0 => FaultEvent::StallUi { frame: a % 64, extra: SimDuration::from_micros(b % 30_000) },
        1 => FaultEvent::StallRs { frame: a % 64, extra: SimDuration::from_micros(b % 30_000) },
        2 => FaultEvent::MissVsync { tick: a % 200 },
        3 => FaultEvent::JitterVsync { tick: a % 200, delay: SimDuration::from_micros(b % 5_000) },
        4 => FaultEvent::DenyAlloc { tick: a % 200 },
        _ => FaultEvent::RateSwitch { tick: a % 200, rate_hz: [60, 90, 120][(b % 3) as usize] },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary fault plans × buffer capacities: both engines byte-identical
    /// under the VSync baseline and under the watched D-VSync pacer.
    #[test]
    fn arbitrary_fault_plans_are_byte_identical_across_cores(
        events in prop::collection::vec((0u8..6, any::<u64>(), any::<u64>()), 0..16),
        stochastic_seed in 0u8..4,
        buffers_idx in 0usize..4,
        costs in prop::collection::vec((100u64..15_000, 100u64..25_000), 5..60,),
    ) {
        let buffers = [3usize, 4, 5, 7][buffers_idx];
        let mut trace = FrameTrace::new("chaos-differential", 60);
        for &(ui_us, rs_us) in &costs {
            trace.push(FrameCost::new(
                SimDuration::from_micros(ui_us),
                SimDuration::from_micros(rs_us),
            ));
        }
        let mut plan = FaultPlan::new(format!("differential/chaos-{stochastic_seed}"));
        for &(kind, a, b) in &events {
            plan = plan.with_event(decode_event(kind, a, b));
        }
        if stochastic_seed > 0 {
            // Layer a seeded stochastic process on top of the explicit events.
            plan = plan.with_stochastic(StochasticFault {
                kind: [StochasticKind::GpuStall, StochasticKind::VsyncMiss,
                       StochasticKind::AllocFail][(stochastic_seed - 1) as usize % 3],
                probability: 0.05 * stochastic_seed as f64,
                magnitude: SimDuration::from_millis(8),
            });
        }
        let vsync = assert_cores_agree(
            "chaos/vsync", &trace, buffers, || Box::new(VsyncPacer::new()), Some(&plan));
        let dvsync = assert_cores_agree(
            "chaos/dvsync", &trace, buffers,
            || Box::new(
                DvsyncPacer::new(DvsyncConfig::with_buffers(buffers))
                    .with_watchdog(WatchdogConfig::default()),
            ),
            Some(&plan));
        // Sanity: the comparison exercised real runs, not two empty reports.
        prop_assert!(vsync.contains("records"));
        prop_assert!(dvsync.contains("records"));
    }
}
