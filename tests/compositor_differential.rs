//! Compositor differential equivalence: the M-surface composite runner
//! against the single-pipeline simulator, and against itself across engines.
//!
//! The composite state machine (`dvs-pipeline`'s `core::compose`) is a
//! generalization of the single-pipeline state machine, so its ground truth
//! is the machine it generalizes:
//!
//! * an **M=1** composite run — same config, same pacer, same fault plan
//!   passed at both the surface and the panel level — must be
//!   **byte-identical** (serialized `RunReport` equality) to
//!   [`Simulator`](dvs_pipeline::Simulator) on both execution engines,
//!   across all 75 OS use cases, clean and fault-injected;
//! * **M>1** runs must be byte-identical between the event-heap engine and
//!   the polling reference, with and without budget contention;
//! * the high-level [`Compositor`](dvs_compositor::Compositor) must agree
//!   with the raw [`CompositeSim`](dvs_pipeline::CompositeSim) path it wraps.

use dvs_bench::suite75;
use dvs_compositor::{Compositor, Surface};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_faults::FaultPlan;
use dvs_pipeline::{
    CompositeSim, FramePacer, PipelineConfig, SimCore, Simulator, SurfaceRun, VsyncPacer,
};
use dvs_workload::{FrameTrace, PacingPath};

/// The single-pipeline report, serialized.
fn single_json(
    trace: &FrameTrace,
    buffers: usize,
    core: SimCore,
    pacer: &mut dyn FramePacer,
    plan: Option<&FaultPlan>,
) -> String {
    let cfg = PipelineConfig::new(trace.rate_hz, buffers);
    let report = Simulator::new(&cfg).with_core(core).with_faults(plan).run(trace, pacer);
    serde_json::to_string(&report).expect("reports serialize")
}

/// The same inputs through an M=1 composite, serialized. The fault plan
/// goes in at **both** levels: the surface owns stage stalls and per-surface
/// VSync records, the panel owns the tick grid — together they reproduce
/// single-pipeline fault semantics exactly.
fn composite_m1_json(
    trace: &FrameTrace,
    buffers: usize,
    core: SimCore,
    pacer: &mut dyn FramePacer,
    plan: Option<&FaultPlan>,
) -> String {
    let cfg = PipelineConfig::new(trace.rate_hz, buffers);
    let mut surfaces = [SurfaceRun { cfg: &cfg, trace, pacer, plan, priority: 0 }];
    let (reports, _) = CompositeSim::new(&cfg)
        .with_core(core)
        .try_run(&mut surfaces, plan)
        .expect("valid M=1 composite");
    serde_json::to_string(&reports[0]).expect("reports serialize")
}

fn assert_m1_matches_single(
    name: &str,
    trace: &FrameTrace,
    buffers: usize,
    mut make_pacer: impl FnMut() -> Box<dyn FramePacer>,
    plan: Option<&FaultPlan>,
) {
    for core in [SimCore::EventHeap, SimCore::Reference] {
        let single = single_json(trace, buffers, core, make_pacer().as_mut(), plan);
        let composite = composite_m1_json(trace, buffers, core, make_pacer().as_mut(), plan);
        assert_eq!(single, composite, "M=1 composite diverged from Simulator on {name} ({core:?})");
    }
}

#[test]
fn m1_composite_matches_simulator_on_suite75_clean() {
    for spec in suite75::bench_suite() {
        let trace = spec.generate();
        assert_m1_matches_single(&spec.name, &trace, 3, || Box::new(VsyncPacer::new()), None);
    }
}

#[test]
fn m1_composite_matches_simulator_on_suite75_faulted() {
    for spec in suite75::bench_suite() {
        let trace = spec.generate();
        let plan = dvs_faults::named_profile("mixed", &spec.name).expect("mixed profile exists");
        assert_m1_matches_single(
            &spec.name,
            &trace,
            4,
            || Box::new(VsyncPacer::new()),
            Some(&plan),
        );
    }
}

#[test]
fn m1_composite_matches_simulator_with_dvsync_pacer() {
    // The decoupled pacer stresses wake events and deferred plans; a suite
    // slice keeps the polling reference fast.
    for (i, spec) in suite75::bench_suite().iter().enumerate() {
        if i % 5 != 0 {
            continue;
        }
        let trace = spec.generate();
        assert_m1_matches_single(
            &spec.name,
            &trace,
            5,
            || Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(5))),
            None,
        );
    }
}

#[test]
fn multi_surface_runs_are_byte_identical_across_cores() {
    let specs = suite75::bench_suite();
    // Three surfaces from distinct scenarios, mixed policies, contending
    // under budget 1 and relaxed under budget 2.
    let traces: Vec<FrameTrace> = specs.iter().step_by(25).take(3).map(|s| s.generate()).collect();
    assert_eq!(traces.len(), 3);
    let rate = traces[0].rate_hz;
    for budget in [1usize, 2] {
        let run = |core: SimCore| {
            let mut comp = Compositor::new(rate).with_core(core).with_budget(budget);
            for (i, (t, path)) in traces
                .iter()
                .zip([PacingPath::Dvsync, PacingPath::Classic, PacingPath::LowLatency])
                .enumerate()
            {
                // The bench suite is all 120 Hz, so every surface already
                // matches the shared panel rate; names stay unique because
                // the suite scenarios are distinct.
                comp = comp
                    .with_surface(Surface::new(t.clone(), path, i as u8))
                    .expect("unique names");
            }
            serde_json::to_string(&comp.run().expect("valid fleet")).unwrap()
        };
        assert_eq!(
            run(SimCore::EventHeap),
            run(SimCore::Reference),
            "engines diverged on the mixed fleet at budget {budget}"
        );
    }
}

#[test]
fn compositor_wrapper_agrees_with_raw_composite_sim() {
    // One surface through the high-level Compositor and through the raw
    // pipeline API with the same parameters: identical report bytes.
    let spec = &suite75::bench_suite()[7];
    let trace = spec.generate();
    let wrapped = Compositor::new(trace.rate_hz)
        .with_surface(Surface::new(trace.clone(), PacingPath::Classic, 0))
        .unwrap()
        .run()
        .unwrap();
    let cfg = PipelineConfig::new(trace.rate_hz, 3);
    let mut pacer = VsyncPacer::new();
    let mut surfaces =
        [SurfaceRun { cfg: &cfg, trace: &trace, pacer: &mut pacer, plan: None, priority: 0 }];
    let panel = {
        let mut p = PipelineConfig::new(trace.rate_hz, 3);
        p.max_ticks = None;
        p
    };
    let (raw, _) = CompositeSim::new(&panel).try_run(&mut surfaces, None).unwrap();
    assert_eq!(
        serde_json::to_string(&wrapped.surfaces[0].report).unwrap(),
        serde_json::to_string(&raw[0]).unwrap()
    );
}
