//! Integration tests for the degradation watchdog: under injected sustained
//! overload the D-VSync pacer degrades to classic VSync pacing and re-engages
//! decoupling once the pipeline recovers — all visible in the run report's
//! transition log, and byte-identically replayable.

use dvs_core::{DvsyncConfig, DvsyncPacer, WatchdogConfig};
use dvs_faults::{named_profile, FaultEvent, FaultPlan};
use dvs_metrics::{PacerMode, RunReport};
use dvs_pipeline::{PipelineConfig, Simulator};
use dvs_sim::SimDuration;
use dvs_workload::{FrameCost, FrameTrace};

fn ms(v: f64) -> SimDuration {
    SimDuration::from_millis_f64(v)
}

fn light_trace(frames: usize) -> FrameTrace {
    let mut t = FrameTrace::new("degradation", 60);
    for _ in 0..frames {
        t.push(FrameCost::new(ms(2.0), ms(5.0)));
    }
    t
}

/// A burst of render-stage stalls long enough to drain the pre-render lead
/// and jank repeatedly, followed by a long clean tail.
fn overload_burst_plan() -> FaultPlan {
    let mut plan = FaultPlan::new("degradation/overload-burst");
    for frame in 40..56 {
        plan = plan.with_event(FaultEvent::StallRs { frame, extra: ms(24.0) });
    }
    plan
}

fn run_watched(trace: &FrameTrace, plan: &FaultPlan) -> RunReport {
    let cfg = PipelineConfig::new(60, 5);
    let mut pacer =
        DvsyncPacer::new(DvsyncConfig::with_buffers(5)).with_watchdog(WatchdogConfig::default());
    Simulator::new(&cfg).with_faults(Some(plan)).run(trace, &mut pacer)
}

#[test]
fn sustained_overload_degrades_then_reengages() {
    let trace = light_trace(240);
    let report = run_watched(&trace, &overload_burst_plan());

    assert!(
        !report.mode_transitions.is_empty(),
        "sustained overload must trip the watchdog; janks: {}",
        report.janks.len()
    );
    assert_eq!(
        report.mode_transitions[0].mode,
        PacerMode::Classic,
        "the first transition is a degradation"
    );
    assert!(report.degradations() >= 1);
    assert!(
        report.recoveries() >= 1,
        "the clean tail must re-engage decoupling; transitions: {:?}",
        report.mode_transitions
    );
    // Degradations and recoveries alternate, starting with a degradation.
    for (i, t) in report.mode_transitions.iter().enumerate() {
        let expected = if i % 2 == 0 { PacerMode::Classic } else { PacerMode::Decoupled };
        assert_eq!(t.mode, expected, "transition {i} out of order: {t:?}");
    }
    // Recovery happens within the configured hysteresis after the last miss,
    // not at the end of the run: the re-engage transition must leave plenty
    // of decoupled frames behind it.
    let reengage = report
        .mode_transitions
        .iter()
        .find(|t| t.mode == PacerMode::Decoupled)
        .expect("checked above");
    assert!(reengage.frame_index < 200, "re-engaged too late (frame {})", reengage.frame_index);
    // Every frame still presents exactly once.
    assert_eq!(report.records.len(), trace.len());
    assert!(!report.truncated);
}

#[test]
fn clean_runs_never_transition() {
    let trace = light_trace(150);
    let report = run_watched(&trace, &FaultPlan::new("degradation/clean"));
    assert!(report.mode_transitions.is_empty(), "{:?}", report.mode_transitions);
    assert_eq!(report.janks.len(), 0);
}

#[test]
fn watched_faulted_runs_replay_byte_identically() {
    let trace = light_trace(200);
    let plan = named_profile("mixed", "degradation/replay").expect("known profile");
    let a = serde_json::to_string(&run_watched(&trace, &plan)).unwrap();
    let b = serde_json::to_string(&run_watched(&trace, &plan)).unwrap();
    assert_eq!(a, b, "identical seed + plan must replay byte-identically");
}

#[test]
fn watchdog_is_opt_in() {
    // Without a watchdog the same overload run stays decoupled throughout
    // and logs no transitions.
    let trace = light_trace(240);
    let cfg = PipelineConfig::new(60, 5);
    let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(5));
    let plan = overload_burst_plan();
    let report = Simulator::new(&cfg).with_faults(Some(&plan)).run(&trace, &mut pacer);
    assert!(report.mode_transitions.is_empty());
    assert_eq!(pacer.mode(), PacerMode::Decoupled);
}
