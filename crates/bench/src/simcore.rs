//! Simulator-core throughput: event-heap engine vs the reference
//! tick-stepper over the suite75 workload.
//!
//! The tentpole claim this measures: replacing quantum-polling dispatch with
//! pop-next-event stepping (plus pre-sized buffers and compiled fault
//! tables) makes the steady-state simulation loop ≥ 5× faster. Both engines
//! produce byte-identical reports — the differential suite pins that — so
//! the comparison here is pure dispatch overhead.
//!
//! `repro bench` drives this module from the command line; `--emit-json`
//! writes the machine-readable result (`BENCH_simcore.json` by convention,
//! committed as the CI regression baseline) and `--check <baseline>` gates
//! against it.

use std::time::Instant;

use dvs_metrics::RunReport;
use dvs_pipeline::{PipelineConfig, RunArena, SimCore, Simulator, VsyncPacer};
use dvs_workload::FrameTrace;
use serde::{Deserialize, Serialize};

/// Throughput of one execution engine over the benchmark workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoreThroughput {
    /// Engine label (`"event-heap"` or `"reference"`).
    pub core: String,
    /// Passes over the whole scenario set.
    pub reps: usize,
    /// Wall-clock time for all passes, in seconds.
    pub elapsed_secs: f64,
    /// Scenario runs completed per second.
    pub scenarios_per_sec: f64,
    /// Simulation events handed to the state machine per second.
    pub events_per_sec: f64,
    /// Events processed across all passes.
    pub events_processed: u64,
    /// Polling-clock steps taken (zero for the event heap).
    pub polls: u64,
}

/// The full benchmark result: both engines plus the headline speedup.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimcoreBench {
    /// Workload label.
    pub suite: String,
    /// Whether this was the reduced CI smoke workload.
    pub quick: bool,
    /// Scenarios per pass.
    pub scenarios: usize,
    /// Total frames per pass.
    pub frames: usize,
    /// The event-heap engine's throughput.
    pub event_heap: CoreThroughput,
    /// The reference tick-stepper's throughput.
    pub reference: CoreThroughput,
    /// `event_heap.scenarios_per_sec / reference.scenarios_per_sec`.
    pub speedup: f64,
}

/// Generates the benchmark traces. Quick mode keeps every fifth scenario —
/// a 15-case slice of suite75 that CI can afford on every push.
pub fn bench_traces(quick: bool) -> Vec<FrameTrace> {
    crate::suite75::bench_suite()
        .iter()
        .enumerate()
        .filter(|(i, _)| !quick || i % 5 == 0)
        .map(|(_, spec)| spec.generate())
        .collect()
}

/// Times `reps` passes of `traces` through one engine, accumulating the
/// engine's own event counters. Trace generation is excluded from timing.
pub fn measure_core(traces: &[FrameTrace], core: SimCore, reps: usize) -> CoreThroughput {
    let mut events = 0u64;
    let mut polls = 0u64;
    let start = Instant::now();
    for _ in 0..reps {
        for trace in traces {
            let cfg = PipelineConfig::new(trace.rate_hz, 3);
            // A fresh arena and report per run: the timed work includes
            // each run's buffer set-up, not only the warm event loop.
            let stats = Simulator::new(&cfg)
                .with_core(core)
                .try_run_into(
                    trace,
                    &mut VsyncPacer::new(),
                    &mut RunArena::new(),
                    &mut RunReport::default(),
                )
                .expect("benchmark traces are valid");
            events += stats.events_processed;
            polls += stats.polls;
        }
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    CoreThroughput {
        core: match core {
            SimCore::EventHeap => "event-heap".to_string(),
            SimCore::Reference => "reference".to_string(),
        },
        reps,
        elapsed_secs: elapsed,
        scenarios_per_sec: (traces.len() * reps) as f64 / elapsed,
        events_per_sec: events as f64 / elapsed,
        events_processed: events,
        polls,
    }
}

/// Runs the full comparison. `quick` selects the reduced CI workload.
pub fn run(quick: bool) -> SimcoreBench {
    let traces = bench_traces(quick);
    let frames: usize = traces.iter().map(|t| t.len()).sum();
    // The heap engine is fast enough that several passes are needed for a
    // stable wall-clock reading; one pass of the tick-stepper is plenty.
    let event_heap = measure_core(&traces, SimCore::EventHeap, if quick { 3 } else { 10 });
    let reference = measure_core(&traces, SimCore::Reference, 1);
    let speedup = event_heap.scenarios_per_sec / reference.scenarios_per_sec.max(1e-9);
    SimcoreBench {
        suite: if quick { "suite75 (quick: every 5th case)" } else { "suite75" }.to_string(),
        quick,
        scenarios: traces.len(),
        frames,
        event_heap,
        reference,
        speedup,
    }
}

/// Renders the comparison as an aligned text table.
pub fn render(b: &SimcoreBench) -> String {
    let mut out =
        String::from("Simulator-core throughput (event heap vs reference tick-stepper)\n");
    out.push_str(&format!(
        "workload: {} — {} scenarios, {} frames per pass\n",
        b.suite, b.scenarios, b.frames
    ));
    out.push_str(&format!(
        "{:<12} {:>6} {:>12} {:>16} {:>16} {:>14}\n",
        "core", "reps", "elapsed (s)", "scenarios/sec", "events/sec", "polls"
    ));
    for c in [&b.event_heap, &b.reference] {
        out.push_str(&format!(
            "{:<12} {:>6} {:>12.4} {:>16.1} {:>16.0} {:>14}\n",
            c.core, c.reps, c.elapsed_secs, c.scenarios_per_sec, c.events_per_sec, c.polls
        ));
    }
    out.push_str(&format!("speedup (scenarios/sec): {:.1}x\n", b.speedup));
    out
}

/// The minimum event-heap-over-reference speedup any run must show — the
/// tentpole's acceptance floor.
pub const SPEEDUP_FLOOR: f64 = 5.0;

/// Gates a fresh result against a committed baseline.
///
/// When both runs used the same workload mode, fails if the speedup or the
/// event-heap's absolute events/sec regressed more than 20 % below the
/// baseline. When the modes differ (quick smoke vs full baseline) the two
/// are not comparable — different scenario mixes yield different ratios — so
/// only the absolute [`SPEEDUP_FLOOR`] applies. The speedup ratio is the
/// primary gate in either case because it compares the two engines within
/// the *same* run, making it insensitive to runner hardware.
pub fn check(current: &SimcoreBench, baseline: &SimcoreBench) -> Result<String, String> {
    let mut notes = String::new();
    if current.speedup < SPEEDUP_FLOOR {
        return Err(format!(
            "speedup {:.1}x is below the {SPEEDUP_FLOOR}x acceptance floor",
            current.speedup
        ));
    }
    if current.quick != baseline.quick {
        notes.push_str(&format!(
            "workload modes differ (quick vs full): only the {SPEEDUP_FLOOR}x floor applies; \
             speedup {:.1}x: ok\n",
            current.speedup
        ));
        return Ok(notes);
    }
    if current.speedup < 0.8 * baseline.speedup {
        return Err(format!(
            "speedup regressed: {:.1}x now vs {:.1}x baseline (>20% drop)",
            current.speedup, baseline.speedup
        ));
    }
    notes.push_str(&format!(
        "speedup {:.1}x vs baseline {:.1}x: ok\n",
        current.speedup, baseline.speedup
    ));
    if current.event_heap.events_per_sec < 0.8 * baseline.event_heap.events_per_sec {
        return Err(format!(
            "event-heap events/sec regressed: {:.0} now vs {:.0} baseline (>20% drop)",
            current.event_heap.events_per_sec, baseline.event_heap.events_per_sec
        ));
    }
    notes.push_str(&format!(
        "event-heap events/sec {:.0} vs baseline {:.0}: ok\n",
        current.event_heap.events_per_sec, baseline.event_heap.events_per_sec
    ));
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::{CostProfile, ScenarioSpec};

    fn tiny_traces() -> Vec<FrameTrace> {
        (0..3)
            .map(|i| {
                ScenarioSpec::new(format!("t{i}"), 60, 90, CostProfile::scattered(1.0)).generate()
            })
            .collect()
    }

    #[test]
    fn event_heap_beats_reference_on_any_workload() {
        let traces = tiny_traces();
        let heap = measure_core(&traces, SimCore::EventHeap, 2);
        let reference = measure_core(&traces, SimCore::Reference, 1);
        assert_eq!(heap.polls, 0);
        assert!(reference.polls > reference.events_processed);
        assert!(
            heap.scenarios_per_sec > reference.scenarios_per_sec,
            "heap {:.1}/s vs reference {:.1}/s",
            heap.scenarios_per_sec,
            reference.scenarios_per_sec
        );
    }

    #[test]
    fn result_roundtrips_through_json() {
        let traces = tiny_traces();
        let heap = measure_core(&traces, SimCore::EventHeap, 1);
        let reference = measure_core(&traces, SimCore::Reference, 1);
        let bench = SimcoreBench {
            suite: "tiny".into(),
            quick: true,
            scenarios: traces.len(),
            frames: traces.iter().map(|t| t.len()).sum(),
            speedup: heap.scenarios_per_sec / reference.scenarios_per_sec,
            event_heap: heap,
            reference,
        };
        let json = serde_json::to_string_pretty(&bench).unwrap();
        let back: SimcoreBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back.scenarios, bench.scenarios);
        assert!(render(&back).contains("speedup"));
    }

    #[test]
    fn check_gates_on_speedup_regression() {
        let traces = tiny_traces();
        let heap = measure_core(&traces, SimCore::EventHeap, 1);
        let reference = measure_core(&traces, SimCore::Reference, 1);
        let bench = SimcoreBench {
            suite: "tiny".into(),
            quick: true,
            scenarios: traces.len(),
            frames: traces.iter().map(|t| t.len()).sum(),
            speedup: 10.0,
            event_heap: heap,
            reference,
        };
        let mut regressed = bench.clone();
        regressed.speedup = 7.0; // below 0.8 × 10.0
        assert!(check(&bench, &bench).is_ok());
        assert!(check(&regressed, &bench).is_err());
    }
}
