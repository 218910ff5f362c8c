//! The fault-matrix sweep: every scenario × fault profile × pacer cell run
//! through the [sweep engine](crate::sweep), summarising robustness under
//! injected adversity (janks, watchdog degradations/recoveries, latency).
//!
//! Like the suite sweep, the matrix is **byte-identical** for every job
//! count: each cell's trace and fault schedule are derived from stable
//! textual keys only, and results are reassembled by cell index. It shares
//! the suite sweep's cost controls too — a per-matrix [`TraceCache`]
//! generates each scenario's trace once instead of once per cell, and each
//! cell streams through the worker's pooled [`RunArena`] into a
//! [`RunAggregate`] instead of materialising per-frame record vectors. The
//! unit tests pin every row, bit for bit, to a fresh full-report run.

use dvs_core::{DvsyncConfig, DvsyncPacer, WatchdogConfig};
use dvs_faults::{named_profile, FaultEvent, FaultPlan};
use dvs_metrics::{PacerMode, RunAggregate};
use dvs_pipeline::{FramePacer, PipelineConfig, RunArena, Simulator, VsyncPacer};
use dvs_sim::SimDuration;
use dvs_workload::{CostProfile, FrameCost, FrameTrace, ScenarioSpec, TraceCache};
use serde::{Deserialize, Serialize};

use crate::golden::Tolerance;
use crate::sweep::{PacerKind, SweepEngine};

/// One cell of the fault matrix: a scenario under one fault profile and one
/// pacing policy.
///
/// Cells are plain `Copy` data: the scenario and profile are identified by
/// index into the matrix's spec/profile slices (plus the spec's stable seed
/// for identity checks), so building a matrix allocates no per-cell strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCell {
    /// Index of the scenario in the matrix's spec list.
    pub spec_index: usize,
    /// The scenario's trace-stream seed (`ScenarioSpec::seed`).
    pub seed: u64,
    /// Index of the fault profile in the matrix's profile list (see
    /// [`dvs_faults::profile_names`]).
    pub profile_index: usize,
    /// Pacing policy under test.
    pub pacer: PacerKind,
    /// Buffer count for this cell.
    pub buffers: usize,
}

impl FaultCell {
    /// The cell's stable key (`"{scenario}/{profile}"`, names borrowed from
    /// the caller's slices); also the fault plan's seed key, so the fault
    /// stream depends only on (scenario, profile) — both pacers face the
    /// *same* adversity, and re-runs replay it exactly.
    pub fn key(&self, scenario: &str, profile: &str) -> String {
        format!("{scenario}/{profile}")
    }
}

/// One cell's measured outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultMatrixRow {
    /// Scenario name.
    pub scenario: String,
    /// Fault-profile name.
    pub profile: String,
    /// Pacer label (`"vsync"` / `"dvsync"`).
    pub pacer: String,
    /// Frames the run presented.
    pub frames: usize,
    /// Faults actually injected during the run.
    pub faults_injected: usize,
    /// Janks observed.
    pub janks: usize,
    /// Frame drops per second.
    pub fdps: f64,
    /// Watchdog degradations to classic pacing (D-VSync cells only).
    pub degradations: usize,
    /// Watchdog re-engagements of decoupling (D-VSync cells only).
    pub recoveries: usize,
    /// Mean rendering latency in milliseconds.
    pub mean_latency_ms: f64,
}

/// The whole matrix plus the configuration that shaped it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultMatrixResult {
    /// Matrix label.
    pub label: String,
    /// VSync-cell buffer count.
    pub vsync_buffers: usize,
    /// D-VSync-cell buffer count.
    pub dvsync_buffers: usize,
    /// Rows in cell order (scenario-major, profile order, VSync then D-VSync).
    pub rows: Vec<FaultMatrixRow>,
}

impl FaultMatrixResult {
    /// Renders the matrix as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n", self.label);
        out.push_str(&format!(
            "{:<16} {:<14} {:<7} {:>7} {:>6} {:>6} {:>5} {:>5} {:>9}\n",
            "scenario", "profile", "pacer", "faults", "janks", "fdps", "deg", "rec", "lat ms"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:<14} {:<7} {:>7} {:>6} {:>6.2} {:>5} {:>5} {:>9.2}\n",
                r.scenario,
                r.profile,
                r.pacer,
                r.faults_injected,
                r.janks,
                r.fdps,
                r.degradations,
                r.recoveries,
                r.mean_latency_ms
            ));
        }
        out
    }
}

/// The scenarios the default matrix measures: a light 60 Hz animation, a
/// keyframe-heavy one, and a 120 Hz case (exercising rate-cap profiles).
pub fn default_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::new("fault light", 60, 600, CostProfile::scattered(0.8)),
        ScenarioSpec::new("fault heavy", 60, 600, CostProfile::clustered(2.0)),
        ScenarioSpec::new("fault 120hz", 120, 600, CostProfile::scattered(1.0)),
    ]
}

/// Builds the cell's pacer, runs `trace` under `plan` through the worker's
/// arena, and reduces the run to the cell's row.
fn run_cell(
    cell: &FaultCell,
    scenario: &str,
    profile: &str,
    plan: &FaultPlan,
    trace: &FrameTrace,
    arena: &mut RunArena,
) -> FaultMatrixRow {
    let cfg = PipelineConfig::new(trace.rate_hz, cell.buffers);
    let mut vsync;
    let mut dvsync;
    let pacer: &mut dyn FramePacer = match cell.pacer {
        PacerKind::Vsync => {
            vsync = VsyncPacer::new();
            &mut vsync
        }
        PacerKind::Dvsync => {
            dvsync = DvsyncPacer::new(DvsyncConfig::with_buffers(cell.buffers))
                .with_watchdog(WatchdogConfig::default());
            &mut dvsync
        }
    };
    let sim = Simulator::new(&cfg).with_faults(Some(plan));
    let agg = arena.with_scratch_report(|arena, out| {
        sim.try_run_into(trace, pacer, arena, out)
            .expect("matrix traces are non-empty and rate-matched");
        RunAggregate::from_report(out)
    });
    FaultMatrixRow {
        scenario: scenario.to_string(),
        profile: profile.to_string(),
        pacer: cell.pacer.label().to_string(),
        frames: agg.frames,
        faults_injected: agg.faults,
        janks: agg.janks,
        fdps: agg.fdps(),
        degradations: agg.degradations,
        recoveries: agg.recoveries,
        mean_latency_ms: agg.mean_latency_ms(),
    }
}

/// Runs the matrix over `specs` × `profiles` with `jobs` sweep workers.
///
/// A fresh per-call [`TraceCache`] generates each scenario's trace once and
/// shares it across the scenario's cells. Results are byte-identical for
/// every `jobs` value: cell keys contain no worker or scheduling state, and
/// the engine reassembles rows by index.
pub fn run_fault_matrix_jobs(
    label: &str,
    specs: &[ScenarioSpec],
    profiles: &[&str],
    vsync_buffers: usize,
    dvsync_buffers: usize,
    jobs: usize,
) -> FaultMatrixResult {
    let mut cells = Vec::with_capacity(specs.len() * profiles.len() * 2);
    for (spec_index, spec) in specs.iter().enumerate() {
        for profile_index in 0..profiles.len() {
            for (pacer, buffers) in
                [(PacerKind::Vsync, vsync_buffers), (PacerKind::Dvsync, dvsync_buffers)]
            {
                cells.push(FaultCell {
                    spec_index,
                    seed: spec.seed,
                    profile_index,
                    pacer,
                    buffers,
                });
            }
        }
    }
    let cache = TraceCache::for_specs(specs);
    let rows = SweepEngine::new(jobs).run_with(cells.len(), RunArena::new, |arena, i| {
        let cell = &cells[i];
        let scenario = specs[cell.spec_index].name.as_str();
        let profile = profiles[cell.profile_index];
        let plan = named_profile(profile, cell.key(scenario, profile))
            .expect("matrix profiles are all named");
        let entry = cache.get(specs, cell.spec_index);
        run_cell(cell, scenario, profile, &plan, &entry.trace, arena)
    });
    FaultMatrixResult { label: label.to_string(), vsync_buffers, dvsync_buffers, rows }
}

/// Runs the default matrix (all named profiles over [`default_specs`]).
pub fn run(jobs: usize) -> FaultMatrixResult {
    run_fault_matrix_jobs(
        "Fault matrix — scenarios × profiles × pacers",
        &default_specs(),
        dvs_faults::profile_names(),
        3,
        5,
        jobs,
    )
}

// ---- Golden summaries ------------------------------------------------------

/// The canonical fault-matrix summary stored as a golden file. Counts must
/// match exactly (the simulator is deterministic); floats get tolerances.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoldenFaultMatrix {
    /// Per-cell rows, in matrix order.
    pub rows: Vec<FaultMatrixRow>,
}

impl From<&FaultMatrixResult> for GoldenFaultMatrix {
    fn from(r: &FaultMatrixResult) -> Self {
        GoldenFaultMatrix { rows: r.rows.clone() }
    }
}

/// Compares a fault-matrix summary against its golden.
pub fn compare_fault_matrix(
    actual: &GoldenFaultMatrix,
    golden: &GoldenFaultMatrix,
    tol: Tolerance,
) -> Vec<String> {
    let mut diffs = Vec::new();
    if actual.rows.len() != golden.rows.len() {
        diffs.push(format!("row count: {} vs {}", actual.rows.len(), golden.rows.len()));
        return diffs;
    }
    for (a, g) in actual.rows.iter().zip(&golden.rows) {
        let key = format!("{}/{}/{}", a.scenario, a.profile, a.pacer);
        if (a.scenario.as_str(), a.profile.as_str(), a.pacer.as_str())
            != (g.scenario.as_str(), g.profile.as_str(), g.pacer.as_str())
        {
            diffs.push(format!("row order: {key} vs {}/{}/{}", g.scenario, g.profile, g.pacer));
            continue;
        }
        if (a.frames, a.faults_injected, a.janks, a.degradations, a.recoveries)
            != (g.frames, g.faults_injected, g.janks, g.degradations, g.recoveries)
        {
            diffs.push(format!(
                "{key}: counts (frames {}, faults {}, janks {}, deg {}, rec {}) \
                 vs golden (frames {}, faults {}, janks {}, deg {}, rec {})",
                a.frames,
                a.faults_injected,
                a.janks,
                a.degradations,
                a.recoveries,
                g.frames,
                g.faults_injected,
                g.janks,
                g.degradations,
                g.recoveries
            ));
        }
        if (a.fdps - g.fdps).abs() > tol.fdps {
            diffs.push(format!("{key}: fdps {:.4} vs {:.4}", a.fdps, g.fdps));
        }
        if (a.mean_latency_ms - g.mean_latency_ms).abs() > tol.latency_ms {
            diffs.push(format!(
                "{key}: latency {:.4} vs {:.4}",
                a.mean_latency_ms, g.mean_latency_ms
            ));
        }
    }
    diffs
}

// ---- The degraded-mode reference case --------------------------------------

/// One logged mode transition in the degraded-mode golden.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenTransition {
    /// Frame index the transition was logged against.
    pub frame_index: u64,
    /// `"classic"` or `"decoupled"`.
    pub mode: String,
    /// Human-readable trigger recorded by the watchdog.
    pub reason: String,
}

/// The canonical degrade-then-re-engage case stored as a golden file: a
/// sustained render-stall burst against the watchdog-equipped D-VSync pacer.
/// Everything in it is an exact count — any drift in the degradation state
/// machine shows up as a golden diff.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenDegradedMode {
    /// Frames presented.
    pub frames: usize,
    /// Janks observed.
    pub janks: usize,
    /// Faults injected.
    pub faults_injected: usize,
    /// The full transition log.
    pub transitions: Vec<GoldenTransition>,
}

/// Runs the degraded-mode reference case: 240 light 60 Hz frames with a
/// 16-frame render-stall burst, D-VSync with the default watchdog.
pub fn run_degraded_case() -> GoldenDegradedMode {
    let mut trace = FrameTrace::new("degraded golden", 60);
    for _ in 0..240 {
        trace.push(FrameCost::new(
            SimDuration::from_millis_f64(2.0),
            SimDuration::from_millis_f64(5.0),
        ));
    }
    let mut plan = FaultPlan::new("bench/degraded-mode");
    for frame in 40..56 {
        plan = plan
            .with_event(FaultEvent::StallRs { frame, extra: SimDuration::from_millis_f64(24.0) });
    }
    let cfg = PipelineConfig::new(60, 5);
    let mut pacer =
        DvsyncPacer::new(DvsyncConfig::with_buffers(5)).with_watchdog(WatchdogConfig::default());
    let report = Simulator::new(&cfg).with_faults(Some(&plan)).run(&trace, &mut pacer);
    GoldenDegradedMode {
        frames: report.records.len(),
        janks: report.janks.len(),
        faults_injected: report.fault_events.len(),
        transitions: report
            .mode_transitions
            .iter()
            .map(|t| GoldenTransition {
                frame_index: t.frame_index,
                mode: match t.mode {
                    PacerMode::Classic => "classic".to_string(),
                    PacerMode::Decoupled => "decoupled".to_string(),
                },
                reason: t.reason.clone(),
            })
            .collect(),
    }
}

/// Compares the degraded-mode case exactly (no tolerances: every field is a
/// count or a deterministic string).
pub fn compare_degraded_mode(
    actual: &GoldenDegradedMode,
    golden: &GoldenDegradedMode,
) -> Vec<String> {
    let mut diffs = Vec::new();
    if actual == golden {
        return diffs;
    }
    if actual.frames != golden.frames {
        diffs.push(format!("frames: {} vs {}", actual.frames, golden.frames));
    }
    if actual.janks != golden.janks {
        diffs.push(format!("janks: {} vs {}", actual.janks, golden.janks));
    }
    if actual.faults_injected != golden.faults_injected {
        diffs.push(format!("faults: {} vs {}", actual.faults_injected, golden.faults_injected));
    }
    if actual.transitions != golden.transitions {
        diffs.push(format!("transitions: {:?} vs {:?}", actual.transitions, golden.transitions));
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_cells_cover_the_grid() {
        let specs = default_specs();
        let profiles = dvs_faults::profile_names();
        let m = run_fault_matrix_jobs("t", &specs[..1], &profiles[..2], 3, 5, 1);
        assert_eq!(m.rows.len(), 2 * 2, "1 scenario × 2 profiles × 2 pacers");
        assert!(m.rows.iter().all(|r| r.frames == 600));
        let text = m.render();
        assert!(text.contains("profile"));
    }

    #[test]
    fn matrix_rows_match_fresh_full_report_runs() {
        let specs = &default_specs()[..2];
        let profiles = &dvs_faults::profile_names()[..3];
        // The reference: a fresh arena and a full per-frame report per cell.
        let mut reference = Vec::new();
        for spec in specs {
            let trace = spec.generate();
            for &profile in profiles {
                let plan = named_profile(profile, format!("{}/{profile}", spec.name)).unwrap();
                for (pacer, buffers) in [("vsync", 3), ("dvsync", 5)] {
                    let cfg = PipelineConfig::new(trace.rate_hz, buffers);
                    let sim = Simulator::new(&cfg).with_faults(Some(&plan));
                    let report = if pacer == "vsync" {
                        sim.run(&trace, &mut VsyncPacer::new())
                    } else {
                        let mut dvsync = DvsyncPacer::new(DvsyncConfig::with_buffers(buffers))
                            .with_watchdog(WatchdogConfig::default());
                        sim.run(&trace, &mut dvsync)
                    };
                    reference.push(FaultMatrixRow {
                        scenario: spec.name.clone(),
                        profile: profile.to_string(),
                        pacer: pacer.to_string(),
                        frames: report.records.len(),
                        faults_injected: report.fault_events.len(),
                        janks: report.janks.len(),
                        fdps: report.fdps(),
                        degradations: report.degradations(),
                        recoveries: report.recoveries(),
                        mean_latency_ms: report.mean_latency_ms(),
                    });
                }
            }
        }
        let reference = serde_json::to_string(&reference).unwrap();
        for jobs in [1, 2] {
            let m = run_fault_matrix_jobs("t", specs, profiles, 3, 5, jobs);
            assert_eq!(
                serde_json::to_string(&m.rows).unwrap(),
                reference,
                "jobs {jobs}: matrix rows diverged from fresh full-report runs"
            );
        }
    }

    #[test]
    fn clean_profile_injects_nothing() {
        let specs = default_specs();
        let m = run_fault_matrix_jobs("t", &specs[..1], &["clean"], 3, 5, 1);
        assert!(m.rows.iter().all(|r| r.faults_injected == 0), "{:?}", m.rows);
    }

    #[test]
    fn degraded_case_degrades_and_recovers() {
        let case = run_degraded_case();
        assert_eq!(case.frames, 240);
        assert!(!case.transitions.is_empty());
        assert_eq!(case.transitions[0].mode, "classic");
        assert!(case.transitions.iter().any(|t| t.mode == "decoupled"));
        // Deterministic replay.
        assert_eq!(case, run_degraded_case());
    }

    #[test]
    fn comparator_flags_count_drift() {
        let golden = run_degraded_case();
        let mut bad = golden.clone();
        bad.janks += 1;
        assert!(compare_degraded_mode(&golden, &golden).is_empty());
        assert_eq!(compare_degraded_mode(&bad, &golden).len(), 1);
    }
}
