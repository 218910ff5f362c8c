//! Serialisation round-trips across the workspace: every persistable type
//! survives JSON encode/decode bit-for-bit, which the trace record/replay
//! workflow and the repro harness's machine-readable output rely on.

use dvsync::metrics::{RunReport, StutterModel};
use dvsync::prelude::*;
use dvsync::workload::scenarios;

#[test]
fn frame_trace_round_trips() {
    let spec = ScenarioSpec::new("roundtrip", 90, 300, CostProfile::scattered(2.0));
    let trace = spec.generate();
    let json = trace.to_json().unwrap();
    let back = FrameTrace::from_json(&json).unwrap();
    assert_eq!(back, trace);
}

#[test]
fn scenario_spec_round_trips() {
    for spec in scenarios::android_app_suite().into_iter().take(3) {
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // And a round-tripped spec generates the identical trace.
        assert_eq!(back.generate(), spec.generate());
    }
}

#[test]
fn run_report_round_trips_with_full_fidelity() {
    let spec =
        ScenarioSpec::new("report", 60, 240, CostProfile::scattered(3.0)).with_paper_fdps(3.0);
    let fitted = calibrate_spec(&spec, 3).spec;
    let report = run_segmented(&fitted, 3, || Box::new(VsyncPacer::new()));
    let json = serde_json::to_string(&report).unwrap();
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.records, report.records);
    assert_eq!(back.janks, report.janks);
    assert_eq!(back.fdps(), report.fdps());
    // Derived metrics agree after the round trip.
    let model = StutterModel::default();
    assert_eq!(model.evaluate(&back), model.evaluate(&report));
}

#[test]
fn config_types_round_trip() {
    let cfg = PipelineConfig::new(120, 5).with_clock_noise(250.0, SimDuration::from_micros(100), 7);
    let back: PipelineConfig = serde_json::from_str(&serde_json::to_string(&cfg).unwrap()).unwrap();
    assert_eq!(back, cfg);

    let dvs = DvsyncConfig::with_buffers(7).with_prerender_limit(4);
    let back: DvsyncConfig = serde_json::from_str(&serde_json::to_string(&dvs).unwrap()).unwrap();
    assert_eq!(back, dvs);
}

#[test]
fn malformed_trace_is_a_clean_error() {
    let err = FrameTrace::from_json("{\"not\": \"a trace\"}").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("parse"), "{msg}");
}

#[test]
fn sweep_grid_round_trips() {
    use dvs_bench::sweep::{SweepCell, SweepGrid};
    let specs = vec![
        ScenarioSpec::new("grid a", 60, 120, CostProfile::scattered(1.0)),
        ScenarioSpec::new("grid b", 120, 240, CostProfile::clustered(2.0)),
    ];
    let grid = SweepGrid::for_suite(&specs, 3, &[4, 5, 7]);
    let back: SweepGrid = serde_json::from_str(&serde_json::to_string(&grid).unwrap()).unwrap();
    assert_eq!(back, grid);
    // Cell identity (rendered key and stable seed) survives the round trip.
    for (a, b) in grid.cells.iter().zip(&back.cells) {
        let name = &specs[a.spec_index].name;
        assert_eq!(a.key(name), b.key(name));
        assert_eq!(a.seed, b.seed);
    }
    // A single cell round-trips through the same schema.
    let cell: SweepCell =
        serde_json::from_str(&serde_json::to_string(&grid.cells[0]).unwrap()).unwrap();
    assert_eq!(cell, grid.cells[0]);
}

#[test]
fn suite_result_round_trips() {
    use dvs_bench::{run_suite, SuiteResult};
    let specs =
        vec![ScenarioSpec::new("rt a", 60, 300, CostProfile::scattered(1.0)).with_paper_fdps(2.0)];
    let result = run_suite("roundtrip", &specs, 3, &[4, 5]);
    let json = serde_json::to_string(&result).unwrap();
    let back: SuiteResult = serde_json::from_str(&json).unwrap();
    // Byte-stable re-serialization — the property the determinism tests and
    // golden files build on.
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(back.rows[0].dvsync_fdps, result.rows[0].dvsync_fdps);
}

#[test]
fn golden_file_schema_round_trips() {
    use dvs_bench::golden::{compare_suite, GoldenSuite, Tolerance};
    use dvs_bench::run_suite;
    let specs =
        vec![ScenarioSpec::new("golden rt", 60, 300, CostProfile::scattered(1.5))
            .with_paper_fdps(1.5)];
    let summary = GoldenSuite::from(&run_suite("golden", &specs, 3, &[4]));
    let back: GoldenSuite =
        serde_json::from_str(&serde_json::to_string_pretty(&summary).unwrap()).unwrap();
    assert!(compare_suite(&summary, &back, Tolerance::default()).is_empty());
}

#[test]
fn checked_in_goldens_parse_against_current_schema() {
    use dvs_bench::golden::{golden_dir, GoldenCensus, GoldenSuite};
    let census_text = std::fs::read_to_string(golden_dir().join("suite75_census.json")).unwrap();
    let census: GoldenCensus = serde_json::from_str(&census_text).unwrap();
    assert_eq!(census.platforms.len(), 3);
    let apps_text = std::fs::read_to_string(golden_dir().join("apps_pixel5.json")).unwrap();
    let apps: GoldenSuite = serde_json::from_str(&apps_text).unwrap();
    assert_eq!(apps.rows.len(), 25);
    assert_eq!(apps.dvsync_buffers, vec![4, 5, 7]);
}
