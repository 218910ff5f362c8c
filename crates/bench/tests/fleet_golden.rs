//! Fleet golden baseline plus the sketch-accuracy wall.
//!
//! The golden pins the tiny fleet population's distribution summary under
//! the usual `REGEN_GOLDEN=1` flow. The accuracy tests bound what the
//! sketch reduction loses: quantiles reconstructed from a fixed-bin grid
//! ([`Cdf::from_sketch`], [`RunAggregate::from_sketch`]) must stay within
//! one bin width of the exact values computed from full records, across
//! every suite75 scenario.

use dvs_bench::golden::{check_against, golden_dir, regen_requested, GoldenFleet};
use dvs_bench::{run_fleet_resilient, FleetEngine, ResilienceConfig};
use dvs_core::{DvsyncConfig, DvsyncPacer};
use dvs_metrics::{Cdf, RunAggregate, LATENCY_GRID_HI_MS};
use dvs_pipeline::{PipelineConfig, Simulator};
use dvs_workload::FleetSpec;

fn tiny_report() -> GoldenFleet {
    let spec = FleetSpec::tiny(96, 24);
    let out = run_fleet_resilient(&spec, 4, 1, FleetEngine::Batched, &ResilienceConfig::default())
        .expect("tiny fleet runs");
    assert!(!out.degraded());
    GoldenFleet::from(&out.report)
}

/// The tiny population's distribution summary matches the checked-in
/// golden. Regenerate with
/// `REGEN_GOLDEN=1 cargo test -p dvs-bench --test fleet_golden`.
#[test]
fn fleet_tiny_matches_golden() {
    check_against(&golden_dir().join("fleet_tiny.json"), &tiny_report())
        .unwrap_or_else(|e| panic!("{e}"));
}

/// One ulp on the latency p99 fails the checked-in golden and the report
/// names the changed line.
#[test]
fn injected_perturbation_fails_golden() {
    let path = golden_dir().join("fleet_tiny.json");
    if regen_requested() || !path.exists() {
        // Nothing to perturb against while regenerating a fresh tree.
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let mut perturbed: GoldenFleet = serde_json::from_str(&text).unwrap();
    let golden = perturbed.latency_ms.p99;
    perturbed.latency_ms.p99 = f64::from_bits(golden.to_bits() + 1);
    let moved = perturbed.latency_ms.p99;
    let err = check_against(&path, &perturbed).unwrap_err();
    assert!(matches!(err, dvs_sim::DvsError::GoldenMismatch { .. }), "{err}");
    let err = err.to_string();
    assert!(err.contains("line 17:"), "{err}");
    assert!(err.contains(&format!("golden `    \"p99\": {golden},`")), "{err}");
    assert!(err.contains(&format!("actual `    \"p99\": {moved},`")), "{err}");
}

/// Sketch-derived latency quantiles stay within one grid-bin width of the
/// exact full-record quantiles on every suite75 scenario — the bound that
/// justifies replacing materialized records with O(bins) sketches at fleet
/// scale. Checked through both reconstruction paths: [`Cdf::from_sketch`]
/// and [`RunAggregate::from_sketch`].
#[test]
fn sketch_quantiles_within_one_bin_of_exact_on_suite75() {
    for spec in dvs_bench::suite75::bench_suite() {
        let trace = spec.generate();
        let cfg = PipelineConfig::new(trace.rate_hz, 4);
        let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(4));
        let report = Simulator::new(&cfg).run(&trace, &mut pacer);
        let agg = RunAggregate::from_report(&report);
        let bin = agg.latency_cdf.bin_width();

        let exact = Cdf::from_samples(report.records.iter().map(|r| r.latency().as_millis_f64()));
        let sketched = Cdf::from_sketch(&agg.latency_cdf);
        assert_eq!(sketched.len(), exact.len(), "{}: sample counts differ", trace.name);
        for q in [0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0] {
            let e = exact.quantile(q);
            if e >= LATENCY_GRID_HI_MS {
                // Clamped into the top bin: the one-bin bound only holds
                // inside the gridded range.
                continue;
            }
            let s = sketched.quantile(q);
            assert!(
                (s - e).abs() <= bin + 1e-9,
                "{}: q={q} sketch {s} vs exact {e} (bin width {bin})",
                trace.name
            );
        }

        // The aggregate reconstructed from the sketch agrees on counts and
        // keeps the mean within one bin width (each sample is displaced by
        // less than a bin toward its upper edge).
        let rebuilt = RunAggregate::from_sketch(&trace.name, trace.rate_hz, &agg.latency_cdf);
        assert_eq!(rebuilt.frames as u64, agg.latency_cdf.total, "{}", trace.name);
        if exact.quantile(1.0) < LATENCY_GRID_HI_MS {
            assert!(
                (rebuilt.latency_ms.mean() - agg.latency_ms.mean()).abs() <= bin + 1e-9,
                "{}: rebuilt mean {} vs exact mean {}",
                trace.name,
                rebuilt.latency_ms.mean(),
                agg.latency_ms.mean()
            );
        }
    }
}
