//! Golden-baseline regression layer: canonical result summaries checked in
//! as JSON under the repo-root `tests/golden/`, compared byte for byte.
//!
//! The simulator is deterministic, so a fresh run serializes to exactly the
//! committed bytes. [`check_against`] serializes the actual value the way
//! [`write_golden`] writes it (pretty JSON plus a final newline) and compares
//! that text with the file: one ulp of an FDPS value or one extra jank is a
//! [`DvsError::GoldenMismatch`] naming the first differing lines. The
//! `Golden*` summary types below define each file's bytes.
//!
//! Regenerating after an intentional behaviour change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test -p dvs-bench
//! ```
//!
//! then review the diff like any other code change: it lists every golden
//! the change moved.

use std::path::{Path, PathBuf};

use dvs_sim::{DvsError, DvsResult};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{read_text, write_text};
use crate::suite::SuiteResult;
use crate::suite75::Census;

/// The command that rewrites every golden from fresh runs.
const REGEN_COMMAND: &str = "REGEN_GOLDEN=1 cargo test -p dvs-bench";

/// How many differing lines a mismatch report lists.
const SHOWN_LINES: usize = 3;

/// One scenario's canonical numbers in a golden file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoldenRow {
    /// Figure-axis abbreviation (the row key).
    pub abbrev: String,
    /// Calibrated baseline FDPS.
    pub baseline_fdps: f64,
    /// D-VSync FDPS per buffer configuration.
    pub dvsync_fdps: Vec<f64>,
    /// Mean baseline rendering latency (ms).
    pub baseline_latency_ms: f64,
    /// Mean D-VSync rendering latency (ms), first configuration.
    pub dvsync_latency_ms: f64,
}

/// The canonical summary of a [`SuiteResult`] stored as a golden file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoldenSuite {
    /// Suite label.
    pub label: String,
    /// Baseline buffer count.
    pub baseline_buffers: usize,
    /// D-VSync buffer counts measured.
    pub dvsync_buffers: Vec<usize>,
    /// Average baseline FDPS.
    pub avg_baseline_fdps: f64,
    /// FDPS reduction (%) per D-VSync configuration.
    pub reductions_pct: Vec<f64>,
    /// Per-scenario rows.
    pub rows: Vec<GoldenRow>,
}

impl From<&SuiteResult> for GoldenSuite {
    fn from(r: &SuiteResult) -> Self {
        GoldenSuite {
            label: r.label.clone(),
            baseline_buffers: r.baseline_buffers,
            dvsync_buffers: r.dvsync_buffers.clone(),
            avg_baseline_fdps: r.avg_baseline(),
            reductions_pct: (0..r.dvsync_buffers.len()).map(|i| r.reduction_percent(i)).collect(),
            rows: r
                .rows
                .iter()
                .map(|row| GoldenRow {
                    abbrev: row.abbrev.clone(),
                    baseline_fdps: row.baseline_fdps,
                    dvsync_fdps: row.dvsync_fdps.clone(),
                    baseline_latency_ms: row.baseline_latency_ms,
                    dvsync_latency_ms: row.dvsync_latency_ms,
                })
                .collect(),
        }
    }
}

/// The canonical summary of the §3.2 census stored as a golden file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoldenCensus {
    /// One entry per platform configuration.
    pub platforms: Vec<GoldenCensusRow>,
}

/// One platform's canonical census numbers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoldenCensusRow {
    /// Platform label.
    pub platform: String,
    /// Total cases (75).
    pub total: usize,
    /// Cases with at least one frame drop.
    pub with_drops: usize,
    /// Average FDPS over dropping cases.
    pub avg_fdps_dropping: f64,
    /// The paper's count.
    pub paper_with_drops: usize,
}

impl GoldenCensus {
    /// Summarises a census run.
    pub fn from_rows(rows: &[Census]) -> Self {
        GoldenCensus {
            platforms: rows
                .iter()
                .map(|c| GoldenCensusRow {
                    platform: c.platform.clone(),
                    total: c.total,
                    with_drops: c.with_drops,
                    avg_fdps_dropping: c.avg_fdps_dropping,
                    paper_with_drops: c.paper_with_drops,
                })
                .collect(),
        }
    }
}

/// One fleet metric's canonical distribution figures.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoldenFleetMetric {
    /// Population mean.
    pub mean: f64,
    /// Median (grid quantile).
    pub p50: f64,
    /// 90th percentile (grid quantile).
    pub p90: f64,
    /// 99th percentile (grid quantile).
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
}

impl GoldenFleetMetric {
    fn from_sketch(m: &dvs_metrics::MetricSketch) -> Self {
        GoldenFleetMetric {
            mean: m.mean(),
            p50: m.quantile(0.50),
            p90: m.quantile(0.90),
            p99: m.quantile(0.99),
            max: m.stats.max(),
        }
    }
}

/// The canonical summary of a fleet report stored as a golden file.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GoldenFleet {
    /// Population label.
    pub label: String,
    /// Devices in the population.
    pub devices: u64,
    /// Frames per device.
    pub frames_per_device: usize,
    /// Devices actually measured (equals `devices` on clean runs).
    pub measured: u64,
    /// FDPS distribution.
    pub fdps: GoldenFleetMetric,
    /// Rendering-latency distribution (ms).
    pub latency_ms: GoldenFleetMetric,
    /// Per-device energy distribution (mJ).
    pub energy_mj: GoldenFleetMetric,
}

impl From<&crate::fleet::FleetReport> for GoldenFleet {
    fn from(r: &crate::fleet::FleetReport) -> Self {
        GoldenFleet {
            label: r.label.clone(),
            devices: r.devices,
            frames_per_device: r.frames_per_device,
            measured: r.sketch.devices,
            fdps: GoldenFleetMetric::from_sketch(&r.sketch.fdps),
            latency_ms: GoldenFleetMetric::from_sketch(&r.sketch.latency_ms),
            energy_mj: GoldenFleetMetric::from_sketch(&r.sketch.energy_mj),
        }
    }
}

/// The repo-root `tests/golden/` directory (canonical golden location).
pub fn golden_dir() -> PathBuf {
    // dvs-bench lives at <repo>/crates/bench.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Whether this run should rewrite goldens instead of comparing.
pub fn regen_requested() -> bool {
    std::env::var_os("REGEN_GOLDEN").is_some_and(|v| v == "1")
}

/// Checks `actual` against the golden at `path` byte for byte, honouring
/// `REGEN_GOLDEN=1`: `actual` is serialized exactly as [`write_golden`]
/// writes it, and [`check_text`] compares that text with the file.
pub fn check_against<T: Serialize>(path: &Path, actual: &T) -> DvsResult<()> {
    check_text(path, &golden_text(actual)?)
}

/// Compares `actual` with the file at `path` byte for byte; with
/// `REGEN_GOLDEN=1` it writes `actual` there instead. This is the text half
/// of [`check_against`], for goldens that a renderer of their own writes
/// (the lint report).
///
/// Failures are typed: a missing file is [`DvsError::Io`] (the detail names
/// the regeneration command), and differing bytes are
/// [`DvsError::GoldenMismatch`] naming the first differing lines.
pub fn check_text(path: &Path, actual: &str) -> DvsResult<()> {
    if regen_requested() {
        return write_text(path, actual);
    }
    let golden = read_text(path).map_err(|e| match e {
        DvsError::Io { path, op, detail } => DvsError::Io {
            path,
            op,
            detail: format!("{detail} (missing golden? regenerate with {REGEN_COMMAND})"),
        },
        other => other,
    })?;
    if golden == actual {
        return Ok(());
    }
    Err(DvsError::GoldenMismatch {
        path: path.display().to_string(),
        detail: format!(
            "{}if intentional, regenerate with {REGEN_COMMAND} and review the diff",
            first_differences(&golden, actual)
        ),
    })
}

/// Lists the first lines where `golden` and `actual` differ, numbered from
/// 1. Splitting on `\n` keeps a missing final newline visible as a line.
fn first_differences(golden: &str, actual: &str) -> String {
    let golden: Vec<&str> = golden.split('\n').collect();
    let actual: Vec<&str> = actual.split('\n').collect();
    let show = |line: Option<&&str>| line.map_or("(end of file)".to_string(), |l| format!("`{l}`"));
    let mut out = String::new();
    for i in (0..golden.len().max(actual.len()))
        .filter(|&i| golden.get(i) != actual.get(i))
        .take(SHOWN_LINES)
    {
        out.push_str(&format!(
            "line {}:\n  golden {}\n  actual {}\n",
            i + 1,
            show(golden.get(i)),
            show(actual.get(i))
        ));
    }
    out
}

/// The bytes a golden holds for `value`: pretty JSON plus a final newline.
fn golden_text<T: Serialize>(value: &T) -> DvsResult<String> {
    let mut text = serde_json::to_string_pretty(value)
        .map_err(|e| DvsError::InvalidConfig(format!("golden serialization: {e}")))?;
    text.push('\n');
    Ok(text)
}

/// Writes `value` as pretty JSON to `path`, creating parent directories.
pub fn write_golden<T: Serialize>(path: &Path, value: &T) -> DvsResult<()> {
    write_text(path, &golden_text(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GoldenSuite {
        GoldenSuite {
            label: "t".into(),
            baseline_buffers: 3,
            dvsync_buffers: vec![4, 5],
            avg_baseline_fdps: 2.0,
            reductions_pct: vec![70.0, 85.0],
            rows: vec![GoldenRow {
                abbrev: "App".into(),
                baseline_fdps: 2.0,
                dvsync_fdps: vec![0.6, 0.3],
                baseline_latency_ms: 33.0,
                dvsync_latency_ms: 35.0,
            }],
        }
    }

    #[test]
    fn written_golden_checks_clean_and_one_ulp_does_not() {
        if regen_requested() {
            return; // the check writes instead of comparing
        }
        let path = std::env::temp_dir().join("dvsync_golden_test").join("roundtrip.json");
        let g = sample();
        write_golden(&path, &g).unwrap();
        check_against(&path, &g).unwrap();

        let mut moved = sample();
        moved.rows[0].dvsync_latency_ms = f64::from_bits(35f64.to_bits() + 1);
        let err = check_against(&path, &moved).unwrap_err().to_string();
        assert!(err.contains("line 22:"), "{err}");
        assert!(err.contains("golden `      \"dvsync_latency_ms\": 35`"), "{err}");
        assert!(err.contains("actual `      \"dvsync_latency_ms\": 35.00000000000001`"), "{err}");
        assert!(err.contains(REGEN_COMMAND), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_missing_final_newline_is_a_differing_line() {
        let diff = first_differences("{}\n", "{}");
        assert_eq!(diff, "line 2:\n  golden ``\n  actual (end of file)\n");
    }
}
