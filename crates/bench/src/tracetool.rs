//! Trace tooling behind `repro trace …` and `repro ingest`: recording the
//! benchmark corpora as compact binary traces, inspecting and converting
//! trace files, and closing the §3.2 calibration loop over external
//! frame-time logs.
//!
//! Recording exists to accelerate, never to change results: every consumer
//! of a trace directory ([`dvs_workload::TraceCache`], the sweep
//! [`crate::sweep::GridCache`], the fleet shard runner) validates a
//! recording's identity and falls back to generation when it disagrees, so
//! a stale or foreign directory degrades to the exact directory-less run.
//!
//! Ingestion is the reverse direction: a real device's frame-time log (CSV
//! or JSON-lines) is analysed with [`dvs_workload::try_analyze`], converted
//! into a calibrated [`CostProfile`](dvs_workload::CostProfile) via
//! [`TraceProfile::to_cost_profile`], and emitted as a ScenarioSpec family
//! plus the regenerated binary trace — so external measurements become
//! replayable scenarios.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

use dvs_pipeline::{calibrate_spec_pooled, RunArena};
use dvs_sim::{DvsError, DvsResult, SimDuration};
use dvs_workload::codec::BINARY_EXT;
use dvs_workload::{
    try_analyze, Backend, FleetSpec, FrameCost, FrameTrace, ScenarioSpec, TraceCache, TraceProfile,
    TraceReader,
};
use serde::Deserialize;

use crate::fleet::fleet_trace_path;
use crate::sweep::SweepEngine;

/// Ensures `dir` exists, mapping the failure to a path-carrying error.
fn ensure_dir(dir: &Path) -> DvsResult<()> {
    std::fs::create_dir_all(dir).map_err(|e| DvsError::Io {
        path: dir.display().to_string(),
        op: "create dir".to_string(),
        detail: e.to_string(),
    })
}

/// Records one binary trace per spec under `dir` ([`TraceCache::trace_path`]
/// names). With `fitted`, each spec is first calibrated at
/// `baseline_buffers` and the trace calibration hands over is written —
/// the form the sweep path replays; raw recordings serve [`TraceCache`]
/// consumers (fault matrix, custom runs).
///
/// The specs record in parallel on [`SweepEngine::with_default_jobs`]
/// (`repro … --jobs N` sets the count; `--jobs 1` is the engine's
/// sequential path). Each worker calibrates through one reused
/// [`RunArena`], holds one trace at a time and writes its file as soon as
/// that spec is done, so memory stays one calibration per worker whatever
/// the suite's size. The files and the summary are identical at every job
/// count.
///
/// # Errors
///
/// Every spec is attempted, even after one fails; the error returned is
/// the first in spec order.
pub fn record_suite(
    specs: &[ScenarioSpec],
    dir: &Path,
    fitted: bool,
    baseline_buffers: usize,
) -> DvsResult<String> {
    record_suite_on(SweepEngine::with_default_jobs(), specs, dir, fitted, baseline_buffers)
}

/// [`record_suite`] on an explicit engine.
pub(crate) fn record_suite_on(
    engine: SweepEngine,
    specs: &[ScenarioSpec],
    dir: &Path,
    fitted: bool,
    baseline_buffers: usize,
) -> DvsResult<String> {
    ensure_dir(dir)?;
    let items = engine.run_with(specs.len(), RunArena::new, |arena, i| {
        let spec = &specs[i];
        let trace = if fitted {
            calibrate_spec_pooled(spec, baseline_buffers, arena).trace
        } else {
            spec.generate()
        };
        save(&trace, &TraceCache::trace_path(dir, spec))
    });
    let (bytes, frames) = sum_in_order(items)?;
    Ok(format!(
        "recorded {} {} traces under {} — {} frames, {} bytes ({:.2} B/frame)\n",
        specs.len(),
        if fitted { "fitted" } else { "raw" },
        dir.display(),
        frames,
        bytes,
        bytes as f64 / frames.max(1) as f64
    ))
}

/// Records one binary trace per device of `spec` under `dir`
/// ([`fleet_trace_path`] names). Intended for the small CI fleets — the
/// file count is linear in the population.
///
/// Devices record in parallel on [`SweepEngine::with_default_jobs`], as
/// [`record_suite`] does: each worker generates into one reused trace and
/// writes each device's file before taking the next. The files and the
/// summary are identical at every job count.
///
/// # Errors
///
/// Every device is attempted, even after one fails; the error returned is
/// the first in device order.
pub fn record_fleet(spec: &FleetSpec, dir: &Path) -> DvsResult<String> {
    record_fleet_on(SweepEngine::with_default_jobs(), spec, dir)
}

/// [`record_fleet`] on an explicit engine.
pub(crate) fn record_fleet_on(
    engine: SweepEngine,
    spec: &FleetSpec,
    dir: &Path,
) -> DvsResult<String> {
    ensure_dir(dir)?;
    let devices = usize::try_from(spec.devices).map_err(|_| {
        DvsError::InvalidConfig(format!("{} devices do not fit this platform", spec.devices))
    })?;
    let pooled = || FrameTrace::new(String::new(), 0);
    let items = engine.run_with(devices, pooled, |trace, i| {
        let i = i as u64;
        let dev = spec.device(i).ok_or_else(|| {
            DvsError::InvalidConfig(format!("fleet spec has no device at index {i}"))
        })?;
        dev.trace_into(trace);
        save(trace, &fleet_trace_path(dir, i))
    });
    let (bytes, _) = sum_in_order(items)?;
    Ok(format!(
        "recorded fleet '{}': {} devices x {} frames under {} — {} bytes\n",
        spec.name,
        spec.devices,
        spec.frames,
        dir.display(),
        bytes
    ))
}

/// Writes `trace` to `path` as a binary trace: its file size and frames.
fn save(trace: &FrameTrace, path: &Path) -> DvsResult<(u64, u64)> {
    trace.save_binary(path)?;
    Ok((file_len(path)?, trace.len() as u64))
}

/// Sums per-item `(bytes, frames)` in index order, returning the first
/// failed item's error in that order.
fn sum_in_order(items: Vec<DvsResult<(u64, u64)>>) -> DvsResult<(u64, u64)> {
    items.into_iter().try_fold((0, 0), |(bytes, frames), item| {
        let (b, f) = item?;
        Ok((bytes + b, frames + f))
    })
}

fn file_len(path: &Path) -> DvsResult<u64> {
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| DvsError::Io {
        path: path.display().to_string(),
        op: "stat".to_string(),
        detail: e.to_string(),
    })
}

/// Streams a binary trace's header and block structure without holding the
/// frames in memory, and renders the summary `repro trace info` prints.
pub fn info(path: &Path) -> DvsResult<String> {
    let label = path.display().to_string();
    let file = File::open(path).map_err(|e| DvsError::Io {
        path: label.clone(),
        op: "open".to_string(),
        detail: e.to_string(),
    })?;
    let mut reader = TraceReader::with_label(BufReader::new(file), &label)?;
    let mut block_frames = Vec::new();
    let mut blocks = 0u64;
    let mut frames = 0u64;
    let mut min_total = SimDuration::from_nanos(u64::MAX);
    let mut max_total = SimDuration::from_nanos(0);
    loop {
        block_frames.clear();
        if reader.read_block_into(&mut block_frames)? == 0 {
            break;
        }
        blocks += 1;
        frames += block_frames.len() as u64;
        for f in &block_frames {
            min_total = min_total.min(f.total());
            max_total = max_total.max(f.total());
        }
    }
    let bytes = file_len(path)?;
    let mut out = format!("binary trace {label}\n");
    out.push_str(&format!("  name:     {}\n", reader.name()));
    out.push_str(&format!("  rate:     {} Hz\n", reader.rate_hz()));
    out.push_str(&format!("  backend:  {:?}\n", reader.backend()));
    out.push_str(&format!("  frames:   {frames} (in {blocks} checksummed blocks)\n"));
    out.push_str(&format!(
        "  size:     {bytes} bytes ({:.2} B/frame)\n",
        bytes as f64 / frames.max(1) as f64
    ));
    if frames > 0 {
        out.push_str(&format!(
            "  cost:     {:.3}..{:.3} ms per frame\n",
            min_total.as_millis_f64(),
            max_total.as_millis_f64()
        ));
    }
    Ok(out)
}

/// Converts a trace between the JSON and binary containers, inferring each
/// side's format from its extension (`.dvst` is binary, anything else is
/// JSON). The decoded frames are identical either way — conversion is
/// lossless in both directions.
pub fn convert(input: &Path, output: &Path) -> DvsResult<String> {
    let is_binary = |p: &Path| p.extension().is_some_and(|e| e == BINARY_EXT);
    let trace =
        if is_binary(input) { FrameTrace::load_binary(input)? } else { FrameTrace::load(input)? };
    if is_binary(output) {
        trace.save_binary(output)?;
    } else {
        trace.save(output)?;
    }
    Ok(format!(
        "converted {} -> {}: '{}', {} frames, {} -> {} bytes\n",
        input.display(),
        output.display(),
        trace.name,
        trace.len(),
        file_len(input)?,
        file_len(output)?
    ))
}

// ---- Ingestion -------------------------------------------------------------

/// Options shaping how an external frame-time log becomes a scenario.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Scenario name for the ingested trace and the emitted family.
    pub name: String,
    /// Refresh rate the log was captured at.
    pub rate_hz: u32,
    /// UI share applied when the log has only total frame times.
    pub ui_share: f64,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions { name: "ingested".to_string(), rate_hz: 60, ui_share: 0.35 }
    }
}

/// The calibration loop's outcome: the measured profile, the spec family it
/// seeds, and the re-analysis of the regenerated trace (the round-trip
/// fidelity check).
#[derive(Clone, Debug)]
pub struct Ingested {
    /// The trace parsed from the log.
    pub trace: FrameTrace,
    /// [`try_analyze`] over the ingested trace.
    pub measured: TraceProfile,
    /// The calibrated scenario family: `base` plus `quick` (a tenth of the
    /// frames) and `soak` (4×) variants sharing the fitted cost profile.
    pub family: Vec<ScenarioSpec>,
    /// [`try_analyze`] over the regenerated `base` trace.
    pub regenerated: TraceProfile,
}

/// One JSON-lines log record. Either per-stage costs or a total.
#[derive(Debug, Deserialize)]
struct LogLine {
    #[serde(default)]
    ui_ms: Option<f64>,
    #[serde(default)]
    rs_ms: Option<f64>,
    #[serde(default)]
    total_ms: Option<f64>,
}

fn parse_err(path: &Path, line_no: usize, detail: String) -> DvsError {
    DvsError::TraceInvalid {
        path: path.display().to_string(),
        detail: format!("line {line_no}: {detail}"),
    }
}

fn cost_from_ms(ui_ms: f64, rs_ms: f64) -> Option<FrameCost> {
    if !ui_ms.is_finite() || !rs_ms.is_finite() || ui_ms < 0.0 || rs_ms < 0.0 {
        return None;
    }
    Some(FrameCost::new(SimDuration::from_millis_f64(ui_ms), SimDuration::from_millis_f64(rs_ms)))
}

/// Parses a frame-time log: JSON-lines when a line starts with `{`, else
/// CSV (`ui_ms,rs_ms` or a single `total_ms` column split by
/// `opts.ui_share`). Blank lines, `#` comments, and a non-numeric CSV
/// header are skipped; anything else malformed is a typed error naming the
/// line.
pub fn parse_log(path: &Path, opts: &IngestOptions) -> DvsResult<FrameTrace> {
    let file = File::open(path).map_err(|e| DvsError::Io {
        path: path.display().to_string(),
        op: "open".to_string(),
        detail: e.to_string(),
    })?;
    let mut trace = FrameTrace::new(opts.name.clone(), opts.rate_hz);
    let mut saw_data = false;
    for (idx, line) in BufReader::new(file).lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| DvsError::Io {
            path: path.display().to_string(),
            op: "read".to_string(),
            detail: e.to_string(),
        })?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        let cost = if text.starts_with('{') {
            let rec: LogLine = serde_json::from_str(text)
                .map_err(|e| parse_err(path, line_no, format!("bad JSON record: {e}")))?;
            let (ui, rs) = match (rec.ui_ms, rec.rs_ms, rec.total_ms) {
                (Some(ui), Some(rs), _) => (ui, rs),
                (None, None, Some(total)) => (total * opts.ui_share, total * (1.0 - opts.ui_share)),
                _ => {
                    return Err(parse_err(
                        path,
                        line_no,
                        "need ui_ms+rs_ms or total_ms".to_string(),
                    ))
                }
            };
            cost_from_ms(ui, rs).ok_or_else(|| {
                parse_err(path, line_no, "negative or non-finite cost".to_string())
            })?
        } else {
            let fields: Vec<&str> = text.split(',').map(str::trim).collect();
            let nums: Vec<Option<f64>> = fields.iter().map(|f| f.parse::<f64>().ok()).collect();
            if nums.iter().any(Option::is_none) {
                if saw_data {
                    return Err(parse_err(path, line_no, format!("non-numeric field in {text:?}")));
                }
                // A header row before any data is fine; skip it.
                continue;
            }
            let (ui, rs) = match nums.len() {
                1 => {
                    let total = nums[0].unwrap_or(0.0);
                    (total * opts.ui_share, total * (1.0 - opts.ui_share))
                }
                _ => (nums[0].unwrap_or(0.0), nums[1].unwrap_or(0.0)),
            };
            cost_from_ms(ui, rs).ok_or_else(|| {
                parse_err(path, line_no, "negative or non-finite cost".to_string())
            })?
        };
        saw_data = true;
        trace.frames.push(cost);
    }
    Ok(trace)
}

/// Runs the full calibration loop over a frame-time log: parse → analyse →
/// fit a [`dvs_workload::CostProfile`] → build the scenario family →
/// regenerate and re-analyse.
pub fn ingest(path: &Path, opts: &IngestOptions) -> DvsResult<Ingested> {
    let trace = parse_log(path, opts)?;
    let measured = try_analyze(&trace)?;
    let profile = measured.to_cost_profile();
    let frames = trace.len();
    let base = ScenarioSpec::new(opts.name.clone(), opts.rate_hz, frames, profile)
        .with_backend(Backend::Vulkan);
    let quick = ScenarioSpec::new(
        format!("{} quick", opts.name),
        opts.rate_hz,
        (frames / 10).max(120),
        profile,
    )
    .with_backend(Backend::Vulkan);
    let soak = ScenarioSpec::new(
        format!("{} soak", opts.name),
        opts.rate_hz,
        frames.saturating_mul(4),
        profile,
    )
    .with_backend(Backend::Vulkan);
    let regenerated = try_analyze(&base.generate())?;
    Ok(Ingested { trace, measured, family: vec![base, quick, soak], regenerated })
}

impl Ingested {
    /// Writes the emitted artifacts under `dir`: the ingested trace and the
    /// regenerated base trace as binary, plus the spec family as JSON for
    /// `repro custom`. Returns the rendered summary.
    pub fn write_artifacts(&self, dir: &Path) -> DvsResult<String> {
        ensure_dir(dir)?;
        let slug: String = self
            .trace
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect();
        let ingested = dir.join(format!("{slug}.{BINARY_EXT}"));
        self.trace.save_binary(&ingested)?;
        let regen = dir.join(format!("{slug}.calibrated.{BINARY_EXT}"));
        self.family[0].generate().save_binary(&regen)?;
        let specs_path = dir.join(format!("{slug}.specs.json"));
        let json = serde_json::to_string_pretty(&self.family)
            .map_err(|e| DvsError::InvalidConfig(format!("family failed to serialize: {e}")))?;
        std::fs::write(&specs_path, json + "\n").map_err(|e| DvsError::Io {
            path: specs_path.display().to_string(),
            op: "write".to_string(),
            detail: e.to_string(),
        })?;
        let mut out = self.render();
        out.push_str(&format!("wrote {}\n", ingested.display()));
        out.push_str(&format!("wrote {}\n", regen.display()));
        out.push_str(&format!("wrote {}\n", specs_path.display()));
        Ok(out)
    }

    /// Renders the measured-vs-regenerated comparison table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "ingested '{}': {} frames at {} Hz\n",
            self.trace.name,
            self.trace.len(),
            self.trace.rate_hz
        );
        out.push_str(&format!("{:<22} {:>12} {:>12}\n", "profile", "measured", "regenerated"));
        for (label, a, b) in [
            (
                "long_rate_per_sec",
                self.measured.long_rate_per_sec,
                self.regenerated.long_rate_per_sec,
            ),
            (
                "within_one_period",
                self.measured.within_one_period,
                self.regenerated.within_one_period,
            ),
            (
                "within_two_periods",
                self.measured.within_two_periods,
                self.regenerated.within_two_periods,
            ),
            ("ui_share", self.measured.ui_share, self.regenerated.ui_share),
            ("tail_index", self.measured.tail_index, self.regenerated.tail_index),
        ] {
            out.push_str(&format!("{label:<22} {a:>12.3} {b:>12.3}\n"));
        }
        out.push_str(&format!(
            "family: {} specs ({})\n",
            self.family.len(),
            self.family.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ")
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::CostProfile;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dvst-tool-{}-{name}", std::process::id()))
    }

    #[test]
    fn record_suite_produces_loadable_traces() {
        let specs = vec![
            ScenarioSpec::new("rec-a", 60, 200, CostProfile::scattered(2.0)),
            ScenarioSpec::new("rec-b", 120, 150, CostProfile::smooth()),
        ];
        let dir = tmp("record");
        let text = record_suite(&specs, &dir, false, 3).unwrap();
        assert!(text.contains("recorded 2 raw traces"));
        for spec in &specs {
            let loaded = FrameTrace::load_binary(TraceCache::trace_path(&dir, spec)).unwrap();
            assert_eq!(loaded, spec.generate());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every file under `dir`, by name.
    fn files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                (
                    path.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(path).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn recordings_are_identical_at_every_job_count() {
        let specs = crate::tiny_suite();
        let fleet = FleetSpec::tiny(12, 24);
        let record = |kind: &str, engine: SweepEngine, dir: &Path| match kind {
            "raw" => record_suite_on(engine, &specs, dir, false, 3),
            "fitted" => record_suite_on(engine, &specs, dir, true, 3),
            _ => record_fleet_on(engine, &fleet, dir),
        };
        for (kind, count) in [("raw", specs.len()), ("fitted", specs.len()), ("fleet", 12)] {
            let seq = tmp(&format!("{kind}-seq"));
            let par = tmp(&format!("{kind}-par"));
            let seq_text = record(kind, SweepEngine::sequential(), &seq).unwrap();
            let par_text = record(kind, SweepEngine::new(4), &par).unwrap();
            assert_eq!(
                seq_text.replace(&seq.display().to_string(), "DIR"),
                par_text.replace(&par.display().to_string(), "DIR"),
                "{kind}"
            );
            let recorded = files(&seq);
            assert_eq!(recorded.len(), count, "{kind}");
            assert!(recorded == files(&par), "{kind}: files differ between job counts");
            std::fs::remove_dir_all(&seq).ok();
            std::fs::remove_dir_all(&par).ok();
        }
    }

    /// Puts a directory where items 2 and 4 of a recording write, so both
    /// writes fail, and checks that `record` names item 2 and still wrote
    /// every other item.
    fn assert_first_failure_reported(
        path: impl Fn(usize) -> std::path::PathBuf,
        record: impl FnOnce() -> DvsResult<String>,
    ) {
        for k in [2, 4] {
            std::fs::create_dir_all(path(k)).unwrap();
        }
        let err = record().unwrap_err();
        assert!(err.to_string().contains(&path(2).display().to_string()), "{err}");
        for k in [0, 1, 3, 5] {
            assert!(path(k).is_file(), "item {k} was not attempted");
        }
    }

    #[test]
    fn a_failed_write_names_the_first_failing_item_after_attempting_all() {
        let specs: Vec<ScenarioSpec> = (0..6)
            .map(|k| ScenarioSpec::new(format!("fail-{k}"), 60, 60, CostProfile::smooth()))
            .collect();
        let dir = tmp("unwritable-suite");
        assert_first_failure_reported(
            |k| TraceCache::trace_path(&dir, &specs[k]),
            || record_suite_on(SweepEngine::new(4), &specs, &dir, false, 3),
        );
        std::fs::remove_dir_all(&dir).ok();

        let dir = tmp("unwritable-fleet");
        assert_first_failure_reported(
            |k| fleet_trace_path(&dir, k as u64),
            || record_fleet_on(SweepEngine::new(4), &FleetSpec::tiny(6, 12), &dir),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_reports_identity_and_structure() {
        let spec = ScenarioSpec::new("info case", 90, 300, CostProfile::scattered(1.0));
        let dir = tmp("info");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.dvst");
        spec.generate().save_binary(&path).unwrap();
        let text = info(&path).unwrap();
        assert!(text.contains("info case"));
        assert!(text.contains("90 Hz"));
        assert!(text.contains("frames:   300"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn convert_round_trips_between_formats() {
        let spec = ScenarioSpec::new("conv", 60, 120, CostProfile::clustered(2.0));
        let dir = tmp("convert");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("t.json");
        let bin_path = dir.join("t.dvst");
        let back_path = dir.join("back.json");
        let original = spec.generate();
        original.save(&json_path).unwrap();
        convert(&json_path, &bin_path).unwrap();
        convert(&bin_path, &back_path).unwrap();
        assert_eq!(FrameTrace::load(&back_path).unwrap(), original);
        // Tiny traces amortise the header poorly; `fleet_allocs.rs` pins the
        // full corpus's sizes. Half is a safe floor even at 120 frames.
        assert!(file_len(&bin_path).unwrap() < file_len(&json_path).unwrap() / 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_log_reads_csv_with_header_and_comments() {
        let dir = tmp("csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frames.csv");
        std::fs::write(&path, "# captured on device\nui_ms,rs_ms\n2.5,4.0\n1.0,2.0\n\n3.5,5.5\n")
            .unwrap();
        let trace = parse_log(&path, &IngestOptions::default()).unwrap();
        assert_eq!(trace.len(), 3);
        assert!((trace.frames[0].ui.as_millis_f64() - 2.5).abs() < 1e-9);
        assert!((trace.frames[2].rs.as_millis_f64() - 5.5).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_log_reads_single_column_and_json_lines() {
        let dir = tmp("formats");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("totals.csv");
        std::fs::write(&csv, "10.0\n20.0\n").unwrap();
        let opts = IngestOptions { ui_share: 0.25, ..IngestOptions::default() };
        let trace = parse_log(&csv, &opts).unwrap();
        assert!((trace.frames[0].ui.as_millis_f64() - 2.5).abs() < 1e-9);
        assert!((trace.frames[0].rs.as_millis_f64() - 7.5).abs() < 1e-9);

        let jsonl = dir.join("frames.jsonl");
        std::fs::write(&jsonl, "{\"ui_ms\": 1.5, \"rs_ms\": 3.0}\n{\"total_ms\": 8.0}\n").unwrap();
        let trace = parse_log(&jsonl, &opts).unwrap();
        assert_eq!(trace.len(), 2);
        assert!((trace.frames[0].rs.as_millis_f64() - 3.0).abs() < 1e-9);
        assert!((trace.frames[1].ui.as_millis_f64() - 2.0).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_log_rejects_garbage_with_line_numbers() {
        let dir = tmp("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "1.0,2.0\nnot,numbers\n").unwrap();
        let err = parse_log(&path, &IngestOptions::default()).unwrap_err();
        assert!(matches!(err, DvsError::TraceInvalid { .. }), "{err}");
        assert!(err.to_string().contains("line 2"), "{err}");

        let neg = dir.join("neg.csv");
        std::fs::write(&neg, "-1.0,2.0\n").unwrap();
        let err = parse_log(&neg, &IngestOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_round_trips_within_analyze_tolerances() {
        // Write a synthetic "external log" from a generated trace, ingest
        // it, and require the regenerated scenario to reproduce the measured
        // shape within the analyze-module tolerances.
        let dir = tmp("ingest");
        std::fs::create_dir_all(&dir).unwrap();
        let source = ScenarioSpec::new("device log", 60, 60_000, CostProfile::scattered(2.5));
        let mut log = String::new();
        for f in &source.generate().frames {
            log.push_str(&format!("{},{}\n", f.ui.as_millis_f64(), f.rs.as_millis_f64()));
        }
        let path = dir.join("device.csv");
        std::fs::write(&path, log).unwrap();
        let out = ingest(&path, &IngestOptions::default()).unwrap();
        let (m, r) = (&out.measured, &out.regenerated);
        assert!(
            (m.long_rate_per_sec - r.long_rate_per_sec).abs() < 1.0,
            "long rate {} vs {}",
            m.long_rate_per_sec,
            r.long_rate_per_sec
        );
        assert!(
            (m.within_one_period - r.within_one_period).abs() < 0.05,
            "within-one {} vs {}",
            m.within_one_period,
            r.within_one_period
        );
        assert_eq!(out.family.len(), 3);
        let text = out.write_artifacts(&dir).unwrap();
        assert!(text.contains("specs.json"));
        assert!(FrameTrace::load_binary(dir.join("ingested.dvst")).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
