//! Ablation studies on the design choices DESIGN.md calls out.
//!
//! None of these correspond to a numbered figure in the paper; they probe
//! *why* the mechanism behaves as it does and where each design element
//! earns its keep:
//!
//! * [`prerender_limit_sweep`] — the absorption-budget ladder (buffers →
//!   longest key frame absorbed), validating the `budget = buffers − 2`
//!   periods relationship behind Figures 11–14;
//! * [`dtv_calibration_ablation`] — §5.1's "calibrate every few frames"
//!   claim: D-Timestamp error vs. calibration cadence on a noisy clock;
//! * [`segmentation_sensitivity`] — how animation length changes the
//!   baseline's post-jank absorption and D-VSync's advantage;
//! * [`ipl_predictor_study`] — §4.6: prediction error of each IPL curve
//!   family as the pre-render horizon grows;
//! * [`input_policy_study`] — the end-to-end case for IPL: on-screen input
//!   error under VSync, naive D-VSync, and D-VSync + IPL.

use dvs_apps::{InputLagReport, InteractiveStudy};
use dvs_core::{
    Dtv, DvsyncConfig, DvsyncPacer, IplPredictor, LinearFit, MarkovPredictor, PolyFit2,
    PredictionQuality, VelocityExtrapolation,
};
use dvs_input::fling;
use dvs_pipeline::{
    calibrate_spec, run_segmented, PipelineConfig, RunArena, Simulator, VsyncPacer,
};
use dvs_sim::{SimDuration, SimTime};
use dvs_workload::{CostProfile, FrameCost, FrameTrace, ScenarioSpec};
use serde::{Deserialize, Serialize};

use crate::sweep::{tally_segments, PacerKind};

/// One row of the pre-render-limit sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LimitSweepRow {
    /// Buffer-queue capacity.
    pub buffers: usize,
    /// The configured pre-render limit (frames ahead).
    pub limit: usize,
    /// Longest key frame absorbed without a jank, in periods (measured).
    pub absorbed_periods: f64,
    /// FDPS on the standard calibrated scattered workload.
    pub fdps: f64,
}

/// Sweeps D-VSync buffer counts, measuring the absorption budget directly
/// (bisecting single-key-frame traces) and the FDPS on a fixed workload.
pub fn prerender_limit_sweep() -> Vec<LimitSweepRow> {
    let spec = ScenarioSpec::new("limit sweep", 60, 1200, CostProfile::scattered(2.0))
        .with_paper_fdps(2.5);
    let fitted = calibrate_spec(&spec, 3).spec;

    (3usize..=8)
        .map(|buffers| {
            let cfg = DvsyncConfig::with_buffers(buffers);
            // Measure the absorption budget: longest single key frame (in
            // tenths of a period) that a steady-state run absorbs.
            let mut absorbed = 0.0f64;
            for tenths in 10..=70u64 {
                let c = tenths as f64 / 10.0;
                if single_key_frame_janks(buffers, c) == 0 {
                    absorbed = c;
                } else {
                    break;
                }
            }
            let report = run_segmented(&fitted, buffers, move || {
                Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(buffers)))
            });
            LimitSweepRow {
                buffers,
                limit: cfg.prerender_limit,
                absorbed_periods: absorbed,
                fdps: report.fdps(),
            }
        })
        .collect()
}

/// Janks produced by one key frame of `periods` total cost mid-trace.
fn single_key_frame_janks(buffers: usize, periods: f64) -> usize {
    let p_ms = 1000.0 / 60.0;
    let mut trace = FrameTrace::new("single key", 60);
    for i in 0..120 {
        let total = if i == 60 { periods * p_ms } else { 0.45 * p_ms };
        let ui = (0.15 * p_ms).min(total * 0.3);
        trace.push(FrameCost::new(
            SimDuration::from_millis_f64(ui),
            SimDuration::from_millis_f64(total - ui),
        ));
    }
    let cfg = PipelineConfig::new(60, buffers);
    let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(buffers));
    Simulator::new(&cfg).run(&trace, &mut pacer).janks.len()
}

/// Renders the limit sweep.
pub fn render_limit_sweep(rows: &[LimitSweepRow]) -> String {
    let mut out =
        String::from("Ablation — pre-render limit: absorption budget and residual FDPS\n");
    out.push_str(&format!(
        "{:>8} {:>7} {:>18} {:>8}\n",
        "buffers", "limit", "absorbs (periods)", "FDPS"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8} {:>7} {:>18.1} {:>8.2}\n",
            r.buffers, r.limit, r.absorbed_periods, r.fdps
        ));
    }
    out.push_str("expected: absorbs ≈ buffers − 2 periods (the theory behind Fig. 11's ladder)\n");
    out
}

/// One row of the DTV calibration ablation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CalibrationRow {
    /// Re-anchoring cadence in observed VSyncs (`u32::MAX` = never).
    pub calibrate_every: u32,
    /// Worst D-Timestamp prediction error over the run, in microseconds.
    pub worst_error_us: f64,
}

/// §5.1's calibration claim: prediction error vs. re-anchoring cadence on a
/// drifting (800 ppm) clock with ±100 µs of tick jitter.
pub fn dtv_calibration_ablation() -> Vec<CalibrationRow> {
    let real_period_ns: f64 = 16_680_000.0;
    let jitter = |k: u64| -> f64 {
        let mut z = k.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xD1F3_5A7E;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        ((z % 200_001) as f64) - 100_000.0
    };
    let truth = |k: u64| -> f64 { real_period_ns * k as f64 + jitter(k) };

    [2u32, 4, 8, 32, 128, u32::MAX]
        .into_iter()
        .map(|every| {
            let mut dtv =
                Dtv::new(SimDuration::from_nanos(16_666_667)).with_calibration_interval(every);
            let mut worst: f64 = 0.0;
            for k in 0..600u64 {
                dtv.observe_tick(k, SimTime::from_nanos(truth(k) as u64));
                if k < 100 {
                    continue; // EWMA warm-up
                }
                let est = dtv.estimate_tick_time(k + 3).as_nanos() as f64;
                worst = worst.max((est - truth(k + 3)).abs());
            }
            CalibrationRow { calibrate_every: every, worst_error_us: worst / 1e3 }
        })
        .collect()
}

/// Renders the calibration ablation.
pub fn render_calibration(rows: &[CalibrationRow]) -> String {
    let mut out =
        String::from("Ablation — DTV calibration cadence (800 ppm drift, ±100 us jitter)\n");
    out.push_str(&format!("{:>18} {:>18}\n", "calibrate every", "worst error (us)"));
    for r in rows {
        let every = if r.calibrate_every == u32::MAX {
            "never".to_string()
        } else {
            format!("{} ticks", r.calibrate_every)
        };
        out.push_str(&format!("{:>18} {:>18.1}\n", every, r.worst_error_us));
    }
    out.push_str("\"calibrates the issued D-Timestamp every few frames ... to avoid error accumulation\" (§5.1)\n");
    out
}

/// One row of the segmentation-sensitivity study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SegmentationRow {
    /// Frames per animation segment.
    pub segment_frames: usize,
    /// Baseline (VSync 3-buffer) FDPS after calibration at 1 s segments.
    pub baseline_fdps: f64,
    /// D-VSync 4-buffer FDPS.
    pub dvsync_fdps: f64,
}

/// How the animation-segment length (idle-drain cadence) changes both
/// architectures. Long continuous traces let the once-janked baseline keep a
/// deepened queue and catch up to D-VSync — the artifact DESIGN.md §3
/// documents.
pub fn segmentation_sensitivity() -> Vec<SegmentationRow> {
    let base =
        ScenarioSpec::new("seg sense", 60, 1200, CostProfile::scattered(2.0)).with_paper_fdps(2.5);
    let fitted = calibrate_spec(&base, 3).spec;
    [30usize, 60, 120, 300, 1200]
        .into_iter()
        .map(|seg| {
            let spec = fitted.clone().with_segment_frames(seg);
            let baseline = run_segmented(&spec, 3, || Box::new(VsyncPacer::new()));
            let dvsync = run_segmented(&spec, 4, || {
                Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(4)))
            });
            SegmentationRow {
                segment_frames: seg,
                baseline_fdps: baseline.fdps(),
                dvsync_fdps: dvsync.fdps(),
            }
        })
        .collect()
}

/// Renders the segmentation study.
pub fn render_segmentation(rows: &[SegmentationRow]) -> String {
    let mut out = String::from("Ablation — animation segment length\n");
    out.push_str(&format!(
        "{:>16} {:>12} {:>12} {:>11}\n",
        "segment frames", "VSync FDPS", "D-V4 FDPS", "reduction"
    ));
    for r in rows {
        let red = if r.baseline_fdps > 0.0 {
            (1.0 - r.dvsync_fdps / r.baseline_fdps) * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:>16} {:>12.2} {:>12.2} {:>10.1}%\n",
            r.segment_frames, r.baseline_fdps, r.dvsync_fdps, red
        ));
    }
    out
}

/// One row of the IPL predictor study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IplRow {
    /// Predictor name.
    pub predictor: String,
    /// `(horizon ms, mean abs error px)` pairs.
    pub by_horizon: Vec<(u64, f64)>,
}

/// Prediction error of each IPL curve family over a decelerating fling, as
/// the pre-render horizon grows from one to six periods.
pub fn ipl_predictor_study() -> Vec<IplRow> {
    let gesture = fling(
        SimTime::ZERO,
        (540.0, 2000.0),
        (0.0, -9000.0),
        0.22,
        SimDuration::from_millis(900),
        240,
    );
    let series: Vec<(SimTime, f64)> = gesture.events().iter().map(|e| (e.t, e.y)).collect();

    let predictors: Vec<(&str, Box<dyn IplPredictor>)> = vec![
        ("linear-fit", Box::new(LinearFit::new(6))),
        ("velocity", Box::new(VelocityExtrapolation)),
        ("poly2-fit", Box::new(PolyFit2::new(8))),
        ("markov", Box::new(MarkovPredictor::default())),
    ];
    predictors
        .into_iter()
        .map(|(name, p)| IplRow {
            predictor: name.to_string(),
            by_horizon: [17u64, 33, 50, 67, 83, 100]
                .into_iter()
                .map(|ms| {
                    let q = PredictionQuality::evaluate(
                        p.as_ref(),
                        &series,
                        SimDuration::from_millis(ms),
                    );
                    (ms, q.mean_abs_error)
                })
                .collect(),
        })
        .collect()
}

/// Renders the IPL study.
pub fn render_ipl(rows: &[IplRow]) -> String {
    let mut out =
        String::from("Ablation — IPL predictors on a decelerating fling (mean error, px)\n");
    out.push_str(&format!("{:<12}", "horizon"));
    if let Some(first) = rows.first() {
        for (ms, _) in &first.by_horizon {
            out.push_str(&format!(" {:>8}", format!("{ms} ms")));
        }
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<12}", r.predictor));
        for (_, err) in &r.by_horizon {
            out.push_str(&format!(" {:>8.1}", err));
        }
        out.push('\n');
    }
    out
}

/// One row of the parallel-rendering study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ParallelRow {
    /// Render contexts.
    pub render_threads: usize,
    /// VSync FDPS.
    pub vsync_fdps: f64,
    /// VSync mean latency (ms).
    pub vsync_latency_ms: f64,
    /// D-VSync (5 buffers) FDPS.
    pub dvsync_fdps: f64,
}

/// Parallel rendering (§2: OpenHarmony's extra back buffer lets consecutive
/// frames render in parallel) versus decoupling: parallelism raises the
/// *sustained* render throughput but cannot save an individual key frame's
/// deadline; D-VSync's queued slack can.
pub fn parallel_rendering_study() -> Vec<ParallelRow> {
    // Render-saturated segments: sustained RS of ~1.15 periods (beyond one
    // context's throughput) plus a 2.5-period RS key frame per segment.
    let p_ms = 1000.0 / 60.0;
    let segments: Vec<FrameTrace> = (0..10)
        .map(|s| {
            let mut t = FrameTrace::new(format!("parallel seg {s}"), 60);
            for i in 0..60 {
                let rs_periods = if i == 30 { 2.5 } else { 1.1 + 0.1 * ((i + s) % 3) as f64 };
                t.push(FrameCost::new(
                    SimDuration::from_millis_f64(0.12 * p_ms),
                    SimDuration::from_millis_f64(rs_periods * p_ms),
                ));
            }
            t
        })
        .collect();

    [1usize, 2, 3]
        .into_iter()
        .map(|threads| {
            let run = |buffers: usize, dvsync: bool| {
                let mut total_janks = 0usize;
                let mut total_latency = 0.0;
                let mut frames = 0usize;
                let mut secs = 0.0;
                for segment in &segments {
                    let cfg = PipelineConfig::new(60, buffers).with_render_threads(threads);
                    let report = if dvsync {
                        let mut pacer = DvsyncPacer::new(DvsyncConfig::with_buffers(buffers));
                        Simulator::new(&cfg).run(segment, &mut pacer)
                    } else {
                        Simulator::new(&cfg).run(segment, &mut VsyncPacer::new())
                    };
                    total_janks += report.janks.len();
                    total_latency += report.mean_latency_ms() * report.records.len() as f64;
                    frames += report.records.len();
                    secs += report.display_time.as_secs_f64();
                }
                (total_janks as f64 / secs.max(1e-9), total_latency / frames.max(1) as f64)
            };
            let (vsync_fdps, vsync_latency_ms) = run(4, false);
            let (dvsync_fdps, _) = run(5, true);
            ParallelRow { render_threads: threads, vsync_fdps, vsync_latency_ms, dvsync_fdps }
        })
        .collect()
}

/// Renders the parallel-rendering study.
pub fn render_parallel(rows: &[ParallelRow]) -> String {
    let mut out =
        String::from("Ablation — parallel rendering vs decoupling (render-stage-heavy workload)\n");
    out.push_str(&format!(
        "{:>14} {:>12} {:>14} {:>12}\n",
        "RS contexts", "VSync FDPS", "VSync latency", "D-V5 FDPS"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>14} {:>12.2} {:>12.1}ms {:>12.2}\n",
            r.render_threads, r.vsync_fdps, r.vsync_latency_ms, r.dvsync_fdps
        ));
    }
    out.push_str(
        "parallelism fixes sustained throughput, not key-frame deadlines; \
         decoupling fixes both\n",
    );
    out
}

/// One row of the buffering-history ladder.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BufferingRow {
    /// Architecture label.
    pub architecture: String,
    /// FDPS on the standard calibrated workload.
    pub fdps: f64,
    /// Mean rendering latency in ms.
    pub latency_ms: f64,
}

/// The historical ladder: double buffering (pre-2012), Project Butter's
/// triple buffering, and D-VSync — the decade of §2 in one table.
pub fn buffering_history() -> Vec<BufferingRow> {
    let spec =
        ScenarioSpec::new("history", 60, 1800, CostProfile::scattered(1.5)).with_paper_fdps(2.0);
    // Calibration's best measurement is the triple-buffering row; the other
    // rows run on the fitted trace it hands over.
    let fitted = calibrate_spec(&spec, 3);
    let segments = fitted.spec.segments_of(&fitted.trace);
    let mut arena = RunArena::new();
    let rate = fitted.spec.rate_hz;
    let mut run = |buffers, pacer| tally_segments(&segments, rate, buffers, pacer, &mut arena);
    [
        ("VSync double buffering", run(2, PacerKind::Vsync)),
        ("VSync triple buffering", fitted.baseline),
        ("D-VSync 4 buffers", run(4, PacerKind::Dvsync)),
        ("D-VSync 5 buffers", run(5, PacerKind::Dvsync)),
    ]
    .into_iter()
    .map(|(label, totals)| BufferingRow {
        architecture: label.to_string(),
        fdps: totals.fdps(),
        latency_ms: totals.mean_latency_ms(),
    })
    .collect()
}

/// Renders the buffering ladder.
pub fn render_buffering(rows: &[BufferingRow]) -> String {
    let mut out = String::from("Ablation — a decade of buffering architectures\n");
    out.push_str(&format!("{:<26} {:>8} {:>12}\n", "architecture", "FDPS", "latency"));
    for r in rows {
        out.push_str(&format!("{:<26} {:>8.2} {:>10.1}ms\n", r.architecture, r.fdps, r.latency_ms));
    }
    out
}

/// One row of the signal-offset study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OffsetRow {
    /// Configuration label.
    pub config: String,
    /// FDPS under VSync with that offset configuration.
    pub fdps: f64,
    /// Mean latency in ms.
    pub latency_ms: f64,
}

/// Classic-architecture offset tuning (§2's software VSync offsets): how the
/// VSync-app and VSync-rs signal placement trades robustness for latency in
/// the *baseline* — the knob space D-VSync makes irrelevant by posting its
/// own events.
pub fn signal_offset_study() -> Vec<OffsetRow> {
    let spec = ScenarioSpec::new("offset study", 60, 1200, CostProfile::scattered(2.0))
        .with_paper_fdps(2.0);
    let fitted = calibrate_spec(&spec, 3).spec;

    let configs: Vec<(String, PipelineConfig, SimDuration)> = vec![
        ("immediate hand-off".into(), PipelineConfig::new(60, 3), SimDuration::ZERO),
        (
            "rs signal @3 ms".into(),
            PipelineConfig::new(60, 3).with_rs_signal(SimDuration::from_millis(3)),
            SimDuration::ZERO,
        ),
        (
            "rs signal @6 ms".into(),
            PipelineConfig::new(60, 3).with_rs_signal(SimDuration::from_millis(6)),
            SimDuration::ZERO,
        ),
        (
            "app offset 3 ms, rs @6 ms".into(),
            PipelineConfig::new(60, 3).with_rs_signal(SimDuration::from_millis(6)),
            SimDuration::from_millis(3),
        ),
    ];

    configs
        .into_iter()
        .map(|(label, cfg, app_offset)| {
            let mut janks = 0usize;
            let mut latency = 0.0;
            let mut frames = 0usize;
            let mut secs = 0.0;
            for segment in fitted.generate_segments() {
                let mut pacer = VsyncPacer::new().with_app_offset(app_offset);
                let report = Simulator::new(&cfg).run(&segment, &mut pacer);
                janks += report.janks.len();
                latency += report.mean_latency_ms() * report.records.len() as f64;
                frames += report.records.len();
                secs += report.display_time.as_secs_f64();
            }
            OffsetRow {
                config: label,
                fdps: janks as f64 / secs.max(1e-9),
                latency_ms: latency / frames.max(1) as f64,
            }
        })
        .collect()
}

/// Renders the signal-offset study.
pub fn render_offsets(rows: &[OffsetRow]) -> String {
    let mut out = String::from("Ablation — classic software-VSync offset tuning\n");
    out.push_str(&format!("{:<28} {:>8} {:>12}\n", "configuration", "FDPS", "latency"));
    for r in rows {
        out.push_str(&format!("{:<28} {:>8.2} {:>10.1}ms\n", r.config, r.fdps, r.latency_ms));
    }
    out
}

/// One row of the adaptive-limit study.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdaptiveRow {
    /// Strategy label.
    pub strategy: String,
    /// FDPS achieved.
    pub fdps: f64,
    /// Mean pre-render limit held (∝ buffer memory).
    pub mean_limit: f64,
}

/// Fixed vs adaptive pre-render limits (§4.5's performance/memory balance):
/// the controller should match a deep fixed queue's smoothness while holding
/// fewer buffers on average.
pub fn adaptive_limit_study() -> Vec<AdaptiveRow> {
    let spec = ScenarioSpec::new("adaptive study", 60, 3600, CostProfile::scattered(1.5))
        .with_paper_fdps(2.0);
    let fitted = calibrate_spec(&spec, 3).spec;

    let mut rows = Vec::new();
    for buffers in [4usize, 7] {
        let report = run_segmented(&fitted, buffers, move || {
            Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(buffers)))
        });
        rows.push(AdaptiveRow {
            strategy: format!("fixed limit {}", buffers - 1),
            fdps: report.fdps(),
            mean_limit: (buffers - 1) as f64,
        });
    }
    let mut controller = dvs_core::AdaptiveLimit::new(2, 6);
    let session = dvs_core::run_adaptive_session(&fitted, &mut controller);
    rows.push(AdaptiveRow {
        strategy: "adaptive 2..6".to_string(),
        fdps: session.report.fdps(),
        mean_limit: session.mean_limit(),
    });
    rows
}

/// Renders the adaptive-limit study.
pub fn render_adaptive(rows: &[AdaptiveRow]) -> String {
    let mut out = String::from("Ablation — fixed vs adaptive pre-render limits\n");
    out.push_str(&format!("{:<18} {:>8} {:>12}\n", "strategy", "FDPS", "mean limit"));
    for r in rows {
        out.push_str(&format!("{:<18} {:>8.2} {:>12.2}\n", r.strategy, r.fdps, r.mean_limit));
    }
    out.push_str("the adaptive controller buys deep-queue smoothness at shallow-queue memory\n");
    out
}

/// The end-to-end input-policy study (§4.6 quantified).
pub fn input_policy_study() -> Vec<InputLagReport> {
    InteractiveStudy::new().run()
}

/// Renders the input-policy study.
pub fn render_input_policy(rows: &[InputLagReport]) -> String {
    let mut out = String::from("Ablation — on-screen input error during a drag\n");
    out.push_str(&format!(
        "{:<28} {:>12} {:>12} {:>7}\n",
        "policy", "mean err px", "max err px", "janks"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>12.1} {:>12.1} {:>7}\n",
            r.policy.label(),
            r.mean_error_px,
            r.max_error_px,
            r.janks
        ));
    }
    out.push_str(
        "naive decoupling makes interactive content *more* stale than VSync;\n\
         the IPL is what makes D-VSync extensible to interactive frames (§4.6)\n",
    );
    out
}

/// Runs and renders every ablation.
pub fn render_all() -> String {
    let mut out = String::new();
    out.push_str(&render_limit_sweep(&prerender_limit_sweep()));
    out.push('\n');
    out.push_str(&render_calibration(&dtv_calibration_ablation()));
    out.push('\n');
    out.push_str(&render_segmentation(&segmentation_sensitivity()));
    out.push('\n');
    out.push_str(&render_ipl(&ipl_predictor_study()));
    out.push('\n');
    out.push_str(&render_input_policy(&input_policy_study()));
    out.push('\n');
    out.push_str(&render_parallel(&parallel_rendering_study()));
    out.push('\n');
    out.push_str(&render_offsets(&signal_offset_study()));
    out.push('\n');
    out.push_str(&render_adaptive(&adaptive_limit_study()));
    out.push('\n');
    out.push_str(&render_buffering(&buffering_history()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_sweep_budget_ladder() {
        let rows = prerender_limit_sweep();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            // absorbs ≈ buffers − 2 periods, within the sub-period slack.
            let expected = (r.buffers - 2) as f64;
            assert!(
                (r.absorbed_periods - expected).abs() <= 0.5,
                "{} buffers absorb {} periods, expected ≈{}",
                r.buffers,
                r.absorbed_periods,
                expected
            );
        }
        // FDPS is non-increasing in buffers.
        for w in rows.windows(2) {
            assert!(w[1].fdps <= w[0].fdps + 0.15);
        }
    }

    #[test]
    fn calibration_monotone_in_cadence() {
        let rows = dtv_calibration_ablation();
        let every_4 = rows.iter().find(|r| r.calibrate_every == 4).unwrap();
        let never = rows.iter().find(|r| r.calibrate_every == u32::MAX).unwrap();
        assert!(every_4.worst_error_us * 2.0 < never.worst_error_us);
        assert!(every_4.worst_error_us < 1000.0, "stays under a millisecond");
    }

    #[test]
    fn segmentation_narrows_the_gap_on_long_traces() {
        let rows = segmentation_sensitivity();
        let short = &rows[0];
        let long = rows.last().unwrap();
        let red = |r: &SegmentationRow| 1.0 - r.dvsync_fdps / r.baseline_fdps.max(1e-9);
        assert!(
            red(short) > red(long) - 0.05,
            "short-segment reduction {:.2} vs continuous {:.2}",
            red(short),
            red(long)
        );
        // The baseline benefits most from continuity (free deepened queue).
        assert!(long.baseline_fdps < short.baseline_fdps + 0.2);
    }

    #[test]
    fn ipl_errors_grow_with_horizon() {
        for row in ipl_predictor_study() {
            let first = row.by_horizon.first().unwrap().1;
            let last = row.by_horizon.last().unwrap().1;
            assert!(
                last >= first * 0.8,
                "{}: error should not shrink with horizon ({first} -> {last})",
                row.predictor
            );
        }
    }

    #[test]
    fn parallelism_helps_sustained_but_dvsync_still_wins() {
        let rows = parallel_rendering_study();
        let one = &rows[0];
        let two = &rows[1];
        // A second context collapses the sustained backlog…
        assert!(
            two.vsync_fdps < 0.7 * one.vsync_fdps,
            "threads=2 fdps {} vs threads=1 {}",
            two.vsync_fdps,
            one.vsync_fdps
        );
        // …but decoupling still beats the parallel VSync baseline.
        assert!(
            two.dvsync_fdps < 0.7 * two.vsync_fdps,
            "dvsync {} vs parallel vsync {}",
            two.dvsync_fdps,
            two.vsync_fdps
        );
    }

    #[test]
    fn buffering_ladder_improves_monotonically() {
        let rows = buffering_history();
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(
                w[1].fdps <= w[0].fdps + 0.1,
                "{} ({}) should not drop more than {} ({})",
                w[1].architecture,
                w[1].fdps,
                w[0].architecture,
                w[0].fdps
            );
        }
        // Double buffering is clearly the worst of the ladder.
        assert!(rows[0].fdps > rows[1].fdps * 1.3);
    }

    #[test]
    fn rs_signal_alignment_costs_drops() {
        let rows = signal_offset_study();
        let immediate = &rows[0];
        let aligned6 = &rows[2];
        assert!(
            aligned6.fdps >= immediate.fdps,
            "signal alignment never reduces drops: {} vs {}",
            aligned6.fdps,
            immediate.fdps
        );
    }

    #[test]
    fn input_policy_ordering() {
        let rows = input_policy_study();
        assert!(rows[1].mean_error_px > rows[0].mean_error_px, "stale worst");
        assert!(rows[2].mean_error_px < rows[0].mean_error_px, "IPL best");
    }
}
