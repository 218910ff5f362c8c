//! Segmented scenario execution.
//!
//! Real traces are sequences of discrete animations (a fling, an app-open
//! transition) with idle moments in between that drain the buffer queue and
//! reset pipeline depth. [`run_segmented`] executes a scenario one animation
//! segment at a time — fresh buffer queue, fresh pacer state — and merges
//! the observations. This matters for fidelity: without the resets, a
//! VSync pipeline that janked once would keep its deepened queue forever and
//! absorb later key frames for free, which real interactive sessions do not.
//!
//! Every entry point funnels into [`run_segments_into`], the pooled core:
//! it runs pre-generated segments through a [`RunArena`] into a
//! caller-provided report. The convenience wrappers allocate a transient
//! arena; sweep grids and calibration hold one arena per worker thread and
//! run hundreds of scenarios through it allocation-free.

use dvs_metrics::RunReport;
use dvs_workload::{FrameTrace, ScenarioSpec};

use crate::config::PipelineConfig;
use crate::core::{RunArena, SimCore};
use crate::pacer::{FramePacer, VsyncPacer};
use crate::simulator::Simulator;

/// Runs every animation segment of `spec` through a fresh pipeline and
/// pacer, merging the reports.
///
/// # Panics
///
/// Panics if the spec produces no frames.
pub fn run_segmented<F>(spec: &ScenarioSpec, buffers: usize, make_pacer: F) -> RunReport
where
    F: FnMut() -> Box<dyn FramePacer>,
{
    run_segmented_core(spec, buffers, SimCore::default(), make_pacer)
}

/// [`run_segmented`] on an explicit execution engine — the seam the
/// differential suite and the benchmark harness drive both cores through.
pub fn run_segmented_core<F>(
    spec: &ScenarioSpec,
    buffers: usize,
    core: SimCore,
    make_pacer: F,
) -> RunReport
where
    F: FnMut() -> Box<dyn FramePacer>,
{
    let mut arena = RunArena::new();
    let mut out = RunReport::default();
    run_segmented_pooled(spec, buffers, core, make_pacer, &mut arena, &mut out);
    out
}

/// Pooled [`run_segmented_core`]: generates the spec's segments, then runs
/// them through the caller's arena into `out` (fully reset first). The
/// result is byte-identical to the fresh-allocation wrappers.
pub fn run_segmented_pooled<F>(
    spec: &ScenarioSpec,
    buffers: usize,
    core: SimCore,
    make_pacer: F,
    arena: &mut RunArena,
    out: &mut RunReport,
) where
    F: FnMut() -> Box<dyn FramePacer>,
{
    let segments = spec.generate_segments();
    run_segments_into(&spec.name, spec.rate_hz, &segments, buffers, core, make_pacer, arena, out);
}

/// The pooled core of segmented execution: runs pre-generated `segments`
/// (e.g. shared out of a trace cache) through one simulator, merging every
/// segment report into `out`.
///
/// `out` is reset to `(name, rate_hz)` and pre-sized for the total frame
/// count plus the expected mode transitions (at most two per segment:
/// one decouple + one recouple), so a warm arena never reallocates.
///
/// # Panics
///
/// Panics if any segment is empty or disagrees with `rate_hz`.
#[allow(clippy::too_many_arguments)]
pub fn run_segments_into<F>(
    name: &str,
    rate_hz: u32,
    segments: &[FrameTrace],
    buffers: usize,
    core: SimCore,
    mut make_pacer: F,
    arena: &mut RunArena,
    out: &mut RunReport,
) where
    F: FnMut() -> Box<dyn FramePacer>,
{
    out.reset(name, rate_hz);
    let frames_total: usize = segments.iter().map(|t| t.len()).sum();
    out.reserve_for(frames_total, 2 * segments.len());
    let cfg = PipelineConfig::new(rate_hz, buffers);
    let sim = Simulator::new(&cfg).with_core(core);
    // The per-segment report slot lives in the arena so repeated segmented
    // runs (every cell of a sweep grid) reuse its vectors.
    let mut seg_out = std::mem::take(&mut arena.segment);
    for segment in segments {
        let mut pacer = make_pacer();
        sim.run_into(segment, pacer.as_mut(), arena, &mut seg_out);
        out.absorb_from(&mut seg_out);
    }
    arena.segment = seg_out;
}

/// Convenience: the segmented VSync baseline.
pub fn run_segmented_vsync(spec: &ScenarioSpec, buffers: usize) -> RunReport {
    run_segmented(spec, buffers, || Box::new(VsyncPacer::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::CostProfile;

    #[test]
    fn segments_cover_all_frames() {
        let spec = ScenarioSpec::new("seg", 60, 500, CostProfile::smooth()).with_segment_frames(60);
        let report = run_segmented_vsync(&spec, 3);
        assert_eq!(report.records.len(), 500);
        assert_eq!(report.janks.len(), 0);
    }

    #[test]
    fn segmentation_resets_pipeline_depth() {
        // One heavy frame deepens a continuous VSync run permanently; with
        // per-animation resets, later segments return to two-period latency.
        let spec = ScenarioSpec::new("depth", 60, 600, CostProfile::scattered(2.0))
            .with_paper_fdps(2.0)
            .with_segment_frames(60);
        let segmented = run_segmented_vsync(&spec, 4);
        let continuous = {
            let one = spec.clone().with_segment_frames(600);
            run_segmented_vsync(&one, 4)
        };
        // The continuous run hides later key frames in its deepened queue.
        assert!(
            segmented.janks.len() >= continuous.janks.len(),
            "segmented {} vs continuous {}",
            segmented.janks.len(),
            continuous.janks.len()
        );
    }

    #[test]
    fn remainder_segment_is_kept() {
        let spec = ScenarioSpec::new("rem", 60, 130, CostProfile::smooth()).with_segment_frames(60);
        let segs = spec.generate_segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[2].len(), 10);
        let report = run_segmented_vsync(&spec, 3);
        assert_eq!(report.records.len(), 130);
    }

    #[test]
    fn pooled_segmented_run_matches_fresh_and_reuses_capacity() {
        let spec = ScenarioSpec::new("pool", 60, 400, CostProfile::scattered(2.0))
            .with_paper_fdps(1.5)
            .with_segment_frames(60);
        let fresh = run_segmented_vsync(&spec, 3);
        let mut arena = RunArena::new();
        let mut out = RunReport::default();
        let mk = || Box::new(VsyncPacer::new()) as Box<dyn FramePacer>;
        run_segmented_pooled(&spec, 3, SimCore::default(), mk, &mut arena, &mut out);
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&out).unwrap(),
            "pooled segmented run must be byte-identical to the fresh path"
        );
        // Second run through the warm arena: still identical, and the output
        // vectors must not have been re-grown (reserve_for sized them fully
        // on the first pass).
        let cap_records = out.records.capacity();
        let cap_janks = out.janks.capacity();
        run_segmented_pooled(&spec, 3, SimCore::default(), mk, &mut arena, &mut out);
        assert_eq!(serde_json::to_string(&fresh).unwrap(), serde_json::to_string(&out).unwrap());
        assert_eq!(out.records.capacity(), cap_records, "records capacity must be stable");
        assert_eq!(out.janks.capacity(), cap_janks, "janks capacity must be stable");
    }
}
