//! Power and instruction cost models (§6.4 and §6.7).
//!
//! The paper reports *relative* overheads from deployment hardware: D-VSync
//! adds 102.6 µs of module execution per frame (1.2 % of a 120 Hz period),
//! 0.13–0.37 % end-to-end power, and 0.52 % render-service instructions.
//! These models make the accounting explicit so the repro harness can derive
//! the same percentages from simulated frame counts. Constants are the
//! paper's measurements where given, and documented estimates otherwise.

use serde::{Deserialize, Serialize};

use crate::{RunReport, RunTotals};
use dvs_sim::SimDuration;

/// End-to-end device energy model.
///
/// Energy = `base_power` × display time + per-rendered-frame work energy
/// (+ optional predictor invocations). D-VSync's energy increase comes from
/// (a) rendering frames that a janky VSync run never produced and (b) the
/// FPE/DTV bookkeeping on every frame.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Device baseline draw with the screen on, in milliwatts. Estimate for a
    /// Pixel-5-class phone running an animation (~epsilon of the result:
    /// only the *ratio* of increments matters).
    pub base_mw: f64,
    /// Energy per millisecond of UI+RS work, in microjoules (CPU/GPU active
    /// power of a mid-size core cluster ≈ 1.5 W ⇒ 1.5 µJ/µs ⇒ 1500 µJ/ms).
    pub uj_per_work_ms: f64,
    /// Fixed per-frame cost (buffer handling, composition), in microjoules.
    pub uj_per_frame: f64,
    /// FPE + DTV bookkeeping per frame under D-VSync: the paper's 102.6 µs
    /// on a little core (~0.3 W ⇒ ≈30 µJ).
    pub uj_fpe_dtv: f64,
    /// One IPL predictor invocation (ZDP's 151.6 µs on a little core ≈ 45 µJ).
    pub uj_predictor: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            base_mw: 2500.0,
            uj_per_work_ms: 1500.0,
            uj_per_frame: 120.0,
            uj_fpe_dtv: 30.0,
            uj_predictor: 45.0,
        }
    }
}

/// Energy totals for one run, in microjoules.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Screen-on baseline over the display span.
    pub base_uj: f64,
    /// Rendering work (UI + RS stage time).
    pub work_uj: f64,
    /// Fixed per-frame costs.
    pub frame_uj: f64,
    /// D-VSync module bookkeeping.
    pub dvsync_uj: f64,
    /// IPL predictor invocations.
    pub predictor_uj: f64,
}

impl EnergyBreakdown {
    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.base_uj + self.work_uj + self.frame_uj + self.dvsync_uj + self.predictor_uj
    }

    /// Percentage increase of `self` over `baseline`.
    pub fn percent_over(&self, baseline: &EnergyBreakdown) -> f64 {
        let b = baseline.total_uj();
        if b == 0.0 {
            0.0
        } else {
            (self.total_uj() - b) / b * 100.0
        }
    }
}

impl PowerModel {
    /// Accounts a run's energy. `dvsync_frames` is how many frames paid the
    /// FPE/DTV cost (all of them under D-VSync, none under VSync) and
    /// `predictor_calls` how many invoked an IPL curve fit.
    pub fn energy(
        &self,
        report: &RunReport,
        dvsync_frames: u64,
        predictor_calls: u64,
    ) -> EnergyBreakdown {
        self.energy_over(report, report.display_time, dvsync_frames, predictor_calls)
    }

    /// Like [`PowerModel::energy`] but with an explicit screen-on duration.
    /// Use this when comparing two architectures over the *same* wall-clock
    /// session (a janky run does not get to claim a shorter screen-on time).
    pub fn energy_over(
        &self,
        report: &RunReport,
        screen_on: SimDuration,
        dvsync_frames: u64,
        predictor_calls: u64,
    ) -> EnergyBreakdown {
        self.energy_of(&report.totals(), screen_on, dvsync_frames, predictor_calls)
    }

    /// [`PowerModel::energy_over`] from a run's [`RunTotals`]: the one
    /// energy formula. Pass `totals.display_time` as `screen_on` for what
    /// [`PowerModel::energy`] accounts.
    pub fn energy_of(
        &self,
        totals: &RunTotals,
        screen_on: SimDuration,
        dvsync_frames: u64,
        predictor_calls: u64,
    ) -> EnergyBreakdown {
        EnergyBreakdown {
            base_uj: self.base_mw * screen_on.as_millis_f64(),
            work_uj: self.uj_per_work_ms * totals.work_ms_sum,
            frame_uj: self.uj_per_frame * totals.records as f64,
            dvsync_uj: self.uj_fpe_dtv * dvsync_frames as f64,
            predictor_uj: self.uj_predictor * predictor_calls as f64,
        }
    }
}

/// Render-service instruction accounting (§6.7's 10.793 → 10.849 M/frame).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InstructionModel {
    /// Render-service instructions per frame in the VSync baseline
    /// (the paper's measured 10.793 million).
    pub baseline_per_frame: f64,
    /// Additional FPE/DTV/API instructions per frame under D-VSync
    /// (10.849 − 10.793 = 0.056 million).
    pub dvsync_extra_per_frame: f64,
}

impl Default for InstructionModel {
    fn default() -> Self {
        InstructionModel { baseline_per_frame: 10.793e6, dvsync_extra_per_frame: 0.056e6 }
    }
}

impl InstructionModel {
    /// Mean instructions per frame with D-VSync off.
    pub fn vsync_per_frame(&self) -> f64 {
        self.baseline_per_frame
    }

    /// Mean instructions per frame with D-VSync on.
    pub fn dvsync_per_frame(&self) -> f64 {
        self.baseline_per_frame + self.dvsync_extra_per_frame
    }

    /// Relative overhead in percent (the paper reports 0.52 %).
    pub fn overhead_percent(&self) -> f64 {
        self.dvsync_extra_per_frame / self.baseline_per_frame * 100.0
    }
}

/// The D-VSync per-frame module execution time (§6.4: 102.6 µs measured on a
/// little core). Exposed as a constant so the cost harness and docs agree.
pub const FPE_DTV_EXEC_PER_FRAME: SimDuration = SimDuration::from_micros(102);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameKind, FrameRecord};
    use dvs_sim::{SimDuration, SimTime};

    fn report(frames: usize, secs: u64) -> RunReport {
        let mut r = RunReport::new("p", 60);
        r.display_time = SimDuration::from_secs(secs);
        for i in 0..frames {
            r.records.push(FrameRecord {
                seq: i as u64,
                trigger: SimTime::ZERO,
                basis: SimTime::ZERO,
                content_timestamp: SimTime::ZERO,
                queued_at: SimTime::ZERO,
                present: SimTime::from_millis(33),
                present_tick: 2,
                eligible_tick: 2,
                kind: FrameKind::Direct,
                ui_cost: SimDuration::from_millis(3),
                rs_cost: SimDuration::from_millis(4),
            });
        }
        r
    }

    #[test]
    fn energy_from_totals_is_the_report_energy() {
        let m = PowerModel::default();
        let r = report(250, 4);
        let (from_report, from_totals) =
            (m.energy(&r, 250, 3), m.energy_of(&r.totals(), r.display_time, 250, 3));
        assert_eq!(from_report.total_uj().to_bits(), from_totals.total_uj().to_bits());
        assert_eq!(from_report, from_totals);
    }

    #[test]
    fn energy_scales_with_frames() {
        let m = PowerModel::default();
        let small = m.energy(&report(100, 10), 0, 0);
        let large = m.energy(&report(200, 10), 0, 0);
        assert!(large.total_uj() > small.total_uj());
        assert_eq!(large.work_uj, 2.0 * small.work_uj);
    }

    #[test]
    fn dvsync_overhead_is_fraction_of_percent() {
        // 60 s of 60 Hz animation: 3600 frames, all paying FPE/DTV.
        let m = PowerModel::default();
        let base = m.energy(&report(3600, 60), 0, 0);
        let dvs = m.energy(&report(3600, 60), 3600, 0);
        let pct = dvs.percent_over(&base);
        assert!(pct > 0.0 && pct < 0.5, "FPE/DTV overhead {pct}% should be well under 0.5%");
    }

    #[test]
    fn predictor_adds_more() {
        let m = PowerModel::default();
        let base = m.energy(&report(3600, 60), 3600, 0);
        // 10% of frames invoke ZDP, as in the paper's power experiment.
        let with_zdp = m.energy(&report(3600, 60), 3600, 360);
        assert!(with_zdp.total_uj() > base.total_uj());
    }

    #[test]
    fn percent_over_zero_baseline_is_zero() {
        let zero = EnergyBreakdown {
            base_uj: 0.0,
            work_uj: 0.0,
            frame_uj: 0.0,
            dvsync_uj: 0.0,
            predictor_uj: 0.0,
        };
        assert_eq!(zero.percent_over(&zero), 0.0);
    }

    #[test]
    fn instruction_overhead_matches_paper() {
        let m = InstructionModel::default();
        let pct = m.overhead_percent();
        assert!((pct - 0.52).abs() < 0.01, "paper reports 0.52%, got {pct}");
        assert!(m.dvsync_per_frame() > m.vsync_per_frame());
    }

    #[test]
    fn exec_constant_is_about_paper_value() {
        assert!((FPE_DTV_EXEC_PER_FRAME.as_micros_f64() - 102.6).abs() < 1.0);
    }
}
