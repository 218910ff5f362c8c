//! Pipeline configuration.

use dvs_display::{RefreshRate, VsyncTimeline};
use dvs_faults::Horizon;
use dvs_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Static configuration for one simulator run.
///
/// # Examples
///
/// ```
/// use dvs_pipeline::PipelineConfig;
/// let cfg = PipelineConfig::new(120, 5);
/// assert_eq!(cfg.buffer_count, 5);
/// assert!((cfg.rate().period().as_millis_f64() - 8.333).abs() < 0.001);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Panel refresh rate in Hz.
    pub rate_hz: u32,
    /// Buffer-queue capacity (1 front + N−1 back). 3 = Android triple
    /// buffering, 4 = OpenHarmony's render service, 4–7 = D-VSync configs.
    pub buffer_count: usize,
    /// Compositor latch interval: a buffer must be queued at least this long
    /// before the tick that displays it. `None` = one VSync period (the
    /// classic SurfaceFlinger pipeline).
    pub compose_latch: Option<SimDuration>,
    /// Hardware-clock drift in parts per million (exercises DTV calibration).
    pub drift_ppm: f64,
    /// Per-tick HW-VSync jitter amplitude.
    pub jitter: SimDuration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Render contexts that may work on consecutive frames concurrently.
    /// OpenHarmony's render service keeps an extra back buffer precisely so
    /// consecutive frames can render in parallel (§2); `1` models the
    /// classic single render thread. Buffers still queue in frame order.
    pub render_threads: usize,
    /// When set, the render stage is dispatched by VSync-rs signals at this
    /// offset from the hardware tick (the OpenHarmony/iOS render-service
    /// model of §2); when `None`, the render thread picks work up as soon as
    /// the UI stage hands it over (the Android model).
    pub rs_signal_offset: Option<SimDuration>,
    /// Safety cap on simulated refreshes before a run is truncated.
    pub max_ticks: Option<u64>,
}

impl PipelineConfig {
    /// Creates a configuration with ideal clocks and default latch.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is zero or `buffer_count < 2`.
    pub fn new(rate_hz: u32, buffer_count: usize) -> Self {
        assert!(rate_hz > 0, "refresh rate must be positive");
        assert!(buffer_count >= 2, "need at least front + one back buffer");
        PipelineConfig {
            rate_hz,
            buffer_count,
            compose_latch: None,
            drift_ppm: 0.0,
            jitter: SimDuration::ZERO,
            jitter_seed: 0,
            render_threads: 1,
            rs_signal_offset: None,
            max_ticks: None,
        }
    }

    /// Dispatches the render stage on VSync-rs signals at `offset` from the
    /// hardware tick (the OpenHarmony/iOS model). This is a *classic
    /// architecture* option: decoupled runs leave it `None`, because the FPE
    /// posts its own D-VSync events ahead of the display signals (§4.3).
    pub fn with_rs_signal(mut self, offset: SimDuration) -> Self {
        self.rs_signal_offset = Some(offset);
        self
    }

    /// Enables parallel rendering with `threads` render contexts.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_render_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one render thread");
        self.render_threads = threads;
        self
    }

    /// Sets an explicit compositor latch.
    pub fn with_compose_latch(mut self, latch: SimDuration) -> Self {
        self.compose_latch = Some(latch);
        self
    }

    /// Adds clock imperfections for DTV-calibration experiments.
    pub fn with_clock_noise(mut self, drift_ppm: f64, jitter: SimDuration, seed: u64) -> Self {
        self.drift_ppm = drift_ppm;
        self.jitter = jitter;
        self.jitter_seed = seed;
        self
    }

    /// The refresh rate.
    pub fn rate(&self) -> RefreshRate {
        RefreshRate::from_hz(self.rate_hz)
    }

    /// The effective compositor latch.
    pub fn latch(&self) -> SimDuration {
        self.compose_latch.unwrap_or_else(|| self.rate().period())
    }

    /// Builds the HW-VSync timeline for this configuration.
    pub fn build_timeline(&self) -> VsyncTimeline {
        VsyncTimeline::builder(self.rate())
            .drift_ppm(self.drift_ppm)
            .jitter(self.jitter, self.jitter_seed)
            .build()
    }

    /// The safety tick cap for a trace of `frames` frames.
    pub fn tick_cap(&self, frames: usize) -> u64 {
        self.max_ticks.unwrap_or(20 * frames as u64 + 200)
    }

    /// The horizon a fault plan resolves over for a trace of `frames`
    /// frames: the frames, the safety tick cap, and the nominal period.
    pub(crate) fn fault_horizon(&self, frames: usize) -> Horizon {
        Horizon::new(frames as u64, self.tick_cap(frames), self.rate().period())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latch_is_one_period() {
        let cfg = PipelineConfig::new(60, 3);
        assert_eq!(cfg.latch(), cfg.rate().period());
    }

    #[test]
    fn explicit_latch_overrides() {
        let cfg = PipelineConfig::new(60, 3).with_compose_latch(SimDuration::ZERO);
        assert_eq!(cfg.latch(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least front")]
    fn single_buffer_rejected() {
        PipelineConfig::new(60, 1);
    }

    #[test]
    fn timeline_reflects_noise() {
        let cfg =
            PipelineConfig::new(60, 3).with_clock_noise(200.0, SimDuration::from_micros(50), 9);
        let tl = cfg.build_timeline();
        assert!(tl.period_at(0) > cfg.rate().period());
    }

    #[test]
    fn tick_cap_scales_with_frames() {
        let cfg = PipelineConfig::new(60, 3);
        assert!(cfg.tick_cap(1000) > 1000);
        let capped = PipelineConfig { max_ticks: Some(50), ..cfg };
        assert_eq!(capped.tick_cap(1000), 50);
    }
}
