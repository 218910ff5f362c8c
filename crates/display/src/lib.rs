//! The screen model: HW-VSync generation, refresh rates, panel buffer
//! consumption, and LTPO dynamic rate switching.
//!
//! A smartphone panel refreshes at a fixed cadence and emits a hardware
//! VSync signal before each refresh (§2 of the D-VSync paper). The panel is
//! the *consumer* of the buffer queue: at every tick it latches the oldest
//! buffer that was queued early enough to composite, or repeats the previous
//! frame (a potential jank). [`VsyncTimeline`] generates the tick schedule —
//! optionally with clock drift and jitter so the Display Time Virtualizer's
//! calibration logic has something real to correct — and [`LtpoController`]
//! implements the §5.3 co-design rule for variable-refresh-rate panels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ltpo;
mod panel;
mod rate;
mod vsync;

pub use ltpo::{LtpoController, RatePolicy, SwitchState};
pub use panel::{Panel, PanelOutcome};
pub use rate::RefreshRate;
pub use vsync::{PulseEvent, TickCursor, TickInterval, VsyncTimeline, VsyncTimelineBuilder};
