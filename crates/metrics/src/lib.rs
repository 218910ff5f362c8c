//! Rendering-quality metrics: frame records, FDPS, latency, perceived
//! stutters, and the power / instruction cost models of §6.4 and §6.7.
//!
//! The simulator (in `dvs-pipeline`) emits a [`RunReport`] — one
//! [`FrameRecord`] per produced frame plus one [`JankEvent`] per missed
//! refresh. Everything the paper reports is derived from those two streams:
//!
//! * **FDPS** (frame drops per second) and **FD%** — Figures 5, 11–14;
//! * **frame distribution** (direct / stuffed / dropped) — Figure 6;
//! * **rendering latency** (present fence minus content basis) — Figure 15;
//! * **perceived stutters** via a JND-based perceptual model — Table 2;
//! * **power and instruction overheads** via explicit cost models — §6.4/§6.7.
//!
//! The scalar ones — FDPS, FD%, mean latency and energy — are formulas over
//! a [`RunTotals`], which [`RunReport::totals`] reduces a report to and
//! which the simulator can also fold a run into without recording frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod chrome_trace;
mod composite;
mod fps;
mod power;
mod quarantine;
mod record;
mod sketch;
mod stats;
mod stutter;
mod timeline;

pub use aggregate::{
    QuantileGrid, RunAggregate, StreamingStats, LATENCY_GRID_BINS, LATENCY_GRID_HI_MS,
};
pub use chrome_trace::chrome_trace_json;
pub use composite::{CompositeReport, InterferenceRow, SurfaceReport};
pub use fps::{average_fps, fps_series, min_window_fps};
pub use power::{EnergyBreakdown, InstructionModel, PowerModel, FPE_DTV_EXEC_PER_FRAME};
pub use quarantine::{PartialAccounting, QuarantineEntry, QuarantineReport};
pub use record::{
    fdps, FaultClass, FaultRecord, FrameDistribution, FrameKind, FrameRecord, JankEvent,
    ModeTransition, PacerMode, RunReport, RunTotals,
};
pub use sketch::{
    FleetSketch, MetricSketch, SketchStats, ENERGY_GRID_BINS, ENERGY_GRID_HI_MJ, FDPS_GRID_BINS,
    FDPS_GRID_HI, SKETCH_SUM_SCALE,
};
pub use stats::{Cdf, Summary};
pub use stutter::{StutterModel, StutterReport};
pub use timeline::{render_timeline, TimelineStyle};
