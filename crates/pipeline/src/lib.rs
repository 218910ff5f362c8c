//! The rendering-pipeline simulator: the baseline VSync architecture of §2,
//! and the [`FramePacer`] seam that D-VSync (in `dvs-core`) plugs into.
//!
//! One [`Simulator`] run replays a [`FrameTrace`](dvs_workload::FrameTrace)
//! through a two-stage producer (app UI thread → render service/thread)
//! feeding a [`BufferQueue`](dvs_buffer::BufferQueue) that a
//! [`Panel`](dvs_display::Panel) consumes every HW-VSync. *When* each frame's
//! execution is triggered — at VSync cadence, or decoupled ahead of it — is
//! delegated to a [`FramePacer`]:
//!
//! * [`VsyncPacer`] reproduces Project-Butter VSync: one trigger per VSync-app
//!   signal, with choreographer-style catch-up after a long frame;
//! * `DvsyncPacer` (in `dvs-core`) implements the paper's Frame Pre-Executor
//!   and Display Time Virtualizer.
//!
//! The run yields a [`RunReport`](dvs_metrics::RunReport) with every frame's
//! trigger/queue/present timestamps, classification, and every jank.
//!
//! # Examples
//!
//! ```
//! use dvs_pipeline::{PipelineConfig, Simulator, VsyncPacer};
//! use dvs_workload::{CostProfile, ScenarioSpec};
//!
//! let spec = ScenarioSpec::new("quick", 60, 120, CostProfile::smooth());
//! let trace = spec.generate();
//! let cfg = PipelineConfig::new(60, 3);
//! let report = Simulator::new(&cfg).run(&trace, &mut VsyncPacer::new());
//! assert_eq!(report.records.len(), 120);
//! assert_eq!(report.janks.len(), 0, "a smooth trace never janks");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod composite;
mod config;
mod core;
mod pacer;
mod runner;
mod simulator;

pub use calibrate::{calibrate_spec, calibrate_spec_pooled, CalibrationOutcome};
pub use composite::{CompositeSim, CompositeStats, SurfaceRun};
pub use config::PipelineConfig;
pub use core::batch::{run_batch, BatchLane};
pub use core::{CompositeArena, CoreStats, RunArena, SimCore};
pub use pacer::{FramePacer, FramePlan, PacerCtx, VsyncPacer};
pub use runner::{run_segmented, run_segments_into};
pub use simulator::Simulator;
