//! The figure/table reproduction harness.
//!
//! One module per artefact of the paper's evaluation (§6). Each module
//! exposes a `run()` returning structured results plus a `render()` that
//! prints rows/series in the shape the paper reports. The `repro` binary
//! drives them from the command line; integration tests assert the shapes
//! (who wins, by roughly what factor) without pinning absolute numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod checkpoint;
pub mod compose;
pub mod costs;
pub mod faultmatrix;
pub mod fig01_cdf;
pub mod fig03_pixels;
pub mod fig04_features;
pub mod fig05_summary;
pub mod fig06_distribution;
pub mod fig07_ball;
pub mod fig09_scope;
pub mod fig10_trace;
pub mod fig11_apps;
pub mod fig12_13_oscases;
pub mod fig14_games;
pub mod fig15_latency;
pub mod fig16_map;
pub mod fleet;
pub mod fps_report;
pub mod golden;
pub mod power;
pub mod resilient;
pub mod sec66_chromium;
pub mod suite;
pub mod suite75;
pub mod sweep;
pub mod sweepbench;
pub mod table1_devices;
pub mod table2_stutters;
pub mod tracetool;

pub use checkpoint::{CellSlot, Checkpoint, QuarantinedSlot, CHECKPOINT_VERSION};
pub use fleet::{
    fleet_fingerprint, fleet_trace_path, run_fleet_resilient, run_fleet_resilient_with,
    run_fleet_shard, FleetEngine, FleetReport, ResilientFleet, BATCH_WIDTH, FRAMES_PER_DEVICE,
};
pub use resilient::{
    grid_fingerprint, run_compose_resilient, run_suite_resilient, tiny_suite, CheckpointConfig,
    ComposeReport, ExecFaults, ResilienceConfig, ResilientCompose, ResilientSweep, RetryPolicy,
    SweepReport,
};
pub use suite::{run_suite, SuiteResult, SuiteRow};
pub use sweep::{
    FittedScenario, GridCache, PacerKind, SweepCell, SweepEngine, SweepGrid, SweepMode, SweepStats,
};
