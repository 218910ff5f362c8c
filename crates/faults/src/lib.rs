//! Deterministic fault injection for the D-VSync simulator.
//!
//! A [`FaultPlan`] describes *what can go wrong* during a run: explicitly
//! scheduled perturbations ([`FaultEvent`]) plus seeded-stochastic fault
//! processes ([`StochasticFault`]). The plan resolves over the run's horizon
//! in one of two equivalent forms: [`FaultPlan::materialize`] builds a
//! [`FaultSchedule`] — every fault firing up to the horizon, in canonical
//! ordered maps — and [`CompiledFaults::from_plan`] builds the dense lookup
//! tables the simulator's event loop reads, drawing each per-tick process
//! only as far as the run reaches.
//!
//! # Determinism contract
//!
//! Every stochastic draw is seeded from [`dvs_sim::stable_seed`] of the
//! plan's textual `seed_key`; each process owns a forked stream and draws
//! its frames or ticks in index order. The fault stream is therefore a pure
//! function of `(plan, horizon)`:
//!
//! * identical plan + seed ⇒ byte-identical fault stream, run after run,
//!   regardless of worker thread, query order, or wall clock;
//! * how far a run gets decides how many ticks [`CompiledFaults`] draws,
//!   never what they hold, so *when* the simulator consults the stream
//!   cannot perturb *what* faults fire.
//!
//! This is what makes a faulty run replayable: record the plan, not the
//! symptoms.
//!
//! # Examples
//!
//! ```
//! use dvs_faults::{FaultPlan, Horizon, StochasticFault, StochasticKind};
//! use dvs_sim::SimDuration;
//!
//! let plan = FaultPlan::new("demo")
//!     .with_stochastic(StochasticFault {
//!         kind: StochasticKind::GpuStall,
//!         probability: 0.1,
//!         magnitude: SimDuration::from_millis(12),
//!     });
//! let horizon = Horizon::new(100, 300, SimDuration::from_nanos(16_666_667));
//! let a = plan.materialize(&horizon);
//! let b = plan.materialize(&horizon);
//! assert_eq!(a, b, "same plan + seed => identical schedule");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod plan;
mod profiles;
mod schedule;

pub use compiled::CompiledFaults;
pub use plan::{FaultEvent, FaultPlan, Horizon, StochasticFault, StochasticKind};
pub use profiles::{named_profile, profile_names};
pub use schedule::FaultSchedule;
