//! Deterministic discrete-event simulation core for the D-VSync reproduction.
//!
//! Every other crate in the workspace builds on the primitives here:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a stable, deterministic future-event list: a small
//!   sorted run queue sized for the handful of events a run holds pending,
//! * [`round_u64`] / [`round_i64`] — `f64::round` then `as u64` / `as i64`,
//!   bit for bit, without the software rounding routine the x86-64
//!   baseline target would call,
//! * [`SimRng`] — a seedable, reproducible pseudo-random number generator
//!   (xoshiro256**), independent of platform entropy so that every simulation
//!   run is replayable from its seed.
//!
//! # Examples
//!
//! ```
//! use dvs_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.schedule(SimTime::ZERO, "now");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "now");
//! assert_eq!(t, SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod event;
mod hash;
mod rng;
mod time;

pub use error::{DvsError, DvsResult};
pub use event::EventQueue;
pub use hash::{fnv1a, Fnv1a, FNV_OFFSET, FNV_PRIME};
pub use rng::{stable_seed, SimRng};
pub use time::{round_i64, round_u64, SimDuration, SimTime};
