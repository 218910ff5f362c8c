//! Fault plans: the declarative description of a run's adversity.

use dvs_sim::{stable_seed, SimDuration, SimRng};
use serde::{Deserialize, Serialize};

use crate::schedule::FaultSchedule;

/// One explicitly scheduled perturbation.
///
/// `frame` indices address the workload trace (0-based production order);
/// `tick` indices address the hardware refresh timeline. Events outside the
/// materialization horizon are silently dropped — a plan may be reused
/// across traces of different lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The UI thread pauses for `extra` while producing frame `frame`
    /// (GC pause, binder stall, touch-handler hiccup).
    StallUi {
        /// Trace frame index the stall hits.
        frame: u64,
        /// Extra UI-stage time.
        extra: SimDuration,
    },
    /// The render stage of frame `frame` takes `extra` longer
    /// (GPU contention, shader compile, thermal clock dip).
    StallRs {
        /// Trace frame index the stall hits.
        frame: u64,
        /// Extra RS-stage time.
        extra: SimDuration,
    },
    /// Hardware VSync pulse `tick` is swallowed entirely: no latch, no
    /// present opportunity at that refresh.
    MissVsync {
        /// The refresh index that never fires.
        tick: u64,
    },
    /// Hardware VSync pulse `tick` fires `delay` late (clamped to a quarter
    /// period so pulses stay ordered).
    JitterVsync {
        /// The refresh index that fires late.
        tick: u64,
        /// How late it fires.
        delay: SimDuration,
    },
    /// Buffer allocation transiently fails during refresh interval `tick`:
    /// the producer's dequeue is denied and retried next opportunity.
    DenyAlloc {
        /// The refresh interval during which dequeues fail.
        tick: u64,
    },
    /// The panel switches to `rate_hz` at `tick` (LTPO glitch when
    /// unexpected, thermal rate cap when sustained — model a cap as a
    /// switch down now and a switch back up later).
    RateSwitch {
        /// The refresh index at which the new rate takes effect.
        tick: u64,
        /// The new refresh rate in Hz.
        rate_hz: u32,
    },
}

impl FaultEvent {
    /// The event as it lands in a run over `horizon`, or `None` when the run
    /// never sees it. Ticks clamp to ≥ 1 (tick 0 anchors the timeline; an
    /// allocation denial may still name it), injected delay clamps to
    /// `max_jitter` so pulses stay ordered, zero-sized stalls and delays and
    /// 0 Hz switches are dropped, and so is anything past the horizon.
    pub(crate) fn resolve(self, horizon: &Horizon, max_jitter: SimDuration) -> Option<FaultEvent> {
        match self {
            FaultEvent::StallUi { frame, extra } | FaultEvent::StallRs { frame, extra } => {
                (frame < horizon.frames && !extra.is_zero()).then_some(self)
            }
            FaultEvent::MissVsync { tick } => {
                let tick = tick.max(1);
                (tick <= horizon.ticks).then_some(FaultEvent::MissVsync { tick })
            }
            FaultEvent::JitterVsync { tick, delay } => {
                let tick = tick.max(1);
                (tick <= horizon.ticks && !delay.is_zero())
                    .then(|| FaultEvent::JitterVsync { tick, delay: delay.min(max_jitter) })
            }
            FaultEvent::DenyAlloc { tick } => (tick <= horizon.ticks).then_some(self),
            FaultEvent::RateSwitch { tick, rate_hz } => {
                let tick = tick.max(1);
                (tick <= horizon.ticks && rate_hz > 0)
                    .then_some(FaultEvent::RateSwitch { tick, rate_hz })
            }
        }
    }
}

/// The kind of a seeded-stochastic fault process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StochasticKind {
    /// Per-frame chance of a render-stage (GPU) stall.
    GpuStall,
    /// Per-frame chance of a UI-thread pause.
    UiPause,
    /// Per-tick chance of a swallowed VSync pulse.
    VsyncMiss,
    /// Per-tick chance of a late VSync pulse.
    VsyncJitter,
    /// Per-tick chance of buffer-allocation denial.
    AllocFail,
}

/// A seeded-stochastic fault process: every frame (or tick, depending on
/// `kind`) independently suffers the fault with `probability`; stall and
/// jitter magnitudes are drawn around `magnitude` (0.5×–1.5×).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StochasticFault {
    /// Which fault process this is.
    pub kind: StochasticKind,
    /// Per-frame/per-tick firing probability, clamped to `[0, 1]`.
    pub probability: f64,
    /// Characteristic stall/delay size (ignored for `VsyncMiss`/`AllocFail`).
    pub magnitude: SimDuration,
}

/// The run horizon a plan is materialized over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Horizon {
    /// Number of trace frames the run will produce.
    pub frames: u64,
    /// Number of refresh ticks covered (use the run's tick cap).
    pub ticks: u64,
    /// Nominal refresh period, used to clamp injected VSync jitter.
    pub period: SimDuration,
}

impl Horizon {
    /// Creates a horizon.
    pub fn new(frames: u64, ticks: u64, period: SimDuration) -> Self {
        Horizon { frames, ticks, period }
    }

    /// The largest injected pulse delay: a quarter of the nominal period.
    pub(crate) fn max_jitter(&self) -> SimDuration {
        SimDuration::from_nanos((self.period.as_nanos() / 4).max(1))
    }
}

/// One stochastic process part-way through its own forked stream.
#[derive(Clone, Debug)]
pub(crate) struct Draw {
    fault: StochasticFault,
    rng: SimRng,
}

impl Draw {
    /// The kind of process this is.
    pub(crate) fn kind(&self) -> StochasticKind {
        self.fault.kind
    }

    /// Whether the process fires per trace frame (stalls) rather than per
    /// refresh tick.
    pub(crate) fn per_frame(&self) -> bool {
        matches!(self.fault.kind, StochasticKind::GpuStall | StochasticKind::UiPause)
    }

    /// Draws the process at index `at`: a frame for stalls, a tick
    /// otherwise. A process must draw its indices in order, each once —
    /// frames from 0, ticks from 1 — for its stream to be the plan's.
    pub(crate) fn draw(&mut self, at: u64) -> Option<FaultEvent> {
        let fault = self.fault;
        if !self.rng.chance(fault.probability) {
            return None;
        }
        let mut sized = || {
            let size = fault.magnitude.mul_f64(self.rng.next_range(0.5, 1.5));
            (!size.is_zero()).then_some(size)
        };
        match fault.kind {
            StochasticKind::GpuStall => {
                sized().map(|extra| FaultEvent::StallRs { frame: at, extra })
            }
            StochasticKind::UiPause => {
                sized().map(|extra| FaultEvent::StallUi { frame: at, extra })
            }
            StochasticKind::VsyncMiss => Some(FaultEvent::MissVsync { tick: at }),
            StochasticKind::VsyncJitter => {
                sized().map(|delay| FaultEvent::JitterVsync { tick: at, delay })
            }
            StochasticKind::AllocFail => Some(FaultEvent::DenyAlloc { tick: at }),
        }
    }
}

/// A declarative fault plan: scheduled events plus stochastic processes,
/// all derived from one stable textual seed key.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Explicitly scheduled perturbations.
    pub scheduled: Vec<FaultEvent>,
    /// Seeded-stochastic fault processes.
    pub stochastic: Vec<StochasticFault>,
    /// Textual seed key fed to [`dvs_sim::stable_seed`]; the *only* source
    /// of randomness for the whole plan.
    pub seed_key: String,
}

impl FaultPlan {
    /// An empty plan with the given seed key.
    pub fn new(seed_key: impl Into<String>) -> Self {
        FaultPlan { scheduled: Vec::new(), stochastic: Vec::new(), seed_key: seed_key.into() }
    }

    /// Adds a scheduled event (builder style).
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.scheduled.push(event);
        self
    }

    /// Adds a stochastic fault process (builder style).
    pub fn with_stochastic(mut self, fault: StochasticFault) -> Self {
        self.stochastic.push(fault);
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_clean(&self) -> bool {
        self.scheduled.is_empty() && self.stochastic.is_empty()
    }

    /// Each stochastic process with its own stream, in plan order: the root
    /// is `stable_seed(seed_key)` and process `i` forks stream `i + 1`.
    pub(crate) fn draws(&self) -> impl Iterator<Item = Draw> + '_ {
        let mut root = SimRng::seed_from(stable_seed(&self.seed_key));
        self.stochastic
            .iter()
            .enumerate()
            .map(move |(i, &fault)| Draw { fault, rng: root.fork(i as u64 + 1) })
    }

    /// Resolves the plan into a concrete [`FaultSchedule`] over `horizon`.
    ///
    /// Determinism: the root RNG is `stable_seed(seed_key)`; each stochastic
    /// process gets its own forked stream (by position in the plan) and is
    /// swept over its whole frame/tick domain in index order. No draw
    /// depends on any other process, on query order, or on the simulator's
    /// progress, so `(plan, horizon) → schedule` is a pure function.
    /// [`CompiledFaults::from_plan`](crate::CompiledFaults::from_plan) makes
    /// the same draws, but only as far as a run reaches.
    pub fn materialize(&self, horizon: &Horizon) -> FaultSchedule {
        let mut schedule = FaultSchedule::default();
        let max_jitter = horizon.max_jitter();

        for event in &self.scheduled {
            schedule.apply_event(*event, horizon, max_jitter);
        }

        for mut process in self.draws() {
            if process.per_frame() {
                for frame in 0..horizon.frames {
                    if let Some(event) = process.draw(frame) {
                        schedule.apply_event(event, horizon, max_jitter);
                    }
                }
            } else {
                for tick in 1..=horizon.ticks {
                    if let Some(event) = process.draw(tick) {
                        schedule.apply_event(event, horizon, max_jitter);
                    }
                }
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> Horizon {
        Horizon::new(50, 200, SimDuration::from_nanos(16_666_667))
    }

    #[test]
    fn clean_plan_yields_empty_schedule() {
        let plan = FaultPlan::new("nothing");
        let s = plan.materialize(&horizon());
        assert!(s.is_empty());
        assert_eq!(s.fault_count(), 0);
        assert!(plan.is_clean());
    }

    #[test]
    fn materialization_is_deterministic() {
        let plan = FaultPlan::new("det")
            .with_stochastic(StochasticFault {
                kind: StochasticKind::GpuStall,
                probability: 0.3,
                magnitude: SimDuration::from_millis(10),
            })
            .with_stochastic(StochasticFault {
                kind: StochasticKind::VsyncMiss,
                probability: 0.1,
                magnitude: SimDuration::ZERO,
            });
        assert_eq!(plan.materialize(&horizon()), plan.materialize(&horizon()));
    }

    #[test]
    fn different_seed_keys_diverge() {
        let mk = |key: &str| {
            FaultPlan::new(key)
                .with_stochastic(StochasticFault {
                    kind: StochasticKind::UiPause,
                    probability: 0.5,
                    magnitude: SimDuration::from_millis(5),
                })
                .materialize(&horizon())
        };
        assert_ne!(mk("alpha"), mk("beta"));
    }

    #[test]
    fn scheduled_events_land_where_told() {
        let plan = FaultPlan::new("sched")
            .with_event(FaultEvent::StallUi { frame: 7, extra: SimDuration::from_millis(4) })
            .with_event(FaultEvent::MissVsync { tick: 12 })
            .with_event(FaultEvent::DenyAlloc { tick: 3 });
        let s = plan.materialize(&horizon());
        assert_eq!(s.ui_extra(7), SimDuration::from_millis(4));
        assert!(s.is_missed(12));
        assert!(s.deny_alloc(3));
        assert_eq!(s.fault_count(), 3);
    }

    #[test]
    fn events_beyond_horizon_are_dropped() {
        let plan = FaultPlan::new("far")
            .with_event(FaultEvent::StallRs { frame: 999, extra: SimDuration::from_millis(1) })
            .with_event(FaultEvent::MissVsync { tick: 9_999 });
        assert!(plan.materialize(&horizon()).is_empty());
    }

    #[test]
    fn jitter_clamped_to_quarter_period() {
        let h = horizon();
        let plan = FaultPlan::new("jit")
            .with_event(FaultEvent::JitterVsync { tick: 5, delay: SimDuration::from_secs(1) });
        let s = plan.materialize(&h);
        assert!(s.tick_delay(5).as_nanos() <= h.period.as_nanos() / 4);
        assert!(!s.tick_delay(5).is_zero());
    }

    #[test]
    fn probability_one_hits_every_index() {
        let h = horizon();
        let plan = FaultPlan::new("all").with_stochastic(StochasticFault {
            kind: StochasticKind::AllocFail,
            probability: 1.0,
            magnitude: SimDuration::ZERO,
        });
        let s = plan.materialize(&h);
        assert!((1..=h.ticks).all(|t| s.deny_alloc(t)));
    }

    #[test]
    fn rate_switches_sorted_and_deduped() {
        let plan = FaultPlan::new("rates")
            .with_event(FaultEvent::RateSwitch { tick: 90, rate_hz: 60 })
            .with_event(FaultEvent::RateSwitch { tick: 30, rate_hz: 120 })
            .with_event(FaultEvent::RateSwitch { tick: 90, rate_hz: 90 })
            .with_event(FaultEvent::RateSwitch { tick: 0, rate_hz: 144 })
            .with_event(FaultEvent::RateSwitch { tick: 40, rate_hz: 0 });
        let s = plan.materialize(&horizon());
        // tick 0 clamps to 1, duplicate tick 90 keeps the later entry,
        // rate 0 is rejected, and the result is strictly increasing.
        assert_eq!(s.rate_switches(), &[(1, 144), (30, 120), (90, 90)]);
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::new("rt")
            .with_event(FaultEvent::JitterVsync { tick: 2, delay: SimDuration::from_micros(500) })
            .with_stochastic(StochasticFault {
                kind: StochasticKind::VsyncJitter,
                probability: 0.2,
                magnitude: SimDuration::from_millis(1),
            });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.materialize(&horizon()), plan.materialize(&horizon()));
    }
}
