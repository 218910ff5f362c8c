//! Deterministic population sampling for fleet-scale simulation.
//!
//! A [`FleetSpec`] describes a *population* of devices as weighted marginals
//! over five axes — device model, refresh rate, buffer capacity, workload
//! mix, and fault profile — plus a seed. The population itself is never
//! stored: [`FleetSpec::device`] expands device `i` as a pure function of
//! `(seed, i)` (a forked [`SimRng`] stream per index), so any shard of the
//! index space can be sampled independently, in any order, on any worker,
//! and still produce the identical device. That is the property that lets
//! the fleet runner treat shards as resilient-executor cells: a retried or
//! resumed shard re-derives exactly the devices it covered before.
//!
//! The sampler draws the axes in a fixed order (model, rate, buffers, mix,
//! fault profile, then the trace seed), so adding devices to the population
//! never disturbs earlier indices.

use std::fmt::Write;
use std::ops::Range;

use dvs_sim::{stable_seed, SimRng};

use crate::devices::{Device, MATE_40_PRO, MATE_60_PRO, PIXEL_5};
use crate::generator::fill_costs;
use crate::{Backend, CostProfile, FrameTrace, ScenarioSpec};

/// One weighted choice on a population axis.
#[derive(Clone, Debug, PartialEq)]
pub struct Weighted<T> {
    /// Relative weight (marginal probability is `weight / Σ weights`).
    pub weight: u32,
    /// The drawn value.
    pub item: T,
}

/// Shorthand for building a weighted axis entry.
pub fn weighted<T>(weight: u32, item: T) -> Weighted<T> {
    Weighted { weight, item }
}

/// A device model in the population: a Table 1 platform plus the refresh
/// ladder it supports (an LTPO panel can run below its peak rate).
#[derive(Clone, Debug, PartialEq)]
pub struct FleetModel {
    /// The hardware platform.
    pub device: Device,
    /// Supported refresh rates with marginal weights.
    pub rates: Vec<Weighted<u32>>,
}

/// A workload family: a named frame-cost process.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadMix {
    /// Stable family name (part of the population fingerprint).
    pub name: &'static str,
    /// The frame-cost process parameters.
    pub cost: CostProfile,
}

/// A seeded device population: weighted marginals over the five fleet axes.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSpec {
    /// Population name (seeds per-device trace names and fault streams).
    pub name: String,
    /// Root seed; every device derives from `(seed, index)` alone.
    pub seed: u64,
    /// Population size.
    pub devices: u64,
    /// Frames simulated per device.
    pub frames: usize,
    /// Device-model axis (each with its own refresh ladder).
    pub models: Vec<Weighted<FleetModel>>,
    /// D-VSync buffer-capacity axis.
    pub buffers: Vec<Weighted<usize>>,
    /// Workload-mix axis.
    pub mixes: Vec<Weighted<WorkloadMix>>,
    /// Fault-profile axis, by `dvs_faults::named_profile` name ("clean"
    /// runs unfaulted).
    pub fault_profiles: Vec<Weighted<&'static str>>,
}

/// One fully expanded device: everything a worker needs to run index `i`.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceRun {
    /// Population index.
    pub index: u64,
    /// Device model name.
    pub model: &'static str,
    /// Sampled refresh rate in Hz.
    pub rate_hz: u32,
    /// Sampled D-VSync buffer capacity.
    pub buffers: usize,
    /// Sampled workload-mix name.
    pub mix: &'static str,
    /// The mix's frame-cost process.
    pub cost: CostProfile,
    /// Sampled fault-profile name ("clean" = unfaulted).
    pub fault_profile: &'static str,
    /// Seed of this device's frame trace.
    pub trace_seed: u64,
    /// Frames to simulate.
    pub frames: usize,
}

impl DeviceRun {
    /// Whether this device runs without fault injection.
    pub fn is_clean(&self) -> bool {
        self.fault_profile == "clean"
    }

    /// The per-device scenario: the sampled cost process at the sampled
    /// rate, seeded by the device's own trace seed (not the name hash).
    pub fn scenario(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            format!("fleet/{}/{}", self.mix, self.index),
            self.rate_hz,
            self.frames,
            self.cost,
        );
        spec.seed = self.trace_seed;
        spec
    }

    /// Generates this device's frame trace.
    pub fn trace(&self) -> FrameTrace {
        let mut trace = FrameTrace::new(String::new(), self.rate_hz);
        self.trace_into(&mut trace);
        trace
    }

    /// Generates this device's frame trace into `trace`, reusing its
    /// allocations: the same trace as [`DeviceRun::scenario`] generates,
    /// without building the spec (whose name hash the device's own trace
    /// seed overrides).
    pub fn trace_into(&self, trace: &mut FrameTrace) {
        self.cost.validate();
        trace.name.clear();
        // Formatting into a String cannot fail.
        let _ = write!(trace.name, "fleet/{}/{}", self.mix, self.index);
        trace.rate_hz = self.rate_hz;
        trace.backend = Backend::Gles;
        fill_costs(
            &self.cost,
            trace.period(),
            self.frames,
            self.trace_seed,
            &mut trace.frames,
            |_, _, _| {},
        );
    }

    /// The seed key for this device's fault plan, unique per
    /// (population, index).
    pub fn fault_seed_key(&self, population: &str) -> String {
        format!("fleet/{population}/{}/{}", self.fault_profile, self.index)
    }
}

/// Draws one item from a weighted axis. An empty axis or an all-zero axis
/// falls back to the first entry (validated away by [`FleetSpec::validate`];
/// the fallback keeps the sampler panic-free).
fn pick<'a, T>(axis: &'a [Weighted<T>], rng: &mut SimRng) -> Option<&'a T> {
    let total: u64 = axis.iter().map(|w| u64::from(w.weight)).sum();
    if total == 0 {
        return axis.first().map(|w| &w.item);
    }
    let mut draw = rng.next_below(total);
    for w in axis {
        let weight = u64::from(w.weight);
        if draw < weight {
            return Some(&w.item);
        }
        draw -= weight;
    }
    None
}

impl FleetSpec {
    /// Checks that every axis is non-empty with positive total weight and
    /// the population is non-degenerate.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("fleet population must contain at least one device".into());
        }
        if self.frames == 0 {
            return Err("fleet devices must simulate at least one frame".into());
        }
        let axis_ok = |len: usize, total: u64, what: &str| {
            if len == 0 || total == 0 {
                Err(format!("fleet axis `{what}` needs at least one positively weighted entry"))
            } else {
                Ok(())
            }
        };
        axis_ok(
            self.models.len(),
            self.models.iter().map(|w| u64::from(w.weight)).sum(),
            "models",
        )?;
        for m in &self.models {
            axis_ok(
                m.item.rates.len(),
                m.item.rates.iter().map(|w| u64::from(w.weight)).sum(),
                "rates",
            )?;
        }
        axis_ok(
            self.buffers.len(),
            self.buffers.iter().map(|w| u64::from(w.weight)).sum(),
            "buffers",
        )?;
        axis_ok(self.mixes.len(), self.mixes.iter().map(|w| u64::from(w.weight)).sum(), "mixes")?;
        axis_ok(
            self.fault_profiles.len(),
            self.fault_profiles.iter().map(|w| u64::from(w.weight)).sum(),
            "fault_profiles",
        )?;
        if self.buffers.iter().any(|w| w.item < 3) {
            return Err("fleet buffer capacities below 3 cannot pace D-VSync".into());
        }
        Ok(())
    }

    /// Expands device `index` — a pure function of `(self.seed, index)`.
    ///
    /// Returns `None` only for a spec that fails [`FleetSpec::validate`]
    /// (an empty axis); validated specs always expand.
    pub fn device(&self, index: u64) -> Option<DeviceRun> {
        let mut root = SimRng::seed_from(self.seed);
        let mut rng = root.fork(index);
        let model = pick(&self.models, &mut rng)?;
        let rate_hz = *pick(&model.rates, &mut rng)?;
        let buffers = *pick(&self.buffers, &mut rng)?;
        let mix = pick(&self.mixes, &mut rng)?;
        let fault_profile = *pick(&self.fault_profiles, &mut rng)?;
        let trace_seed = rng.next_u64();
        Some(DeviceRun {
            index,
            model: model.device.name,
            rate_hz,
            buffers,
            mix: mix.name,
            cost: mix.cost,
            fault_profile,
            trace_seed,
            frames: self.frames,
        })
    }

    /// The contiguous index range shard `shard` of `shards` covers. The
    /// ranges are disjoint by construction and their union is exactly
    /// `0..devices` (trailing shards may be empty when `shards` exceeds the
    /// population).
    pub fn shard_range(&self, shard: usize, shards: usize) -> Range<u64> {
        if shards == 0 {
            return 0..0;
        }
        let per = self.devices.div_ceil(shards as u64);
        let lo = (shard as u64).saturating_mul(per).min(self.devices);
        let hi = (shard as u64 + 1).saturating_mul(per).min(self.devices);
        lo..hi
    }

    /// A canonical, human-readable description of the population. Every
    /// field that affects sampled devices appears here; the fleet runner
    /// fingerprints this string for checkpoint compatibility.
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "fleet-spec v1;name={};seed={:#018x};devices={};frames={}",
            self.name, self.seed, self.devices, self.frames
        );
        for m in &self.models {
            s.push_str(&format!(";model={}@{}:", m.item.device.name, m.weight));
            for r in &m.item.rates {
                s.push_str(&format!("{}hz@{},", r.item, r.weight));
            }
        }
        for b in &self.buffers {
            s.push_str(&format!(";buffers={}@{}", b.item, b.weight));
        }
        for m in &self.mixes {
            s.push_str(&format!(";mix={}@{}", m.item.name, m.weight));
        }
        for f in &self.fault_profiles {
            s.push_str(&format!(";faults={}@{}", f.item, f.weight));
        }
        s
    }

    /// The canonical mixed population: all three Table 1 platforms with
    /// LTPO refresh ladders, stock-to-deep buffer queues, the three
    /// workload families, and a mostly-clean fault mixture.
    pub fn default_population(name: impl Into<String>, devices: u64, frames: usize) -> Self {
        let name = name.into();
        let seed = stable_seed(&format!("fleet/{name}"));
        FleetSpec {
            name,
            seed,
            devices,
            frames,
            models: vec![
                weighted(3, FleetModel { device: PIXEL_5, rates: vec![weighted(1, 60)] }),
                weighted(
                    3,
                    FleetModel {
                        device: MATE_40_PRO,
                        rates: vec![weighted(1, 60), weighted(2, 90)],
                    },
                ),
                weighted(
                    4,
                    FleetModel {
                        device: MATE_60_PRO,
                        rates: vec![weighted(1, 60), weighted(1, 90), weighted(2, 120)],
                    },
                ),
            ],
            buffers: vec![weighted(5, 4), weighted(3, 5), weighted(2, 7)],
            mixes: vec![
                weighted(
                    5,
                    WorkloadMix { name: "app-scattered", cost: CostProfile::scattered(2.0) },
                ),
                weighted(
                    3,
                    WorkloadMix { name: "game-clustered", cost: CostProfile::clustered(1.5) },
                ),
                weighted(2, WorkloadMix { name: "smooth", cost: CostProfile::smooth() }),
            ],
            fault_profiles: vec![
                weighted(12, "clean"),
                weighted(2, "gpu-spikes"),
                weighted(2, "ui-pauses"),
                weighted(2, "vsync-noise"),
                weighted(1, "thermal-cap"),
                weighted(1, "mixed"),
            ],
        }
    }

    /// The tiny fixture population used by goldens, differential walls, and
    /// chaos tests: small enough to run in milliseconds, mixed enough to
    /// exercise every axis.
    pub fn tiny(devices: u64, frames: usize) -> Self {
        FleetSpec::default_population("tiny", devices, frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_a_pure_function_of_seed_and_index() {
        let spec = FleetSpec::tiny(64, 30);
        for i in [0u64, 1, 13, 63] {
            assert_eq!(spec.device(i), spec.device(i), "index {i} must expand identically");
        }
        // A different seed produces a different population.
        let mut other = spec.clone();
        other.seed ^= 1;
        let differs = (0..64).any(|i| spec.device(i) != other.device(i));
        assert!(differs, "seed must matter");
    }

    #[test]
    fn pooled_device_traces_match_the_device_scenario() {
        // One pooled trace, refilled across devices of every rate and mix,
        // must hold exactly what each device's own scenario generates.
        let spec = FleetSpec::tiny(200, 45);
        let mut pooled = FrameTrace::new("stale", 1);
        for i in 0..200 {
            let dev = spec.device(i).unwrap();
            let expected = dev.scenario().generate();
            dev.trace_into(&mut pooled);
            assert_eq!(pooled, expected, "device {i}");
            assert_eq!(dev.trace(), expected, "device {i}");
        }
    }

    #[test]
    fn later_indices_do_not_disturb_earlier_ones() {
        let small = FleetSpec::tiny(10, 30);
        let mut large = small.clone();
        large.devices = 1000;
        for i in 0..10 {
            assert_eq!(small.device(i), large.device(i));
        }
    }

    #[test]
    fn shards_partition_the_population_exactly() {
        let spec = FleetSpec::tiny(103, 30);
        for shards in [1usize, 2, 3, 7, 16, 103, 200] {
            let mut covered = 0u64;
            let mut next = 0u64;
            for s in 0..shards {
                let r = spec.shard_range(s, shards);
                assert!(r.start <= r.end);
                assert_eq!(r.start.max(next), r.start, "ranges must not overlap");
                if !r.is_empty() {
                    assert_eq!(r.start, next, "ranges must be contiguous");
                    next = r.end;
                }
                covered += r.end - r.start;
            }
            assert_eq!(covered, 103, "{shards} shards must cover the population");
            assert_eq!(next, 103);
        }
    }

    #[test]
    fn default_population_validates_and_spans_axes() {
        let spec = FleetSpec::tiny(400, 30);
        spec.validate().unwrap();
        let mut models = std::collections::BTreeSet::new();
        let mut rates = std::collections::BTreeSet::new();
        let mut profiles = std::collections::BTreeSet::new();
        let mut clean = 0usize;
        for i in 0..400 {
            let d = spec.device(i).unwrap();
            models.insert(d.model);
            rates.insert(d.rate_hz);
            profiles.insert(d.fault_profile);
            clean += d.is_clean() as usize;
        }
        assert_eq!(models.len(), 3, "all three platforms should appear");
        assert!(rates.contains(&60) && rates.contains(&90) && rates.contains(&120));
        assert!(profiles.len() >= 4, "fault mixture should appear: {profiles:?}");
        // Roughly 60% clean (12 of 20 weight); allow wide slack.
        assert!((150..=330).contains(&clean), "clean fraction off: {clean}/400");
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let mut spec = FleetSpec::tiny(10, 30);
        spec.devices = 0;
        assert!(spec.validate().is_err());
        let mut spec = FleetSpec::tiny(10, 30);
        spec.models.clear();
        assert!(spec.validate().is_err());
        let mut spec = FleetSpec::tiny(10, 30);
        for w in &mut spec.buffers {
            w.weight = 0;
        }
        assert!(spec.validate().is_err());
        let mut spec = FleetSpec::tiny(10, 30);
        spec.buffers.push(weighted(1, 2));
        assert!(spec.validate().is_err(), "buffer capacity 2 cannot pace D-VSync");
    }

    #[test]
    fn device_traces_are_seeded_per_index() {
        let spec = FleetSpec::tiny(8, 24);
        let a = spec.device(3).unwrap();
        let b = spec.device(4).unwrap();
        let ta = a.trace();
        assert_eq!(ta.frames.len(), 24);
        assert_eq!(ta, a.trace(), "trace generation must be deterministic");
        if a.mix == b.mix && a.rate_hz == b.rate_hz {
            assert_ne!(a.trace_seed, b.trace_seed, "distinct indices, distinct streams");
        }
        assert_eq!(spec.canonical(), spec.canonical());
    }
}
