//! Property-based tests on the compositor: invariants that must hold for
//! *any* surface mix under *any* policy assignment.
//!
//! Strategies generate M ≤ 4 surfaces — random traces, pacing paths
//! (Classic / D-VSync / low-latency), priorities, buffer capacities — and a
//! random compose budget, then check:
//!
//! * **jobs conservation**: every surface presents every frame exactly once,
//!   in sequence order, with strictly increasing present ticks — no frame is
//!   lost or duplicated by composition, whatever the contention;
//! * **registration-order independence**: shuffled `with_surface` order
//!   produces byte-identical `CompositeReport` JSON;
//! * **replay determinism**: running the same compositor twice produces
//!   byte-identical JSON, and both execution engines agree;
//! * **sweep jobs-invariance**: the interference sweep at `--jobs 1` equals
//!   `--jobs 4` byte-for-byte.
//!
//! Shrunk regressions are pinned as explicit tests at the bottom; the
//! vendored proptest stub cannot replay `proptest-regressions` hashes.

use proptest::prelude::*;

use dvsync::compositor::{Compositor, Surface};
use dvsync::pipeline::SimCore;
use dvsync::sim::SimDuration;
use dvsync::workload::{FrameCost, FrameTrace, PacingPath};

/// One generated surface: name index keeps names unique per case.
#[derive(Clone, Debug)]
struct GenSurface {
    costs_us: Vec<(u64, u64)>,
    path: PacingPath,
    priority: u8,
    buffers: Option<usize>,
}

fn paths() -> impl Strategy<Value = PacingPath> {
    prop_oneof![Just(PacingPath::Classic), Just(PacingPath::Dvsync), Just(PacingPath::LowLatency),]
}

fn surfaces() -> impl Strategy<Value = GenSurface> {
    (
        prop::collection::vec((500u64..15_000, 500u64..30_000), 8..60),
        paths(),
        0u8..4,
        prop_oneof![Just(None), (3usize..7).prop_map(Some)],
    )
        .prop_map(|(costs_us, path, priority, buffers)| GenSurface {
            costs_us,
            path,
            priority,
            buffers,
        })
}

fn mixes() -> impl Strategy<Value = (u32, Vec<GenSurface>, Option<usize>)> {
    (
        prop_oneof![Just(60u32), Just(120)],
        prop::collection::vec(surfaces(), 1..5),
        prop_oneof![Just(None), (1usize..3).prop_map(Some)],
    )
}

fn build_trace(name: &str, rate: u32, costs_us: &[(u64, u64)]) -> FrameTrace {
    let mut t = FrameTrace::new(name, rate);
    for &(ui_us, rs_us) in costs_us {
        t.push(FrameCost::new(SimDuration::from_micros(ui_us), SimDuration::from_micros(rs_us)));
    }
    t
}

/// Builds a compositor registering surfaces in the order given by `order`
/// (indices into `gen`), naming each surface by its *original* index so a
/// permuted registration holds the same surface set.
fn build(
    rate: u32,
    gens: &[GenSurface],
    budget: Option<usize>,
    core: SimCore,
    order: &[usize],
) -> Compositor {
    let mut comp = Compositor::new(rate).with_core(core);
    if let Some(b) = budget {
        comp = comp.with_budget(b);
    }
    for &i in order {
        let g = &gens[i];
        let trace = build_trace(&format!("surface-{i}"), rate, &g.costs_us);
        let mut s = Surface::new(trace, g.path, g.priority);
        if let Some(b) = g.buffers {
            s = s.with_buffers(b);
        }
        comp = comp.with_surface(s).expect("names are unique by construction");
    }
    comp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Composition never loses or duplicates a frame: per surface, the
    /// report holds one record per trace frame, in order, presenting on
    /// strictly increasing ticks.
    #[test]
    fn composition_conserves_every_surfaces_frames(
        (rate, gens, budget) in mixes()
    ) {
        let order: Vec<usize> = (0..gens.len()).collect();
        let report = build(rate, &gens, budget, SimCore::EventHeap, &order)
            .run()
            .expect("generated mixes are valid");
        prop_assert_eq!(report.surfaces.len(), gens.len());
        for s in &report.surfaces {
            let idx: usize = s.name.strip_prefix("surface-").unwrap().parse().unwrap();
            prop_assert_eq!(s.report.records.len(), gens[idx].costs_us.len());
            for (k, r) in s.report.records.iter().enumerate() {
                prop_assert_eq!(r.seq, k as u64);
            }
            for w in s.report.records.windows(2) {
                prop_assert!(w[0].present_tick < w[1].present_tick);
            }
            // Deferred latches only exist under a finite budget.
            if budget.is_none() {
                prop_assert_eq!(s.deferred_latches, 0);
            }
        }
    }

    /// Registration order never changes the report: the canonical sort by
    /// name fixes the event ordering.
    #[test]
    fn registration_order_is_irrelevant(
        (rate, gens, budget) in mixes()
    ) {
        let forward: Vec<usize> = (0..gens.len()).collect();
        let reversed: Vec<usize> = (0..gens.len()).rev().collect();
        // A rotation covers the remaining distinct-order case for M ≥ 3.
        let rotated: Vec<usize> =
            (0..gens.len()).map(|i| (i + 1) % gens.len().max(1)).collect();
        let json = |order: &[usize]| {
            let report = build(rate, &gens, budget, SimCore::EventHeap, order)
                .run()
                .expect("valid");
            serde_json::to_string(&report).unwrap()
        };
        let canonical = json(&forward);
        prop_assert_eq!(&canonical, &json(&reversed));
        prop_assert_eq!(&canonical, &json(&rotated));
    }

    /// Same seed, same bytes — on both engines.
    #[test]
    fn replays_are_byte_identical_and_engines_agree(
        (rate, gens, budget) in mixes()
    ) {
        let order: Vec<usize> = (0..gens.len()).collect();
        let json = |core: SimCore| {
            let report = build(rate, &gens, budget, core, &order).run().expect("valid");
            serde_json::to_string(&report).unwrap()
        };
        let first = json(SimCore::EventHeap);
        prop_assert_eq!(&first, &json(SimCore::EventHeap), "replay diverged");
        prop_assert_eq!(&first, &json(SimCore::Reference), "engines diverged");
    }
}

/// The interference sweep is byte-identical for every worker count.
#[test]
fn compose_sweep_is_jobs_invariant() {
    let run = |jobs| {
        let out = dvs_bench::run_compose_resilient(jobs, &dvs_bench::ResilienceConfig::default())
            .expect("a compose sweep without checkpoints completes");
        assert!(!out.degraded(), "{}", out.report.quarantine.render());
        serde_json::to_string(&out.report.sweep).unwrap()
    };
    assert_eq!(run(1), run(4), "compose sweep must not depend on --jobs");
}

/// Pinned shrunk case: two single-frame surfaces, both D-VSync, budget 1.
/// Early shrink output of `composition_conserves_every_surfaces_frames`
/// while the budget-deferral accounting was being built — the minimal
/// contention shape (two eligible surfaces, one latch) must conserve both
/// frames and defer at most one of them per tick.
#[test]
fn regression_two_minimal_dvsync_surfaces_budget_one() {
    let gens = vec![
        GenSurface {
            costs_us: vec![(500, 500); 8],
            path: PacingPath::Dvsync,
            priority: 0,
            buffers: None,
        },
        GenSurface {
            costs_us: vec![(500, 500); 8],
            path: PacingPath::Dvsync,
            priority: 0,
            buffers: None,
        },
    ];
    let order = [0usize, 1];
    let report = build(60, &gens, Some(1), SimCore::EventHeap, &order).run().unwrap();
    for s in &report.surfaces {
        assert_eq!(s.report.records.len(), 8);
    }
    let reference = build(60, &gens, Some(1), SimCore::Reference, &order).run().unwrap();
    assert_eq!(serde_json::to_string(&report).unwrap(), serde_json::to_string(&reference).unwrap());
}

/// Pinned shrunk case: a lone low-latency surface with a deep queue. The
/// zero compose latch lets a frame queued at the tick instant latch on that
/// same tick; the boundary (queued_at == deadline) must behave identically
/// on both engines.
#[test]
fn regression_low_latency_queue_boundary() {
    let gens = vec![GenSurface {
        costs_us: vec![(500, 500), (500, 29_999), (500, 500), (500, 500), (14_999, 500)],
        path: PacingPath::LowLatency,
        priority: 3,
        buffers: Some(6),
    }];
    let order = [0usize];
    let heap = build(120, &gens, None, SimCore::EventHeap, &order).run().unwrap();
    let reference = build(120, &gens, None, SimCore::Reference, &order).run().unwrap();
    assert_eq!(serde_json::to_string(&heap).unwrap(), serde_json::to_string(&reference).unwrap());
    assert_eq!(heap.surfaces[0].report.records.len(), 5);
    assert_eq!(heap.surfaces[0].deferred_latches, 0);
}
