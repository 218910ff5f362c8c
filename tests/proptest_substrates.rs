//! Property-based tests on the substrate data structures: the buffer queue's
//! state machine, the event queue's ordering, the timeline's monotonicity
//! and its tick cursor, and the samplers' ranges.

use proptest::prelude::*;

use dvsync::buffer::{BufferQueue, FrameMeta};
use dvsync::display::{RefreshRate, TickCursor, TickInterval, VsyncTimeline};
use dvsync::sim::{EventQueue, SimDuration, SimRng, SimTime};
use dvsync::workload::{LogNormal, Pareto};

/// Operations a producer/consumer pair can attempt on a buffer queue.
#[derive(Clone, Debug)]
enum QueueOp {
    Dequeue,
    Queue,
    Acquire,
}

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    prop::collection::vec(
        prop_oneof![Just(QueueOp::Dequeue), Just(QueueOp::Queue), Just(QueueOp::Acquire),],
        0..200,
    )
}

proptest! {
    /// The buffer queue's invariants hold under arbitrary operation
    /// sequences: at most one front buffer, FIFO consistency, no slot leaks.
    #[test]
    fn buffer_queue_invariants(capacity in 2usize..8, ops in queue_ops()) {
        let mut q = BufferQueue::new(capacity);
        let mut dequeued = Vec::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        for op in ops {
            now += SimDuration::from_millis(1);
            match op {
                QueueOp::Dequeue => {
                    if let Some(slot) = q.dequeue_free() {
                        dequeued.push(slot);
                    }
                }
                QueueOp::Queue => {
                    if let Some(slot) = dequeued.pop() {
                        q.queue(slot, FrameMeta::new(seq, now), now).unwrap();
                        seq += 1;
                    }
                }
                QueueOp::Acquire => {
                    let _ = q.acquire(now);
                }
            }
            q.assert_invariants();
            // Slot conservation: free + queued + dequeued + front == capacity.
            let front = usize::from(q.has_front());
            prop_assert_eq!(
                q.free_len() + q.queued_len() + q.dequeued_len() + front,
                capacity
            );
            prop_assert_eq!(q.dequeued_len(), dequeued.len());
        }
    }

    /// Buffers are always consumed in exactly the order they were queued.
    #[test]
    fn buffer_queue_is_fifo(capacity in 2usize..8, rounds in 1usize..60) {
        let mut q = BufferQueue::new(capacity);
        let mut next_expected = 0u64;
        let mut seq = 0u64;
        for i in 0..rounds {
            // Queue as many as possible, then drain a few.
            while let Some(slot) = q.dequeue_free() {
                q.queue(slot, FrameMeta::new(seq, SimTime::ZERO), SimTime::from_millis(seq))
                    .unwrap();
                seq += 1;
            }
            for _ in 0..=(i % capacity) {
                if let Some(acq) = q.acquire(SimTime::from_millis(1000 + seq)) {
                    prop_assert_eq!(acq.meta.seq, next_expected);
                    next_expected += 1;
                }
            }
        }
    }

    /// Events pop in time order with stable tie-breaking regardless of the
    /// insertion pattern.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0u64..1000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_millis(t));
            if let Some((pt, pi)) = prev {
                prop_assert!(pt <= t, "time order");
                if pt == t {
                    prop_assert!(pi < i, "stable tie-break by insertion");
                }
            }
            prev = Some((t, i));
        }
    }

    /// Jittered, drifting timelines still produce strictly monotonic ticks,
    /// and `next_tick_after` brackets its argument correctly.
    #[test]
    fn timeline_monotone_under_noise(
        rate in prop_oneof![Just(30u32), Just(60), Just(90), Just(120), Just(144)],
        drift in -2000.0f64..2000.0,
        jitter_us in 0u64..3000,
        seed in any::<u64>(),
        probe_ms in 0u64..2000,
    ) {
        let tl = VsyncTimeline::builder(RefreshRate::from_hz(rate))
            .drift_ppm(drift)
            .jitter(SimDuration::from_micros(jitter_us), seed)
            .build();
        for k in 0..200u64 {
            prop_assert!(tl.tick_time(k + 1) > tl.tick_time(k), "tick {k}");
        }
        let probe = SimTime::from_millis(probe_ms);
        let (k, t) = tl.next_tick_after(probe);
        prop_assert!(t > probe);
        if k > 0 {
            prop_assert!(tl.tick_time(k - 1) <= probe);
        }
    }

    /// The tick cursor cannot be told apart from the timeline it memoizes.
    /// On drifting, phased, jittered and rate-switched timelines, under a
    /// rising query sequence (steps inside a refresh, onto the next tick's
    /// exact time, just short of it, onto the tick after it, and jumps) and
    /// under arbitrary order, its
    /// `(last, next, period)` equal `next_tick_after`, `tick_time` and
    /// `period_at`. Both simulator engines share the surface state machine
    /// that holds the cursor, so the differential walls cannot catch a
    /// cursor error; this wall and the goldens must.
    #[test]
    fn tick_cursor_answers_like_the_timeline(
        rate in prop_oneof![Just(30u32), Just(60), Just(90), Just(120), Just(144)],
        drift in -2000.0f64..2000.0,
        phase_us in 0u64..20_000,
        jitter_us in prop_oneof![Just(0u64), Just(0u64), 1u64..3000],
        seed in any::<u64>(),
        switches in prop::collection::vec(
            (1u64..90, prop_oneof![Just(30u32), Just(60), Just(90), Just(120), Just(144)]),
            0..4,
        ),
        steps in prop::collection::vec((0u64..200_000_000, 0u8..5), 1..300),
    ) {
        let mut tl = VsyncTimeline::builder(RefreshRate::from_hz(rate))
            .phase(SimTime::from_micros(phase_us))
            .drift_ppm(drift)
            .jitter(SimDuration::from_micros(jitter_us), seed)
            .build();
        let mut at_tick = 0;
        for (gap, hz) in switches {
            at_tick += gap;
            tl.switch_rate_at_tick(at_tick, RefreshRate::from_hz(hz));
        }
        let expected = |t: SimTime| {
            let next = tl.next_tick_after(t);
            let last = next.0 - 1;
            TickInterval { last: (last, tl.tick_time(last)), next, period: tl.period_at(last) }
        };
        let origin = tl.tick_time(0);

        let mut cursor = TickCursor::new();
        let mut t = origin;
        for &(ns, kind) in &steps {
            t = match kind {
                0 => t + SimDuration::from_nanos(ns % 3_000_000),
                1 => tl.next_tick_after(t).1,
                2 => SimTime::from_nanos(tl.next_tick_after(t).1.as_nanos() - 1),
                3 => tl.tick_time(tl.next_tick_after(t).0 + 1),
                _ => t + SimDuration::from_nanos(ns),
            };
            prop_assert_eq!(cursor.at(&tl, t), expected(t), "rising query at {}", t);
        }

        let mut cursor = TickCursor::new();
        for &(ns, _) in &steps {
            let t = origin + SimDuration::from_nanos(ns * 40);
            prop_assert_eq!(cursor.at(&tl, t), expected(t), "arbitrary query at {}", t);
        }
    }

    /// Log-normal samples are positive; Pareto samples respect their bounds.
    #[test]
    fn sampler_ranges(
        median in 0.1f64..50.0,
        sigma in 0.0f64..1.5,
        x_min in 0.1f64..10.0,
        alpha in 0.2f64..5.0,
        span in 1.1f64..10.0,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let ln = LogNormal::from_median(median, sigma);
        let pareto = Pareto::new(x_min, alpha).truncated(x_min * span);
        for _ in 0..200 {
            prop_assert!(ln.sample(&mut rng) > 0.0);
            let p = pareto.sample(&mut rng);
            prop_assert!(p >= x_min && p <= x_min * span, "{p}");
        }
    }

    /// The RNG's fork streams never collide with the parent stream.
    #[test]
    fn rng_forks_are_decorrelated(seed in any::<u64>(), stream in any::<u64>()) {
        let mut root = SimRng::seed_from(seed);
        let mut fork = root.fork(stream);
        let collisions = (0..64).filter(|_| root.next_u64() == fork.next_u64()).count();
        prop_assert!(collisions <= 1);
    }
}
