//! Substrate benchmarks: the buffer queue's produce/consume cycle, the
//! event queue, and VSync-timeline lookups — the inner loops of every
//! simulated frame.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use dvs_buffer::{BufferQueue, FrameMeta};
use dvs_display::{RefreshRate, VsyncTimeline};
use dvs_sim::{EventQueue, SimDuration, SimTime};

fn bench_buffer_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_queue");
    group.bench_function("dequeue_queue_acquire_cycle", |b| {
        let mut q = BufferQueue::new(5);
        let mut seq = 0u64;
        b.iter(|| {
            let slot = q.dequeue_free().expect("cycle keeps a slot free");
            q.queue(slot, FrameMeta::new(seq, SimTime::ZERO), SimTime::from_nanos(seq))
                .expect("freshly dequeued");
            let shown = q.acquire(SimTime::from_nanos(seq + 1));
            seq += 1;
            shown
        });
    });
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    // Deeper than any simulator run holds (at most 2 * (3 + render
    // threads) pending), where the run queue's linear insert costs most.
    group.bench_function("schedule_pop_depth_64", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..64u64 {
            q.schedule(SimTime::from_nanos(i * 1000), i);
        }
        let mut t = 64_000u64;
        b.iter(|| {
            q.schedule(SimTime::from_nanos(t), t);
            t += 1000;
            q.pop()
        });
    });
    // The simulator's steady state: about 3 events pending.
    group.bench_function("schedule_pop_depth_4", |b| {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..4u64 {
            q.schedule(SimTime::from_nanos(i * 1000), i);
        }
        let mut t = 4_000u64;
        b.iter(|| {
            q.schedule(SimTime::from_nanos(t), t);
            t += 1000;
            q.pop()
        });
    });
    group.finish();
}

fn bench_timeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("vsync_timeline");
    let ideal = VsyncTimeline::new(RefreshRate::HZ_120);
    let noisy = VsyncTimeline::builder(RefreshRate::HZ_120)
        .drift_ppm(300.0)
        .jitter(SimDuration::from_micros(200), 7)
        .build();
    group.bench_function("next_tick_after_ideal", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = (t + 5_000_001) % 10_000_000_000;
            ideal.next_tick_after(black_box(SimTime::from_nanos(t)))
        });
    });
    group.bench_function("next_tick_after_jittered", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t = (t + 5_000_001) % 10_000_000_000;
            noisy.next_tick_after(black_box(SimTime::from_nanos(t)))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_buffer_queue, bench_event_queue, bench_timeline);
criterion_main!(benches);
