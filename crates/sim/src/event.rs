//! A deterministic future-event list.
//!
//! [`EventQueue`] is a sorted run queue: a plain `Vec` kept latest-first,
//! so the earliest pending event is always the last entry and `pop` is
//! `Vec::pop`. `schedule` walks back from the end past every entry due at
//! or before the new one and inserts there, so an entry's position encodes
//! the `(time, insertion order)` tie-break: two events scheduled for the
//! same instant pop in the order they were scheduled, which keeps
//! simulations bit-for-bit reproducible.
//!
//! Insertion is linear in the number of pending events. That suits the
//! simulator, whose runs hold at most 2·(3 + render threads) pending events
//! and about 3 in steady state: at that size a short backward walk and one
//! small `memmove` cost less than a binary heap's data-dependent sift
//! branches. A queue holding hundreds of events would want a heap.
//!
//! The backing `Vec` can be pre-sized ([`EventQueue::with_capacity`]) so the
//! simulator hot path stays allocation-free: once it has grown to the run's
//! working set, `schedule`/`pop` never touch the allocator again.

use crate::SimTime;

/// A pending event.
#[derive(Clone, Copy, Debug)]
struct Entry<E> {
    at: SimTime,
    payload: E,
}

/// A deterministic priority queue of timestamped events.
///
/// # Examples
///
/// ```
/// use dvs_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), 'b');
/// q.schedule(SimTime::from_millis(1), 'a');
/// q.schedule(SimTime::from_millis(2), 'c'); // same instant as 'b'
///
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    /// Pending events sorted latest-first; among equal instants the entry
    /// scheduled first sits nearer the end, so it pops first.
    run: Vec<Entry<E>>,
    /// Total events ever scheduled (diagnostics for throughput reporting).
    scheduled: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        // dvs-lint: allow(hot-alloc-transitive, reason = "empty Vec::new is allocation-free; hot callers pre-size via with_capacity/reserve")
        EventQueue { run: Vec::new(), scheduled: 0 }
    }

    /// Creates an empty queue with room for `capacity` pending events.
    ///
    /// Sizing the queue to a run's expected working set keeps the
    /// steady-state `schedule`/`pop` cycle free of allocator traffic.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue { run: Vec::with_capacity(capacity), scheduled: 0 }
    }

    /// Ensures room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.run.reserve(additional);
    }

    /// The number of pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.run.capacity()
    }

    /// Schedules `payload` to fire at instant `at`.
    ///
    /// Events scheduled for the same instant fire in scheduling order. Takes
    /// time linear in the number of pending events due at or before `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.scheduled += 1;
        let idx = self.run.iter().rposition(|e| e.at > at).map_or(0, |i| i + 1);
        self.run.insert(idx, Entry { at, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.run.pop().map(|e| (e.at, e.payload))
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.run.last().map(|e| e.at)
    }

    /// The number of pending events.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Total events ever scheduled on this queue (not just pending).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Drops all pending events, keeping the backing allocation.
    pub fn clear(&mut self) {
        self.run.clear();
    }

    /// Returns the queue to its freshly-constructed state while keeping the
    /// backing allocation.
    ///
    /// Unlike [`EventQueue::clear`], this also rewinds the `total_scheduled`
    /// diagnostic, so a pooled queue reused across simulation runs reports
    /// each run's count exactly as a fresh queue would.
    pub fn reset(&mut self) {
        self.run.clear();
        self.scheduled = 0;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.run.len())
            .field("next", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimDuration, SimRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for ms in [5u64, 1, 9, 3] {
            q.schedule(SimTime::from_millis(ms), ms);
        }
        let mut got = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        assert_eq!(got, [1, 3, 5, 9]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<u32> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "late");
        q.schedule(SimTime::from_millis(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(SimTime::from_millis(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties_queue_and_keeps_capacity() {
        let mut q = EventQueue::with_capacity(16);
        let cap = q.capacity();
        for i in 0..10u64 {
            q.schedule(SimTime::ZERO + SimDuration::from_millis(i), i);
        }
        q.clear();
        assert!(q.is_empty());
        assert!(q.capacity() >= cap);
    }

    #[test]
    fn reset_restores_fresh_queue_semantics_and_keeps_capacity() {
        let mut q = EventQueue::with_capacity(16);
        let cap = q.capacity();
        for i in 0..10u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        q.pop();
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.total_scheduled(), 0, "reset must rewind the throughput counter");
        assert!(q.capacity() >= cap, "reset must keep the backing allocation");
        // Tie-break determinism: after reset, same-instant events must pop in
        // the new insertion order, exactly as they would on a fresh queue.
        let t = SimTime::from_millis(1);
        for i in 100..110u64 {
            q.schedule(t, i);
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let want: Vec<u64> = (100..110).collect();
        assert_eq!(got, want);
        assert_eq!(q.total_scheduled(), 10);
    }

    #[test]
    fn presized_queue_does_not_grow_in_steady_state() {
        let mut q = EventQueue::with_capacity(8);
        let cap = q.capacity();
        // A schedule/pop ping-pong far longer than the capacity: the live set
        // never exceeds 4, so the backing vector must never reallocate.
        for round in 0..10_000u64 {
            while q.len() < 4 {
                q.schedule(SimTime::from_nanos(round * 7 + q.len() as u64), round);
            }
            q.pop();
            q.pop();
        }
        assert_eq!(q.capacity(), cap, "steady-state loop must not reallocate");
    }

    /// Removes the model's earliest `(time, seq)` entry.
    fn pop_model(model: &mut Vec<(SimTime, u64, u32)>) -> Option<(SimTime, u32)> {
        let best = model.iter().enumerate().min_by_key(|(_, &(t, s, _))| (t, s)).map(|(i, _)| i)?;
        let (t, _, p) = model.swap_remove(best);
        Some((t, p))
    }

    #[test]
    fn matches_sorted_model_under_random_interleaving() {
        // Differential check of the run queue against a sort: random
        // schedule/pop interleavings must agree with (time, seq) order. Two
        // inputs: uniform times over a deep queue, and the simulator's shape
        // (at most 8 pending, follow-ups scheduled at the popped instant or a
        // few fixed offsets after it, so equal-time ties are common).
        for simulator_shaped in [false, true] {
            let mut rng = SimRng::seed_from(0xD15C0);
            let mut q = EventQueue::new();
            let mut model: Vec<(SimTime, u64, u32)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            for step in 0..5_000u32 {
                let roll = rng.next_u64();
                let schedule = if simulator_shaped {
                    model.len() < 8 && roll.is_multiple_of(2)
                } else {
                    !roll.is_multiple_of(3)
                };
                if schedule || model.is_empty() {
                    let at = if simulator_shaped {
                        now + match rng.next_below(4) {
                            0 | 1 => 0,
                            2 => 500,
                            _ => 16_667,
                        }
                    } else {
                        rng.next_u64() % 1_000
                    };
                    let at = SimTime::from_nanos(at);
                    q.schedule(at, step);
                    model.push((at, seq, step));
                    seq += 1;
                } else {
                    let (at, payload) = q.pop().expect("model non-empty");
                    now = at.as_nanos();
                    popped.push((at, payload));
                    expected.push(pop_model(&mut model).expect("model non-empty"));
                }
            }
            while let Some(got) = q.pop() {
                popped.push(got);
                expected.push(pop_model(&mut model).expect("queue and model agree on emptiness"));
            }
            assert!(model.is_empty());
            assert_eq!(popped, expected, "simulator-shaped: {simulator_shaped}");
        }
    }

    #[test]
    fn total_scheduled_counts_all_inserts() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_millis(i), i);
        }
        q.pop();
        q.pop();
        assert_eq!(q.total_scheduled(), 5);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<()> = EventQueue::new();
        assert!(format!("{q:?}").contains("EventQueue"));
    }
}
