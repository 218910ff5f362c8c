//! The FIFO buffer queue: producer/consumer slot lifecycle.
//!
//! Slot lifecycle (matching Android's BufferQueue states):
//!
//! ```text
//!            dequeue_free            queue                acquire
//!   Free ───────────────▶ Dequeued ─────────▶ Queued ───────────────▶ Front
//!    ▲                                                                  │
//!    └──────────────────────── released when the next buffer ◀─────────┘
//!                              becomes the front
//! ```
//!
//! Exactly one buffer is the *front* (on screen) at a time; `acquire` atomically
//! promotes the oldest queued buffer and releases the previous front back to
//! the free pool. This is what makes queue capacity `N` equal "1 front +
//! (N−1) back buffers" in the paper's terminology.

use std::collections::VecDeque;
use std::fmt;

use dvs_sim::{DvsError, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies one buffer slot in a [`BufferQueue`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SlotId(usize);

impl SlotId {
    /// The slot's index within its queue.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// Per-frame metadata carried with a queued buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameMeta {
    /// Monotonic frame sequence number assigned by the producer.
    pub seq: u64,
    /// The timestamp the frame's *content* represents: the VSync timestamp in
    /// the baseline architecture, or the DTV D-Timestamp under D-VSync.
    pub content_timestamp: SimTime,
    /// The rendering rate (Hz) this frame was produced for; used by the LTPO
    /// co-design (§5.3) to enforce that frames rendered at rate X are consumed
    /// before the panel switches to rate Y.
    pub render_rate_hz: u32,
}

impl FrameMeta {
    /// Creates metadata with the default 60 Hz rate tag.
    pub fn new(seq: u64, content_timestamp: SimTime) -> Self {
        FrameMeta { seq, content_timestamp, render_rate_hz: 60 }
    }

    /// Sets the LTPO rate tag.
    pub fn with_rate(mut self, hz: u32) -> Self {
        self.render_rate_hz = hz;
        self
    }
}

/// A buffer the consumer has just promoted to the front.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcquiredBuffer {
    /// Which slot is now the front buffer.
    pub slot: SlotId,
    /// The frame's metadata.
    pub meta: FrameMeta,
    /// When the producer queued this buffer.
    pub queued_at: SimTime,
    /// How many ticks' worth of buffers remained queued *after* this
    /// acquisition (the accumulation depth the paper plots in Fig. 10).
    pub remaining_queued: usize,
}

/// Errors from buffer-queue operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// The slot was not in the `Dequeued` state when `queue` was called.
    NotDequeued(SlotId),
    /// The slot index does not exist in this queue.
    UnknownSlot(SlotId),
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::NotDequeued(s) => {
                write!(f, "{s} queued without a matching dequeue")
            }
            QueueError::UnknownSlot(s) => write!(f, "{s} does not exist"),
        }
    }
}

impl std::error::Error for QueueError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum SlotState {
    Free,
    Dequeued,
    Queued { meta: FrameMeta, queued_at: SimTime },
    Front,
}

/// The producer/consumer FIFO of frame buffers.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct BufferQueue {
    slots: Vec<SlotState>,
    /// Queued slot indices in FIFO order.
    fifo: VecDeque<usize>,
    front: Option<usize>,
    /// Slots in the `Free` state, kept in step with `slots` so the
    /// producer's per-decision free count is O(1).
    free: usize,
    max_queued_observed: usize,
    total_queued: u64,
    total_acquired: u64,
}

impl BufferQueue {
    /// Creates a queue with `capacity` buffers (1 front + `capacity − 1` back).
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 2` — a queue needs at least one front and one
    /// back buffer to make progress. Fallible callers (e.g. configurations
    /// arriving from outside the process) should use [`BufferQueue::try_new`].
    pub fn new(capacity: usize) -> Self {
        // dvs-lint: allow(panic, reason = "documented panicking constructor; fallible callers use try_new")
        Self::try_new(capacity).expect("buffer queue needs at least 2 buffers")
    }

    /// Fallible constructor: rejects `capacity < 2` with a typed error
    /// instead of panicking.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvs_buffer::BufferQueue;
    /// use dvs_sim::DvsError;
    /// assert!(BufferQueue::try_new(3).is_ok());
    /// assert_eq!(
    ///     BufferQueue::try_new(1).unwrap_err(),
    ///     DvsError::BufferCapacityTooSmall { got: 1, min: 2 }
    /// );
    /// ```
    pub fn try_new(capacity: usize) -> Result<Self, DvsError> {
        if capacity < 2 {
            return Err(DvsError::BufferCapacityTooSmall { got: capacity, min: 2 });
        }
        Ok(BufferQueue {
            // dvs-lint: allow(hot-alloc-transitive, reason = "queue construction happens once per surface at setup, before the hot loop")
            slots: vec![SlotState::Free; capacity],
            fifo: VecDeque::with_capacity(capacity),
            front: None,
            free: capacity,
            max_queued_observed: 0,
            total_queued: 0,
            total_acquired: 0,
        })
    }

    /// Total number of buffer slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Buffers currently queued and waiting for the panel.
    pub fn queued_len(&self) -> usize {
        self.fifo.len()
    }

    /// Buffers currently free for the producer to dequeue.
    pub fn free_len(&self) -> usize {
        self.free
    }

    /// Buffers currently dequeued (being rendered into).
    pub fn dequeued_len(&self) -> usize {
        self.slots.iter().filter(|s| **s == SlotState::Dequeued).count()
    }

    /// Whether a front buffer is currently on screen.
    pub fn has_front(&self) -> bool {
        self.front.is_some()
    }

    /// The deepest the queued backlog ever got (accumulation high-water mark).
    pub fn max_queued_observed(&self) -> usize {
        self.max_queued_observed
    }

    /// Total buffers ever queued by the producer.
    pub fn total_queued(&self) -> u64 {
        self.total_queued
    }

    /// Total buffers ever acquired by the consumer.
    pub fn total_acquired(&self) -> u64 {
        self.total_acquired
    }

    /// Producer side: grab a free buffer to render into.
    ///
    /// Returns `None` when every buffer is in flight — the back-pressure that
    /// blocks rendering in both VSync and D-VSync architectures.
    #[inline]
    pub fn dequeue_free(&mut self) -> Option<SlotId> {
        if self.free == 0 {
            return None;
        }
        let idx = self.slots.iter().position(|s| *s == SlotState::Free)?;
        self.slots[idx] = SlotState::Dequeued;
        self.free -= 1;
        Some(SlotId(idx))
    }

    /// Producer side: hand a rendered buffer to the queue.
    ///
    /// # Errors
    ///
    /// Returns [`QueueError::NotDequeued`] if the slot was not previously
    /// dequeued, or [`QueueError::UnknownSlot`] if it does not exist.
    #[inline]
    pub fn queue(&mut self, slot: SlotId, meta: FrameMeta, now: SimTime) -> Result<(), QueueError> {
        let state = self.slots.get_mut(slot.0).ok_or(QueueError::UnknownSlot(slot))?;
        if *state != SlotState::Dequeued {
            return Err(QueueError::NotDequeued(slot));
        }
        *state = SlotState::Queued { meta, queued_at: now };
        self.fifo.push_back(slot.0);
        self.total_queued += 1;
        self.max_queued_observed = self.max_queued_observed.max(self.fifo.len());
        Ok(())
    }

    /// Peeks at the oldest queued buffer without consuming it.
    #[inline]
    pub fn peek_next(&self) -> Option<(FrameMeta, SimTime)> {
        let idx = *self.fifo.front()?;
        match &self.slots[idx] {
            SlotState::Queued { meta, queued_at } => Some((*meta, *queued_at)),
            other => {
                // Hot-loop invariant: the fifo only ever holds Queued slots.
                debug_assert!(false, "fifo entry in {other:?} state, expected Queued");
                None
            }
        }
    }

    /// Whether the oldest queued buffer was queued at or before `deadline`
    /// (and therefore satisfies a compositor latch rule), without touching
    /// the queue.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvs_buffer::{BufferQueue, FrameMeta};
    /// use dvs_sim::SimTime;
    ///
    /// let mut q = BufferQueue::new(3);
    /// let slot = q.dequeue_free().unwrap();
    /// q.queue(slot, FrameMeta::new(0, SimTime::ZERO), SimTime::from_millis(5))?;
    /// assert!(!q.has_eligible(SimTime::from_millis(4)), "too fresh to latch");
    /// assert!(q.has_eligible(SimTime::from_millis(5)));
    /// # Ok::<(), dvs_buffer::QueueError>(())
    /// ```
    #[inline]
    pub fn has_eligible(&self, deadline: SimTime) -> bool {
        self.peek_next().is_some_and(|(_, queued_at)| queued_at <= deadline)
    }

    /// Consumer side: promote the oldest queued buffer to the front and
    /// release the previous front back to the free pool.
    ///
    /// Returns `None` when nothing is queued — at a VSync tick this is a jank.
    #[inline]
    pub fn acquire(&mut self, _now: SimTime) -> Option<AcquiredBuffer> {
        let idx = self.fifo.pop_front()?;
        let (meta, queued_at) = match std::mem::replace(&mut self.slots[idx], SlotState::Front) {
            SlotState::Queued { meta, queued_at } => (meta, queued_at),
            other => {
                // Hot-loop invariant: the fifo only ever holds Queued slots.
                // In release builds restore the state and fail the acquire
                // instead of tearing down the whole simulation.
                debug_assert!(false, "fifo entry in {other:?} state, expected Queued");
                self.slots[idx] = other;
                return None;
            }
        };
        if let Some(prev) = self.front.replace(idx) {
            self.slots[prev] = SlotState::Free;
            self.free += 1;
        }
        self.total_acquired += 1;
        Some(AcquiredBuffer {
            slot: SlotId(idx),
            meta,
            queued_at,
            remaining_queued: self.fifo.len(),
        })
    }

    /// Consumer side: acquire only if the oldest queued buffer satisfies
    /// `pred` (e.g. the compositor latch deadline, or the LTPO rate check).
    #[inline]
    pub fn acquire_if<F>(&mut self, now: SimTime, pred: F) -> Option<AcquiredBuffer>
    where
        F: FnOnce(&FrameMeta, SimTime) -> bool,
    {
        let (meta, queued_at) = self.peek_next()?;
        if pred(&meta, queued_at) {
            self.acquire(now)
        } else {
            None
        }
    }

    /// Checks internal invariants, reporting the first violation found.
    ///
    /// Returns `Ok(())` for a consistent queue; the error string names the
    /// broken invariant. Property tests and the chaos harness call this after
    /// every mutation without risking a panic mid-shrink.
    pub fn check_invariants(&self) -> Result<(), String> {
        let fronts = self.slots.iter().filter(|s| **s == SlotState::Front).count();
        if fronts > 1 {
            return Err(format!("{fronts} front buffers, expected at most 1"));
        }
        if (fronts == 1) != self.front.is_some() {
            return Err("front index out of sync with slot states".into());
        }
        let free = self.slots.iter().filter(|s| **s == SlotState::Free).count();
        if free != self.free {
            return Err(format!("free count {} out of sync with {free} free slots", self.free));
        }
        let queued = self.slots.iter().filter(|s| matches!(s, SlotState::Queued { .. })).count();
        if queued != self.fifo.len() {
            return Err(format!(
                "fifo out of sync with slot states: {queued} queued slots vs {} fifo entries",
                self.fifo.len()
            ));
        }
        if self.fifo.len() > self.capacity() {
            return Err("fifo longer than capacity".into());
        }
        // FIFO entries must be distinct and queued.
        let mut seen = vec![false; self.slots.len()];
        for &i in &self.fifo {
            if seen[i] {
                return Err(format!("duplicate fifo entry for slot {i}"));
            }
            seen[i] = true;
            if !matches!(self.slots[i], SlotState::Queued { .. }) {
                return Err(format!("fifo entry {i} not in Queued state"));
            }
        }
        Ok(())
    }

    /// Checks internal invariants; used by property tests.
    ///
    /// # Panics
    ///
    /// Panics if any invariant is violated. See [`BufferQueue::check_invariants`]
    /// for the non-panicking form.
    pub fn assert_invariants(&self) {
        if let Err(what) = self.check_invariants() {
            // dvs-lint: allow(panic, reason = "documented panicking test helper; check_invariants is the fallible form")
            panic!("buffer queue invariant violated: {what}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(seq: u64) -> FrameMeta {
        FrameMeta::new(seq, SimTime::from_millis(seq))
    }

    #[test]
    fn fresh_queue_is_all_free() {
        let q = BufferQueue::new(3);
        assert_eq!(q.capacity(), 3);
        assert_eq!(q.free_len(), 3);
        assert_eq!(q.queued_len(), 0);
        assert!(!q.has_front());
    }

    #[test]
    #[should_panic(expected = "at least 2 buffers")]
    fn capacity_below_two_panics() {
        BufferQueue::new(1);
    }

    #[test]
    fn full_lifecycle() {
        let mut q = BufferQueue::new(3);
        let s = q.dequeue_free().unwrap();
        assert_eq!(q.dequeued_len(), 1);
        q.queue(s, meta(0), SimTime::from_millis(1)).unwrap();
        assert_eq!(q.queued_len(), 1);
        let a = q.acquire(SimTime::from_millis(16)).unwrap();
        assert_eq!(a.meta.seq, 0);
        assert_eq!(a.queued_at, SimTime::from_millis(1));
        assert!(q.has_front());
        assert_eq!(q.free_len(), 2);
        q.assert_invariants();
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = BufferQueue::new(5);
        for i in 0..4 {
            let s = q.dequeue_free().unwrap();
            q.queue(s, meta(i), SimTime::from_millis(i)).unwrap();
        }
        for i in 0..4 {
            let a = q.acquire(SimTime::from_millis(100 + i)).unwrap();
            assert_eq!(a.meta.seq, i);
        }
    }

    #[test]
    fn back_pressure_when_exhausted() {
        let mut q = BufferQueue::new(3);
        // Fill: 2 queued + 1 dequeued = all 3 slots busy.
        for i in 0..2 {
            let s = q.dequeue_free().unwrap();
            q.queue(s, meta(i), SimTime::ZERO).unwrap();
        }
        let _held = q.dequeue_free().unwrap();
        assert!(q.dequeue_free().is_none(), "no free buffers should remain");
        // Consuming one frees the previous front only after TWO acquires
        // (the first acquire has no previous front to release).
        q.acquire(SimTime::ZERO).unwrap();
        assert!(q.dequeue_free().is_none());
        q.acquire(SimTime::ZERO).unwrap();
        assert!(q.dequeue_free().is_some());
    }

    #[test]
    fn acquire_empty_returns_none() {
        let mut q = BufferQueue::new(3);
        assert!(q.acquire(SimTime::ZERO).is_none());
    }

    #[test]
    fn queue_without_dequeue_errors() {
        let mut q = BufferQueue::new(2);
        let err = q.queue(SlotId(0), meta(0), SimTime::ZERO).unwrap_err();
        assert_eq!(err, QueueError::NotDequeued(SlotId(0)));
        let err = q.queue(SlotId(9), meta(0), SimTime::ZERO).unwrap_err();
        assert_eq!(err, QueueError::UnknownSlot(SlotId(9)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn acquire_if_respects_predicate() {
        let mut q = BufferQueue::new(3);
        let s = q.dequeue_free().unwrap();
        q.queue(s, meta(0), SimTime::from_millis(10)).unwrap();
        // Latch: only buffers queued before 5 ms may be shown.
        let latch = SimTime::from_millis(5);
        assert!(q.acquire_if(SimTime::from_millis(16), |_, at| at <= latch).is_none());
        assert_eq!(q.queued_len(), 1, "rejected buffer stays queued");
        let latch = SimTime::from_millis(15);
        assert!(q.acquire_if(SimTime::from_millis(16), |_, at| at <= latch).is_some());
    }

    #[test]
    fn high_water_mark_tracks_accumulation() {
        let mut q = BufferQueue::new(5);
        for i in 0..4 {
            let s = q.dequeue_free().unwrap();
            q.queue(s, meta(i), SimTime::ZERO).unwrap();
        }
        assert_eq!(q.max_queued_observed(), 4);
        q.acquire(SimTime::ZERO);
        assert_eq!(q.max_queued_observed(), 4, "high-water mark never drops");
    }

    #[test]
    fn counters_accumulate() {
        let mut q = BufferQueue::new(4);
        for i in 0..10 {
            let s = match q.dequeue_free() {
                Some(s) => s,
                None => {
                    q.acquire(SimTime::ZERO).unwrap();
                    q.dequeue_free().unwrap()
                }
            };
            q.queue(s, meta(i), SimTime::ZERO).unwrap();
            q.acquire(SimTime::ZERO).unwrap();
        }
        assert_eq!(q.total_queued(), 10);
        assert_eq!(q.total_acquired(), 10);
    }

    #[test]
    fn try_new_rejects_tiny_capacity() {
        assert_eq!(
            BufferQueue::try_new(0).unwrap_err(),
            DvsError::BufferCapacityTooSmall { got: 0, min: 2 }
        );
        assert_eq!(
            BufferQueue::try_new(1).unwrap_err(),
            DvsError::BufferCapacityTooSmall { got: 1, min: 2 }
        );
        assert_eq!(BufferQueue::try_new(2).unwrap().capacity(), 2);
    }

    #[test]
    fn check_invariants_reports_ok() {
        let mut q = BufferQueue::new(3);
        assert!(q.check_invariants().is_ok());
        let s = q.dequeue_free().unwrap();
        q.queue(s, meta(0), SimTime::ZERO).unwrap();
        q.acquire(SimTime::ZERO).unwrap();
        assert!(q.check_invariants().is_ok());
    }

    #[test]
    fn rate_tag_round_trips() {
        let m = FrameMeta::new(1, SimTime::ZERO).with_rate(120);
        assert_eq!(m.render_rate_hz, 120);
    }
}
