//! The cancellable future-event list of the simulation engine.
//!
//! A binary heap of timestamped events, ordered earliest-first with a
//! monotonically increasing sequence number breaking equal-time ties —
//! two events at the same instant always fire in scheduling order, so a
//! run is deterministic in its seed alone. Every `schedule` returns an
//! [`EventId`] that can later be cancelled in O(log n): cancellation
//! tombstones the sequence number and the heap discards the entry when it
//! surfaces. This is the primitive the hybrid switch builds on — turning
//! a station fluid cancels the completion events of every request it
//! absorbs.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EventKind {
    /// A request finishes service at a *discrete* station.
    Completion {
        /// Service index.
        service: usize,
        /// Request slab slot.
        request: usize,
    },
    /// A request's analytically sampled sojourn at a *fluid* station ends.
    StageDone {
        /// Service index.
        service: usize,
        /// Request slab slot.
        request: usize,
    },
    /// One provisioned instance becomes ready.
    Boot {
        /// Service index.
        service: usize,
    },
    /// A scale-down takes effect for `count` instances.
    Shutdown {
        /// Service index.
        service: usize,
        /// Instances to remove.
        count: u32,
    },
    /// A vertical resize takes effect.
    Resize {
        /// Service index.
        service: usize,
        /// New speed factor.
        speed: f64,
    },
    /// One VM of the nested pool becomes ready.
    VmReady,
    /// Monitoring interval boundary.
    MonitorTick,
    /// An injected fault kills `count` running instances.
    Crash {
        /// Service index.
        service: usize,
        /// Instances to kill.
        count: u32,
    },
}

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventId(u64);

/// One heap entry. Ordering is by time, then sequence number, both
/// reversed because `BinaryHeap` is a max-heap and we pop earliest-first.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The future-event list: a binary heap with tombstone cancellation.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Sequence numbers of cancelled events still in the heap; entries are
    /// discarded (and their tombstones reclaimed) as they surface.
    cancelled: BTreeSet<u64>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub(crate) fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `kind` at `time` and returns its cancellation handle.
    /// Equal-time events fire in the order they were scheduled.
    #[inline]
    pub(crate) fn schedule(&mut self, time: f64, kind: EventKind) -> EventId {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.heap.push(Entry { time, seq, kind });
        EventId(seq)
    }

    /// Cancels a scheduled event. Returns `false` when the event already
    /// fired or was already cancelled; cancelling it a second time has no
    /// effect.
    pub(crate) fn cancel(&mut self, id: EventId) -> bool {
        if id.0 == 0 || id.0 > self.next_seq {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// The firing time of the earliest live (non-cancelled) event, purging
    /// cancelled entries that surface on the way.
    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<f64> {
        self.purge();
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the earliest live event.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(f64, EventKind)> {
        self.purge();
        self.heap.pop().map(|e| (e.time, e.kind))
    }

    /// Number of live events still scheduled. Saturating: a tombstone for
    /// an event that had already fired never meets its heap entry.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.heap.len().saturating_sub(self.cancelled.len())
    }

    /// Discards cancelled entries sitting at the top of the heap.
    #[inline]
    fn purge(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.cancelled.remove(&top.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, EventKind::MonitorTick);
        q.schedule(1.0, EventKind::Boot { service: 0 });
        q.schedule(2.0, EventKind::Boot { service: 1 });
        let times: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(times, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for service in 0..100 {
            q.schedule(5.0, EventKind::Boot { service });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Boot { service } => service,
                _ => usize::MAX,
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_tombstones_and_reclaims() {
        let mut q = EventQueue::new();
        let a = q.schedule(1.0, EventKind::Boot { service: 0 });
        let b = q.schedule(2.0, EventKind::Boot { service: 1 });
        let c = q.schedule(3.0, EventKind::Boot { service: 2 });
        assert_eq!(q.live(), 3);
        assert!(q.cancel(b));
        assert!(!q.cancel(b), "double-cancel is a no-op");
        assert_eq!(q.live(), 2);
        // Peeking past a cancelled head purges it.
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(3.0));
        assert_eq!(q.pop(), Some((3.0, EventKind::Boot { service: 2 })));
        assert_eq!(q.pop(), None);
        // A fired event can no longer be cancelled.
        assert!(!q.cancel(c) || q.live() == 0);
        // Out-of-range handles are rejected.
        assert!(!q.cancel(EventId(999)));
        assert!(!q.cancel(EventId(0)));
    }

    #[test]
    fn nan_times_do_not_poison_the_order() {
        // total_cmp gives NaN a fixed position instead of breaking the
        // heap invariant; the queue stays usable.
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, EventKind::MonitorTick);
        q.schedule(1.0, EventKind::Boot { service: 0 });
        q.schedule(2.0, EventKind::Boot { service: 1 });
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 3);
    }
}
