//! Bounded, priority-aware MPMC job queue — the request-level analogue of
//! the paper's Tier-1 code-block queue.
//!
//! The paper feeds fixed-footprint SPE workers from a dynamic queue so
//! that data-dependent EBCOT cost never stalls the pipeline; this queue
//! applies the same discipline one level up, at the granularity of whole
//! encode requests. Two properties carry over:
//!
//! * **fixed footprint** — the queue is bounded; when it is full,
//!   [`JobQueue::try_push`] rejects instead of growing, so offered load
//!   beyond capacity turns into typed backpressure, not memory;
//! * **dynamic assignment** — workers pull the highest-priority job the
//!   moment they go idle, so one slow (data-dependent) encode never
//!   blocks the others.
//!
//! Ordering: higher `priority` first; FIFO among equal priorities
//! (a submission sequence number breaks ties).

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` jobs; admission control rejects.
    Full {
        /// The configured bound.
        capacity: usize,
    },
    /// [`JobQueue::close`] was called; the queue drains but accepts no
    /// more work.
    Closed,
}

struct Entry<T> {
    priority: u8,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; among equals, smaller seq
        // (earlier submission) wins.
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Inner<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    closed: bool,
    paused: bool,
}

/// Bounded MPMC priority queue with close and pause/resume.
pub struct JobQueue<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `capacity` (>= 1) queued jobs.
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                seq: 0,
                closed: false,
                paused: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (not yet claimed by a worker).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().heap.len()
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking admission: enqueue `item`, or refuse with the item
    /// handed back when the queue is full or closed.
    pub fn try_push(&self, item: T, priority: u8) -> Result<(), (T, PushError)> {
        let mut g = self.inner.lock().unwrap();
        if g.closed {
            return Err((item, PushError::Closed));
        }
        if g.heap.len() >= self.capacity {
            return Err((
                item,
                PushError::Full {
                    capacity: self.capacity,
                },
            ));
        }
        let seq = g.seq;
        g.seq += 1;
        g.heap.push(Entry {
            priority,
            seq,
            item,
        });
        drop(g);
        self.cv.notify_one();
        Ok(())
    }

    /// Re-admit a job the service already accepted once (a crash retry).
    /// Bypasses both the capacity bound (the job's admission slot was
    /// paid at submit) and `closed` (graceful drain completes admitted
    /// jobs).
    pub fn requeue(&self, item: T, priority: u8) {
        let mut g = self.inner.lock().unwrap();
        let seq = g.seq;
        g.seq += 1;
        g.heap.push(Entry {
            priority,
            seq,
            item,
        });
        drop(g);
        self.cv.notify_one();
    }

    /// Claim the highest-priority job, blocking while the queue is empty
    /// or paused. Returns `None` once the queue is closed and empty — the
    /// worker-pool exit signal. A crash retry cannot slip past it: the
    /// worker that requeues the job is still alive to pop it.
    pub fn pop(&self) -> Option<T> {
        // Failpoint `queue.pop`: evaluated before the lock is taken, so
        // an injected panic can never poison the queue mutex. A panic
        // here kills a worker *between* jobs (nothing claimed, nothing to
        // retry); a delay models a slow claim. An injected error has no
        // channel at this callsite and is deliberately ignored.
        let _ = faultsim::eval("queue.pop");
        let mut g = self.inner.lock().unwrap();
        loop {
            if !g.paused {
                if let Some(e) = g.heap.pop() {
                    return Some(e.item);
                }
            }
            if g.closed && g.heap.is_empty() {
                return None;
            }
            g = self.cv.wait(g).unwrap();
        }
    }

    /// Stop admitting work; queued jobs still drain. Unpauses, so a
    /// paused queue drains too. Idempotent.
    pub fn close(&self) {
        let mut g = self.inner.lock().unwrap();
        g.closed = true;
        g.paused = false;
        drop(g);
        self.cv.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().unwrap().closed
    }

    /// Hold all workers at the queue even if jobs are available. Jobs
    /// keep accumulating (up to capacity) — the operational drain/test
    /// hook for deterministic queue-state control.
    pub fn pause(&self) {
        self.inner.lock().unwrap().paused = true;
    }

    /// Undo [`pause`](Self::pause).
    pub fn resume(&self) {
        let mut g = self.inner.lock().unwrap();
        g.paused = false;
        drop(g);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_priority_and_priority_order() {
        let q = JobQueue::new(8);
        q.try_push("low-a", 0).unwrap();
        q.try_push("high", 5).unwrap();
        q.try_push("low-b", 0).unwrap();
        q.try_push("mid", 3).unwrap();
        assert_eq!(q.pop(), Some("high"));
        assert_eq!(q.pop(), Some("mid"));
        assert_eq!(q.pop(), Some("low-a"));
        assert_eq!(q.pop(), Some("low-b"));
    }

    #[test]
    fn full_queue_rejects_with_item_back() {
        let q = JobQueue::new(2);
        q.try_push(1, 0).unwrap();
        q.try_push(2, 0).unwrap();
        let (item, err) = q.try_push(3, 9).unwrap_err();
        assert_eq!(item, 3);
        assert_eq!(err, PushError::Full { capacity: 2 });
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_but_drains() {
        let q = JobQueue::new(4);
        q.try_push(1, 0).unwrap();
        q.close();
        assert!(matches!(q.try_push(2, 0), Err((2, PushError::Closed))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // stays terminal
    }

    #[test]
    fn paused_queue_holds_items_until_resume() {
        let q = std::sync::Arc::new(JobQueue::new(4));
        q.pause();
        q.try_push(7, 0).unwrap();
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop());
        // The popper must not complete while paused; resume releases it.
        // (No sleep-based assertion of "still blocked" — we only assert
        // the release path.)
        q.resume();
        assert_eq!(t.join().unwrap(), Some(7));
    }

    #[test]
    fn close_unpauses_for_drain() {
        let q = JobQueue::new(4);
        q.pause();
        q.try_push(1, 0).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn requeue_bypasses_capacity_and_closed() {
        let q = JobQueue::new(1);
        q.try_push(1, 0).unwrap();
        q.close();
        // A retry of an admitted job re-enters past both the bound and
        // the closed gate.
        q.requeue(2, 5);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = JobQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1, 0).unwrap();
        assert!(q.try_push(2, 0).is_err());
    }
}
