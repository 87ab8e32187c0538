//! Bounded MPMC job queue with explicit backpressure.
//!
//! Built on `Mutex` + `Condvar` only (the workspace carries no external
//! dependencies).  Producers either **block** until capacity frees up
//! ([`BoundedQueue::push`]) or get an immediate [`QueueFull`] rejection
//! carrying the item back ([`BoundedQueue::try_push`]) — that rejection is
//! the server's admission-control signal.  Consumers block on
//! [`BoundedQueue::pop`] / [`BoundedQueue::pop_batch`]; the batch variant
//! additionally drains queued items that share the head item's key, which
//! is how same-plan requests coalesce into one batched forward pass.

use errflow_tensor::sync::{lock_recover, wait_recover};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Rejection returned by [`BoundedQueue::try_push`] when the queue is at
/// capacity (or closed); carries the item back to the caller.
#[derive(Debug)]
pub struct QueueFull<T>(pub T);

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or the queue closes (wakes poppers).
    not_empty: Condvar,
    /// Signalled when capacity frees up or the queue closes (wakes pushers).
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be nonzero");
        BoundedQueue {
            capacity,
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        lock_recover(&self.state).items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once [`BoundedQueue::close`] has run; a closed queue never
    /// admits again, so a rejection seen after this is final.
    pub fn is_closed(&self) -> bool {
        lock_recover(&self.state).closed
    }

    /// Enqueues without blocking; rejects with [`QueueFull`] when the queue
    /// is at capacity or closed.
    pub fn try_push(&self, item: T) -> Result<(), QueueFull<T>> {
        let mut s = lock_recover(&self.state);
        if s.closed || s.items.len() >= self.capacity {
            return Err(QueueFull(item));
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the queue is at capacity.  Returns the item
    /// back if the queue closes before space frees up.
    pub fn push(&self, item: T) -> Result<(), QueueFull<T>> {
        let mut s = lock_recover(&self.state);
        while !s.closed && s.items.len() >= self.capacity {
            s = wait_recover(&self.not_full, s);
        }
        if s.closed {
            return Err(QueueFull(item));
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues one item, blocking while the queue is empty.  Returns
    /// `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut s = lock_recover(&self.state);
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = wait_recover(&self.not_empty, s);
        }
    }

    /// Dequeues the head item plus up to `max - 1` further queued items
    /// whose `key` equals the head's, preserving FIFO order among the rest.
    /// Blocks while empty; returns `None` once closed and drained.
    ///
    /// This is the batcher's coalescing primitive: jobs that will execute
    /// under the same cached plan ride the same batched forward pass.
    pub fn pop_batch<K: PartialEq>(&self, max: usize, key: impl Fn(&T) -> K) -> Option<Vec<T>> {
        assert!(max > 0, "batch size must be nonzero");
        let mut s = lock_recover(&self.state);
        loop {
            if let Some(head) = s.items.pop_front() {
                let k = key(&head);
                let mut batch = vec![head];
                let mut i = 0;
                while batch.len() < max && i < s.items.len() {
                    if key(&s.items[i]) == k {
                        // `i < len` holds, so remove always yields an item.
                        match s.items.remove(i) {
                            Some(item) => batch.push(item),
                            None => break,
                        }
                    } else {
                        i += 1;
                    }
                }
                drop(s);
                // Freed one or more slots: wake every blocked producer.
                self.not_full.notify_all();
                return Some(batch);
            }
            if s.closed {
                return None;
            }
            s = wait_recover(&self.not_empty, s);
        }
    }

    /// Closes the queue: producers are rejected from now on, consumers
    /// drain the remaining items and then observe `None`.
    pub fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Removes and returns every queued item (used at shutdown to fail
    /// outstanding requests instead of leaving waiters hanging).
    pub fn drain(&self) -> Vec<T> {
        let mut s = lock_recover(&self.state);
        let out = s.items.drain(..).collect();
        drop(s);
        self.not_full.notify_all();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_rejects_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let QueueFull(rejected) = q.try_push(3).unwrap_err();
        assert_eq!(rejected, 3);
        // Draining one slot re-admits.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn blocking_push_waits_for_capacity() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(1).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer must be blocked, not enqueued");
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn pop_batch_coalesces_matching_keys() {
        let q = BoundedQueue::new(8);
        for item in [("a", 0), ("b", 1), ("a", 2), ("c", 3), ("a", 4)] {
            q.try_push(item).unwrap();
        }
        let batch = q.pop_batch(8, |t| t.0).unwrap();
        assert_eq!(batch, vec![("a", 0), ("a", 2), ("a", 4)]);
        // Non-matching items keep their order.
        assert_eq!(q.pop_batch(8, |t| t.0).unwrap(), vec![("b", 1)]);
        assert_eq!(q.pop_batch(8, |t| t.0).unwrap(), vec![("c", 3)]);
    }

    #[test]
    fn pop_batch_respects_max() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(("k", i)).unwrap();
        }
        let batch = q.pop_batch(3, |t| t.0).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_wakes_poppers_and_rejects_pushers() {
        let q = Arc::new(BoundedQueue::<u32>::new(2));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert_eq!(popper.join().unwrap(), None);
        assert!(q.try_push(1).is_err());
        assert!(q.push(1).is_err());
    }

    #[test]
    fn close_lets_consumers_drain_backlog() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drain_empties_queue() {
        let q = BoundedQueue::new(4);
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.drain(), vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn mpmc_stress_delivers_everything_once() {
        let q = Arc::new(BoundedQueue::new(8));
        let producers = 4;
        let per = 100usize;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.push(p * per + i).unwrap();
                }
            }));
        }
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..producers * per).collect::<Vec<_>>());
    }
}
