//! Bounded multi-producer/multi-consumer queue with typed backpressure.
//!
//! The std mpsc channels the substrate is built on are *unbounded*: a
//! producer that outruns its consumer grows the mailbox without limit.
//! That is fine for SPMD ranks (the LogGP clock keeps them in rough
//! lockstep), but a serving front end multiplexing many tenants onto a
//! few worker pools needs the opposite property — a queue that **refuses**
//! work when full, so overload surfaces as a typed error at the admission
//! edge instead of unbounded memory growth in the middle.
//!
//! [`Bounded`] is that primitive: a `Mutex<VecDeque>` + one condvar,
//! shared by `Arc`. Producers never block — [`Bounded::try_push`] fails
//! fast on a full queue — and every refusal is counted, never silent.
//! Consumers pick [`Bounded::pop_timeout`] or the blocking
//! [`Bounded::pop`]. Closing the queue wakes every consumer; items
//! already queued drain normally.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused. The item is handed back in both cases so the
/// caller can shed it with accounting (or retry elsewhere) — a refused
/// push never consumes the value.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity. This is backpressure, not failure.
    Full(T),
    /// The queue was closed; no further work is accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recover the item that was refused.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Closed(v) => v,
        }
    }
}

/// Why a pop returned no item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// Nothing arrived within the timeout.
    TimedOut,
    /// The queue is closed *and* drained; no item will ever arrive.
    Closed,
}

/// Running totals for one queue (monotonic; read with [`Bounded::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items accepted.
    pub pushed: u64,
    /// Items handed to consumers.
    pub popped: u64,
    /// Pushes refused because the queue was full — the backpressure
    /// signal, counted so shed work is never silently dropped.
    pub rejected_full: u64,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    stats: QueueStats,
}

/// A bounded MPMC queue. Share it with `Arc`; every method takes `&self`.
pub struct Bounded<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a bounded queue needs capacity for one item");
        Bounded {
            cap,
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(cap.min(1024)),
                closed: false,
                stats: QueueStats::default(),
            }),
            not_empty: Condvar::new(),
        }
    }

    /// Capacity fixed at construction.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items queued right now.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Is the queue empty right now?
    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    /// Snapshot the running totals.
    pub fn stats(&self) -> QueueStats {
        self.lock().stats
    }

    /// Enqueue without blocking; a full queue refuses immediately.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() == self.cap {
            inner.stats.rejected_full += 1;
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        inner.stats.pushed += 1;
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeue, blocking up to `timeout` for an item.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<T, PopError> {
        let t0 = Instant::now();
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                inner.stats.popped += 1;
                return Ok(item);
            }
            if inner.closed {
                return Err(PopError::Closed);
            }
            let remaining = match timeout.checked_sub(t0.elapsed()) {
                Some(rem) if !rem.is_zero() => rem,
                _ => return Err(PopError::TimedOut),
            };
            inner = self
                .not_empty
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Dequeue, blocking until an item arrives or the queue is closed
    /// *and* drained.
    pub fn pop(&self) -> Result<T, PopError> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                inner.stats.popped += 1;
                return Ok(item);
            }
            if inner.closed {
                return Err(PopError::Closed);
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Remove the queued item maximizing `key` (ties broken toward the
    /// back, i.e. the newest arrival). This is the shedding hook: a
    /// scheduler drops the lowest-priority queued job by keying on
    /// inverted priority. Returns `None` when empty.
    pub fn take_max_by_key<K: Ord>(&self, key: impl Fn(&T) -> K) -> Option<T> {
        let mut inner = self.lock();
        let idx = inner
            .items
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| key(a).cmp(&key(b)).then(ia.cmp(ib)))
            .map(|(i, _)| i)?;
        let item = inner.items.remove(idx);
        if item.is_some() {
            inner.stats.popped += 1;
        }
        item
    }

    /// Close the queue: further pushes fail with [`PushError::Closed`],
    /// queued items drain, and every blocked consumer wakes.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // Poison-tolerant: a panicking peer must not wedge the plane.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_refuses_when_full_and_counts() {
        let q = Bounded::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        let st = q.stats();
        assert_eq!((st.pushed, st.rejected_full), (2, 1));
        assert_eq!(q.pop(), Ok(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Ok(2));
        assert_eq!(q.pop(), Ok(3));
        assert!(q.is_empty());
    }

    #[test]
    fn close_wakes_blocked_consumers_and_drains() {
        let q = Arc::new(Bounded::new(4));
        q.try_push(7u8).unwrap();
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            let first = q2.pop();
            let second = q2.pop();
            (first, second)
        });
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        let (first, second) = h.join().unwrap();
        assert_eq!(first, Ok(7));
        assert_eq!(second, Err(PopError::Closed));
        assert_eq!(q.try_push(9), Err(PushError::Closed(9)));
    }

    #[test]
    fn pop_timeout_times_out_cleanly() {
        let q: Bounded<u8> = Bounded::new(1);
        assert_eq!(
            q.pop_timeout(Duration::from_millis(5)),
            Err(PopError::TimedOut)
        );
    }

    #[test]
    fn take_max_by_key_sheds_the_chosen_item() {
        let q = Bounded::new(4);
        for v in [3i64, 9, 1, 9] {
            q.try_push(v).unwrap();
        }
        // Max value, newest arrival on tie: the second 9 (index 3).
        assert_eq!(q.take_max_by_key(|&v| v), Some(9));
        assert_eq!(q.len(), 3);
        // Shed the *lowest* by inverting the key.
        assert_eq!(q.take_max_by_key(|&v| std::cmp::Reverse(v)), Some(1));
        assert_eq!(q.pop(), Ok(3));
        assert_eq!(q.pop(), Ok(9));
        assert!(q.take_max_by_key(|&v| v).is_none());
    }

    #[test]
    fn mpmc_under_contention_delivers_everything_once() {
        let q = Arc::new(Bounded::new(8));
        let total = 4 * 250;
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    let mut v = p * 1000 + i;
                    while let Err(full) = q.try_push(v) {
                        v = full.into_inner();
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in producers {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total);
        let st = q.stats();
        assert_eq!(st.pushed, total as u64);
        assert_eq!(st.popped, total as u64);
    }
}
