//! Bounded shard admission queues.
//!
//! Each shard thread consumes work through one of these instead of an
//! unbounded mpsc channel. The bound is expressed in *requests*, not
//! messages: an I/O batch of `k` requests occupies `k` units of the
//! queue's capacity, so the depth gauge and the `BUSY` payload both
//! speak the unit clients care about.
//!
//! Admission is two-phase so a reader can split a batch exactly at the
//! remaining capacity without racing other connections:
//!
//! 1. [`QueueSender::try_reserve`] atomically grants
//!    `min(want, capacity − depth)` units and bumps the depth.
//! 2. [`QueueSender::push_reserved`] enqueues the message carrying the
//!    granted weight (no further depth change).
//!
//! Whatever was *not* granted is the caller's overload signal: the
//! reader answers those requests with `BUSY` instead of queueing them.
//! Control messages (statistics polls) bypass the bound through
//! [`QueueSender::push_control`] — they are rare, tiny, and must not be
//! starved by data-plane pressure.
//!
//! Depth is decremented when the consumer *pops* a message, so the
//! gauge reads "requests accepted but not yet started", matching what a
//! client can influence by backing off.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// What the queue mutex guards.
#[derive(Debug)]
struct Locked<T> {
    items: VecDeque<(T, usize)>,
    /// Live [`QueueSender`] handles; 0 + empty queue = disconnected.
    /// Under the mutex, so the last sender's drop cannot fall between
    /// `pop`'s look at the count and its wait.
    senders: usize,
}

/// Shared state behind one shard's queue.
#[derive(Debug)]
struct Inner<T> {
    queue: Mutex<Locked<T>>,
    ready: Condvar,
    capacity: usize,
    /// Requests reserved but not yet popped.
    depth: AtomicUsize,
    /// Highest depth ever observed at reserve time.
    high_water: AtomicU64,
    /// Cleared when the [`QueueReceiver`] drops: reservations fail
    /// `Closed` from then on.
    receiver_alive: AtomicBool,
    /// Runs in `pop` between the sender check and the wait.
    #[cfg(test)]
    pause_before_wait: tests::Hook,
}

/// A reservation too small (or a disconnected consumer): the portion of
/// the batch that was **not** admitted must be bounced with `BUSY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryPushError {
    /// The queue is full: `depth` requests were already waiting.
    Full {
        /// Queue depth at the moment of rejection.
        depth: usize,
    },
    /// The consumer is gone (shard thread exited); nothing can be
    /// admitted any more.
    Closed,
}

/// The producing half: cloned into every connection reader.
#[derive(Debug)]
pub struct QueueSender<T> {
    inner: Arc<Inner<T>>,
}

/// The consuming half: owned by exactly one shard thread.
#[derive(Debug)]
pub struct QueueReceiver<T> {
    inner: Arc<Inner<T>>,
}

/// Creates a queue bounded at `capacity` requests.
///
/// # Panics
///
/// Panics if `capacity` is zero.
#[must_use]
pub fn bounded<T>(capacity: usize) -> (QueueSender<T>, QueueReceiver<T>) {
    assert!(
        capacity > 0,
        "a shard queue needs capacity for at least one request"
    );
    let inner = Arc::new(Inner {
        queue: Mutex::new(Locked {
            items: VecDeque::new(),
            senders: 1,
        }),
        ready: Condvar::new(),
        capacity,
        depth: AtomicUsize::new(0),
        high_water: AtomicU64::new(0),
        receiver_alive: AtomicBool::new(true),
        #[cfg(test)]
        pause_before_wait: tests::Hook::default(),
    });
    (
        QueueSender {
            inner: Arc::clone(&inner),
        },
        QueueReceiver { inner },
    )
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        self.inner.queue.lock().expect("queue poisoned").senders += 1;
        QueueSender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        // No panic in a drop: a poisoned queue still holds a valid count.
        let mut q = self
            .inner
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        q.senders -= 1;
        if q.senders == 0 {
            // Last sender gone: wake the consumer so it can drain +
            // exit. Notified under the lock, so a consumer between its
            // sender check and its wait cannot miss it.
            self.inner.ready.notify_all();
        }
    }
}

impl<T> QueueSender<T> {
    /// Atomically grants up to `want` units of capacity, returning the
    /// granted count (0 when the queue is already full). The grant is
    /// committed immediately — follow up with
    /// [`push_reserved`](Self::push_reserved) for exactly the granted
    /// weight.
    ///
    /// # Errors
    ///
    /// Returns [`TryPushError`] when nothing was granted: `Full` with
    /// the current depth, or `Closed` if the consumer is gone.
    pub fn try_reserve(&self, want: usize) -> Result<usize, TryPushError> {
        let _guard = self.inner.queue.lock().expect("queue poisoned");
        if !self.inner.receiver_alive.load(Ordering::Relaxed) {
            return Err(TryPushError::Closed);
        }
        let depth = self.inner.depth.load(Ordering::Relaxed);
        let granted = want.min(self.inner.capacity.saturating_sub(depth));
        if granted == 0 {
            return Err(TryPushError::Full { depth });
        }
        let after = depth + granted;
        self.inner.depth.store(after, Ordering::Relaxed);
        let hw = &self.inner.high_water;
        if after as u64 > hw.load(Ordering::Relaxed) {
            hw.store(after as u64, Ordering::Relaxed);
        }
        Ok(granted)
    }

    /// Enqueues a message whose capacity was already granted by
    /// [`try_reserve`](Self::try_reserve); `weight` must equal the
    /// granted count.
    pub fn push_reserved(&self, item: T, weight: usize) {
        let mut q = self.inner.queue.lock().expect("queue poisoned");
        q.items.push_back((item, weight));
        drop(q);
        self.inner.ready.notify_one();
    }

    /// Enqueues a control message (weight 0) regardless of data-plane
    /// pressure. Dropped (not queued) if the consumer is gone —
    /// mirroring `mpsc` send-after-disconnect, which callers already
    /// ignore; dropping matters so reply channels riding inside the
    /// message disconnect instead of sitting in a dead queue.
    pub fn push_control(&self, item: T) {
        let mut q = self.inner.queue.lock().expect("queue poisoned");
        if !self.inner.receiver_alive.load(Ordering::Relaxed) {
            return;
        }
        q.items.push_back((item, 0));
        drop(q);
        self.inner.ready.notify_one();
    }

    /// Current queue depth in requests.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner.depth.load(Ordering::Relaxed)
    }
}

impl<T> Drop for QueueReceiver<T> {
    fn drop(&mut self) {
        // Under the lock so no reservation is mid-flight when the flag
        // flips; senders observe `Closed` from the next attempt on.
        let _guard = self.inner.queue.lock().expect("queue poisoned");
        self.inner.receiver_alive.store(false, Ordering::Relaxed);
    }
}

impl<T> QueueReceiver<T> {
    /// Blocks for the next message; `None` once every sender is gone
    /// and the queue has drained.
    pub fn pop(&self) -> Option<T> {
        let mut q = self.inner.queue.lock().expect("queue poisoned");
        loop {
            if let Some((item, weight)) = q.items.pop_front() {
                if weight > 0 {
                    self.inner.depth.fetch_sub(weight, Ordering::Relaxed);
                }
                return Some(item);
            }
            if q.senders == 0 {
                return None;
            }
            #[cfg(test)]
            self.inner.pause_before_wait.run();
            q = self.inner.ready.wait(q).expect("queue poisoned");
        }
    }

    /// Current queue depth in requests.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner.depth.load(Ordering::Relaxed)
    }

    /// Highest depth ever observed.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.inner.high_water.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A test's pause inside `pop`, set at most once; none by default.
    #[derive(Default)]
    pub(super) struct Hook(std::sync::OnceLock<Box<dyn Fn() + Send + Sync>>);

    impl Hook {
        pub(super) fn run(&self) {
            if let Some(pause) = self.0.get() {
                pause();
            }
        }
    }

    impl std::fmt::Debug for Hook {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Hook")
        }
    }

    #[test]
    fn the_last_sender_dropped_while_pop_heads_for_its_wait_still_wakes_it() {
        // `pop` has seen a live sender and is about to wait; the pause
        // lets the test drop the last sender right there. A drop that
        // neither takes the lock nor notifies under it finds no waiter,
        // and `pop` sleeps forever. The pause waits for the drop only
        // so long, because a drop that takes the lock cannot finish
        // until `pop` waits.
        let (in_window_tx, in_window) = mpsc::channel::<()>();
        let (dropped_tx, dropped) = mpsc::channel::<()>();
        let in_window_tx = std::sync::Mutex::new(in_window_tx);
        let dropped = std::sync::Mutex::new(dropped);
        let (tx, rx) = bounded::<u32>(4);
        let pause = Box::new(move || {
            in_window_tx.lock().unwrap().send(()).ok();
            let _ = dropped
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_millis(200));
        });
        assert!(rx.inner.pause_before_wait.0.set(pause).is_ok());
        let (popped_tx, popped) = mpsc::channel();
        // Not joined on failure: a missed wake-up leaves it asleep.
        let consumer = std::thread::spawn(move || popped_tx.send(rx.pop()).ok());
        in_window
            .recv_timeout(Duration::from_secs(2))
            .expect("pop reached its wait");
        drop(tx);
        dropped_tx.send(()).ok();
        assert_eq!(
            popped.recv_timeout(Duration::from_secs(2)),
            Ok(None),
            "pop missed the last sender's wake-up"
        );
        consumer.join().unwrap();
    }

    #[test]
    fn reserve_splits_exactly_at_capacity() {
        let (tx, rx) = bounded::<u32>(8);
        assert_eq!(tx.try_reserve(5).unwrap(), 5);
        tx.push_reserved(1, 5);
        // Only 3 units left: a 6-unit batch gets a partial grant.
        assert_eq!(tx.try_reserve(6).unwrap(), 3);
        tx.push_reserved(2, 3);
        assert_eq!(tx.try_reserve(1), Err(TryPushError::Full { depth: 8 }));
        assert_eq!(tx.depth(), 8);
        assert_eq!(rx.high_water(), 8);

        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.depth(), 3);
        // Capacity freed by the pop is grantable again.
        assert_eq!(tx.try_reserve(10).unwrap(), 5);
    }

    #[test]
    fn control_messages_bypass_a_full_queue() {
        let (tx, rx) = bounded::<&str>(1);
        assert_eq!(tx.try_reserve(1).unwrap(), 1);
        tx.push_reserved("io", 1);
        assert!(matches!(tx.try_reserve(1), Err(TryPushError::Full { .. })));
        tx.push_control("stats");
        assert_eq!(rx.pop(), Some("io"));
        assert_eq!(rx.pop(), Some("stats"));
        assert_eq!(rx.depth(), 0);
    }

    #[test]
    fn pop_returns_none_after_last_sender_drops() {
        let (tx, rx) = bounded::<u32>(4);
        let tx2 = tx.clone();
        tx.try_reserve(1).unwrap();
        tx.push_reserved(7, 1);
        drop(tx);
        drop(tx2);
        assert_eq!(rx.pop(), Some(7));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn reserve_fails_closed_after_receiver_drops() {
        let (tx, rx) = bounded::<u32>(4);
        drop(rx);
        assert_eq!(tx.try_reserve(1), Err(TryPushError::Closed));
    }

    #[test]
    fn blocked_pop_wakes_on_disconnect() {
        let (tx, rx) = bounded::<u32>(4);
        let h = std::thread::spawn(move || rx.pop());
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(tx);
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn concurrent_reservations_never_exceed_capacity() {
        let (tx, rx) = bounded::<usize>(64);
        let mut joins = Vec::new();
        for _ in 0..4 {
            let tx = tx.clone();
            joins.push(std::thread::spawn(move || {
                let mut granted_total = 0usize;
                for _ in 0..1_000 {
                    if let Ok(g) = tx.try_reserve(7) {
                        tx.push_reserved(g, g);
                        granted_total += g;
                    }
                }
                granted_total
            }));
        }
        drop(tx);
        let mut popped = 0usize;
        while let Some(g) = rx.pop() {
            popped += g;
        }
        let granted: usize = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert_eq!(popped, granted, "every granted request must be popped");
        // `high_water` is recorded under the queue's mutex; sampling
        // `depth()` here, after `pop()` has released it, would count a
        // producer's re-reservation of the freed weight twice.
        let high_water = rx.high_water();
        assert!(high_water <= 64, "depth overshot the bound: {high_water}");
    }
}
