//! Offline stand-in for `crossbeam` (0.8 API subset).
//!
//! Provides [`channel::unbounded`] and [`channel::bounded`]:
//! multi-producer multi-consumer FIFOs built on `Mutex<VecDeque>` +
//! `Condvar`. Slower than crossbeam's lock-free queue but semantically
//! identical for the sweep runner's work-distribution pattern (clonable
//! receivers, disconnect on last sender drop, blocking `recv`, iteration
//! until disconnect). The bounded variant blocks `send` while the queue
//! is full (backpressure) and offers a non-blocking
//! [`channel::Sender::try_send`].
//!
//! Also provides [`thread::scope`] (re-exported as [`scope`]): crossbeam's
//! scoped-thread API implemented on `std::thread::scope`. The closure
//! passed to `Scope::spawn` receives `&Scope` exactly like upstream, so
//! nested spawns work; the outer call returns `thread::Result` (always
//! `Ok` here — std scoped threads propagate panics directly instead of
//! collecting them).

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
        /// Signals blocked bounded senders that a slot opened (a message
        /// was popped, or every receiver went away).
        space: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// `None` = unbounded; `Some(cap)` = at most `cap` queued items.
        capacity: Option<usize>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like upstream: Debug without a `T: Debug` bound.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty (senders may still exist).
        Empty,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error returned by [`Sender::try_send`].
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and currently full; the value is returned.
        Full(T),
        /// Every receiver is gone; the value is returned.
        Disconnected(T),
    }

    // Like upstream: Debug without a `T: Debug` bound.
    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => {
                    write!(f, "sending on a disconnected channel")
                }
            }
        }
    }

    /// Sending half; clonable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; clonable (any one receiver gets each message).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                capacity,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded mpmc channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded mpmc channel holding at most `cap` queued
    /// messages; `send` blocks while the queue is full. Upstream crossbeam
    /// supports `cap == 0` as a rendezvous channel — this shim approximates
    /// it with capacity 1 (the batch-writer usage never passes 0).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only if every receiver is dropped. On a
        /// bounded channel this blocks while the queue is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match state.capacity {
                    Some(cap) if state.items.len() >= cap => {
                        state = self.shared.space.wait(state).unwrap();
                    }
                    _ => break,
                }
            }
            state.items.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }

        /// Non-blocking send: enqueues `value`, or reports the channel full
        /// (bounded only) or disconnected without waiting.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.shared.queue.lock().unwrap();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = state.capacity {
                if state.items.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            state.items.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(item) = state.items.pop_front() {
                    drop(state);
                    self.shared.space.notify_one();
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.ready.wait(state).unwrap();
            }
        }

        /// Non-blocking receive: a queued message, or the channel's
        /// emptiness/disconnect state right now (mailbox workers use this
        /// to drain a batch after the blocking `recv` woke them).
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.shared.space.notify_one();
                return Ok(item);
            }
            if state.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Number of messages currently queued (upstream crossbeam API;
        /// the mailbox workers export this as a queue-depth gauge).
        pub fn len(&self) -> usize {
            self.shared.queue.lock().unwrap().items.len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator over incoming messages until disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap();
            state.receivers -= 1;
            if state.receivers == 0 {
                drop(state);
                // Wake senders blocked on a full bounded queue so they can
                // observe the disconnect.
                self.shared.space.notify_all();
            }
        }
    }

    /// Borrowing message iterator; see [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    /// Owning message iterator.
    pub struct IntoIter<T> {
        receiver: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> IntoIter<T> {
            IntoIter { receiver: self }
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

/// Scoped threads (crossbeam 0.8 `thread` module subset).
pub mod thread {
    use std::thread as sthread;

    /// A join handle for a scoped thread (std's, re-exported under the
    /// crossbeam name).
    pub type ScopedJoinHandle<'scope, T> = sthread::ScopedJoinHandle<'scope, T>;

    /// The scope handle passed to [`scope`]'s closure; threads spawned
    /// through it may borrow from the enclosing environment and are joined
    /// before [`scope`] returns.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope sthread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread. Like upstream crossbeam, the closure
        /// receives the scope again so it can spawn siblings.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            self.inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Creates a scope for spawning borrowing threads; every spawned thread
    /// is joined before this returns. Always `Ok` in this shim (a panicking
    /// scoped thread propagates its panic at join, std semantics).
    pub fn scope<'env, F, R>(f: F) -> sthread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(sthread::scope(|s| f(&Scope { inner: s })))
    }
}

pub use thread::scope;

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fifo_single_thread() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn iteration_ends_on_disconnect() {
        let (tx, rx) = channel::unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.into_iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn mpmc_across_threads_delivers_everything() {
        let (tx, rx) = channel::unbounded::<usize>();
        let (tx_out, rx_out) = channel::unbounded::<usize>();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rx = rx.clone();
                let tx_out = tx_out.clone();
                scope.spawn(move || {
                    while let Ok(v) = rx.recv() {
                        tx_out.send(v * 2).unwrap();
                    }
                });
            }
            drop(rx);
            drop(tx_out);
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let mut got: Vec<usize> = rx_out.into_iter().collect();
            got.sort_unstable();
            assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        });
    }

    #[test]
    fn try_recv_reports_empty_then_disconnected() {
        let (tx, rx) = channel::unbounded();
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        tx.send(7).unwrap();
        assert_eq!(rx.try_recv(), Ok(7));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        assert_eq!(tx.send(5), Err(channel::SendError(5)));
    }

    #[test]
    fn bounded_try_send_reports_full_then_accepts_after_recv() {
        let (tx, rx) = channel::bounded(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        assert_eq!(tx.try_send(3), Err(channel::TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
        drop(rx);
        assert_eq!(tx.try_send(4), Err(channel::TrySendError::Disconnected(4)));
    }

    #[test]
    fn bounded_zero_capacity_holds_at_least_one() {
        let (tx, rx) = channel::bounded(0);
        assert!(tx.try_send(9).is_ok());
        assert_eq!(tx.try_send(10), Err(channel::TrySendError::Full(10)));
        assert_eq!(rx.recv(), Ok(9));
    }

    #[test]
    fn bounded_send_blocks_until_space_and_delivers_in_order() {
        let (tx, rx) = channel::bounded::<usize>(1);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<usize> = (0..100).map(|_| rx.recv().unwrap()).collect();
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn bounded_blocked_sender_errors_when_receiver_drops() {
        let (tx, rx) = channel::bounded::<u32>(1);
        tx.send(1).unwrap();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| tx.send(2));
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(rx);
            assert_eq!(handle.join().unwrap(), Err(channel::SendError(2)));
        });
    }

    #[test]
    fn scope_joins_and_borrows() {
        let data = [1u64, 2, 3, 4];
        let mut partial = vec![0u64; 2];
        super::scope(|s| {
            let (lo, hi) = partial.split_at_mut(1);
            let handle = s.spawn(|_| data[..2].iter().sum::<u64>());
            // Nested spawn through the scope handle, like upstream.
            s.spawn(|s2| {
                let inner = s2.spawn(|_| data[2..].iter().sum::<u64>());
                hi[0] = inner.join().unwrap();
            });
            lo[0] = handle.join().unwrap();
        })
        .unwrap();
        assert_eq!(partial, vec![3, 7]);
    }
}
