//! Offline stand-in for `crossbeam::channel`: multi-producer multi-consumer
//! channels with crossbeam's signatures, built on a mutex-protected deque and
//! two condition variables. Zero-capacity (rendezvous) channels are not
//! modelled; `bounded(0)` behaves as `bounded(1)`.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        cap: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn full(&self, s: &State<T>) -> bool {
            self.cap.is_some_and(|c| s.queue.len() >= c)
        }
    }

    /// Sending half; clone for more producers.
    pub struct Sender<T>(Arc<Shared<T>>);
    /// Receiving half; clone for more consumers.
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// The channel has no receiver left; the message comes back.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);
    /// Why a non-blocking send did not enqueue.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is at capacity.
        Full(T),
        /// No receiver is left.
        Disconnected(T),
    }
    /// The channel is empty and has no sender left.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;
    /// Why a non-blocking receive returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and no sender left.
        Disconnected,
    }
    /// Why a timed receive returned nothing.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed first.
        Timeout,
        /// Nothing queued and no sender left.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }
    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }
    impl<T> std::error::Error for SendError<T> {}
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
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }
    impl<T> std::error::Error for TrySendError<T> {}
    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }
    impl std::error::Error for RecvError {}
    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }
    impl std::error::Error for TryRecvError {}
    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }
    impl std::error::Error for RecvTimeoutError {}

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    /// A channel holding at most `cap` messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    /// A channel without a capacity limit.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    impl<T> Sender<T> {
        /// Block until the message is queued or every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut s = self.0.lock();
            loop {
                if s.receivers == 0 {
                    return Err(SendError(msg));
                }
                if !self.0.full(&s) {
                    s.queue.push_back(msg);
                    drop(s);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                s = self
                    .0
                    .not_full
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Queue the message only if there is room right now.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut s = self.0.lock();
            if s.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.0.full(&s) {
                return Err(TrySendError::Full(msg));
            }
            s.queue.push_back(msg);
            drop(s);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        fn pop(&self, s: &mut State<T>) -> Option<T> {
            let v = s.queue.pop_front();
            if v.is_some() {
                self.0.not_full.notify_one();
            }
            v
        }

        /// Block until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut s = self.0.lock();
            loop {
                if let Some(v) = self.pop(&mut s) {
                    return Ok(v);
                }
                if s.senders == 0 {
                    return Err(RecvError);
                }
                s = self
                    .0
                    .not_empty
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Take a message only if one is queued right now.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut s = self.0.lock();
            match self.pop(&mut s) {
                Some(v) => Ok(v),
                None if s.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// [`Receiver::recv`] giving up after `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut s = self.0.lock();
            loop {
                if let Some(v) = self.pop(&mut s) {
                    return Ok(v);
                }
                if s.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                s = self
                    .0
                    .not_empty
                    .wait_timeout(s, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }

        /// Blocking iterator that ends when the channel is empty and
        /// disconnected.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter(self)
        }

        /// Iterator over the messages queued right now.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter(self)
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    /// See [`Receiver::iter`].
    pub struct Iter<'a, T>(&'a Receiver<T>);
    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }

    /// See [`Receiver::try_iter`].
    pub struct TryIter<'a, T>(&'a Receiver<T>);
    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }

    /// Owning blocking iterator.
    pub struct IntoIter<T>(Receiver<T>);
    impl<T> Iterator for IntoIter<T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.0.recv().ok()
        }
    }
    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;
        fn into_iter(self) -> IntoIter<T> {
            IntoIter(self)
        }
    }
    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }
    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }
    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut s = self.0.lock();
            s.senders -= 1;
            if s.senders == 0 {
                drop(s);
                self.0.not_empty.notify_all();
            }
        }
    }
    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut s = self.0.lock();
            s.receivers -= 1;
            if s.receivers == 0 {
                drop(s);
                self.0.not_full.notify_all();
            }
        }
    }
    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }
    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn bounded_blocks_and_disconnects() {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(1).unwrap();
            assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
            let rx2 = rx.clone();
            let t = std::thread::spawn(move || rx2.iter().sum::<u32>());
            tx.send(3).unwrap();
            drop(tx);
            drop(rx);
            assert_eq!(t.join().unwrap(), 4);
        }

        #[test]
        fn recv_timeout_times_out_then_sees_disconnect() {
            let (tx, rx) = bounded::<u32>(4);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Timeout)
            );
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
