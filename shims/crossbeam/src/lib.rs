//! Offline stand-in for the `crossbeam` crate.
//!
//! Only the `channel` module is provided, as a thin veneer over
//! `std::sync::mpsc`, whose modern implementation is itself the crossbeam
//! channel algorithm. No workspace code uses it any more; the manifests
//! keep the dependency only so the benchmark's frozen lock file stays
//! valid.

pub mod channel {
    use std::fmt;
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
    }

    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender { inner: tx }, Receiver { inner: rx })
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.inner.send(value)
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender { inner: self.inner.clone() }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.inner.recv()
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.inner.try_recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.inner.recv_timeout(timeout)
        }

        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.inner.iter()
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
        fn fan_in_from_cloned_senders() {
            let (tx, rx) = unbounded();
            let tx2 = tx.clone();
            tx.send(1).unwrap();
            tx2.send(2).unwrap();
            drop((tx, tx2));
            let got: Vec<i32> = rx.iter().collect();
            assert_eq!(got, vec![1, 2]);
        }

        #[test]
        fn recv_after_disconnect_errors() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert!(rx.recv().is_err());
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }
    }
}
