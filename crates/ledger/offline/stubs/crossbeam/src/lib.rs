//! Offline stand-in for `crossbeam`: only `channel::unbounded`, over
//! `std::sync::mpsc` (itself a port of crossbeam-channel since Rust 1.67).

pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    #[derive(Debug)]
    pub struct Sender<T>(mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Self(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }

        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}
