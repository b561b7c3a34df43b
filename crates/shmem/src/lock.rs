//! Minimal `Mutex`/`Condvar` wrappers over `std::sync` with a
//! poisoning-free API (`lock`/`wait` return the guard directly).
//!
//! The threaded barrier and the ordering tracker deliberately panic
//! *through* their held locks (a poisoned world, a detected ordering
//! violation); `std`'s lock poisoning would then turn every later
//! acquisition into an unrelated panic. These wrappers recover the inner
//! guard instead, so the world's own poison protocol (`Exec::poison`)
//! stays the single source of failure truth.

use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard, PoisonError};

/// A mutex whose `lock` ignores `std` poisoning.
#[derive(Debug)]
pub(crate) struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }

    /// Acquire the lock, recovering the guard if a panicking thread
    /// poisoned it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable paired with [`Mutex`].
pub(crate) struct Condvar(StdCondvar);

impl Condvar {
    pub(crate) fn new() -> Condvar {
        Condvar(StdCondvar::new())
    }

    /// Atomically release the guard and wait for a notification.
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}
