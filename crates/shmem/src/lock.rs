//! Minimal `Mutex`/`Condvar` wrappers over `std::sync` with a
//! poisoning-free API (lock() returns the guard directly).
//!
//! The exploration gate and the threaded barrier deliberately panic
//! *through* held locks when a world is poisoned; `std`'s lock poisoning
//! would then turn every later acquisition into an unrelated panic. These
//! wrappers recover the inner guard instead, so the world's own poison
//! protocol (`Exec::poison`) stays the single source of failure truth.

use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard};

/// A mutex whose `lock` ignores `std` poisoning.
pub(crate) struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Mutex<T> {
        Mutex(StdMutex::new(value))
    }

    /// Acquire the lock, recovering the guard if a panicking thread
    /// poisoned it.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// A condition variable paired with [`Mutex`].
pub(crate) struct Condvar(StdCondvar);

impl Condvar {
    pub(crate) fn new() -> Condvar {
        Condvar(StdCondvar::new())
    }

    /// Atomically release the guard and wait for a notification.
    pub(crate) fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        // SAFETY-free std equivalent of parking_lot's in-place wait: move
        // the guard out, wait, move the reacquired guard back in.
        take_mut(guard, |g| match self.0.wait(g) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        });
    }

    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Replace `*slot` via `f`, aborting the process if `f` panics (it cannot:
/// both callers only move guards through `Condvar::wait`).
fn take_mut<T>(slot: &mut T, f: impl FnOnce(T) -> T) {
    // SAFETY: `ptr::read` duplicates `*slot`, leaving the slot logically
    // uninitialized until the matching `ptr::write` below. Every exit path
    // between the two either writes a replacement value back (the normal
    // path) or aborts the process without unwinding (`catch_unwind` +
    // `abort`), so no caller — including a panicking one — can ever
    // observe or drop the duplicated value twice.
    unsafe {
        let old = std::ptr::read(slot);
        let new = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(old)))
            .unwrap_or_else(|_| std::process::abort());
        std::ptr::write(slot, new);
    }
}
