//! Offline stand-in for the `parking_lot` crate.
//!
//! Implements the subset CrowdWeb uses — [`Mutex`], [`RwLock`], and
//! `Condvar`-free guards with the *non-poisoning* API shape of the
//! real crate — on top of `std::sync`. A poisoned std lock (a panic
//! while held) is recovered by taking the inner value, matching
//! parking_lot's "panics don't poison" semantics closely enough for
//! this codebase.

#![forbid(unsafe_code)]

use std::sync::{self, MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Non-poisoning mutex with the `parking_lot::Mutex` API subset.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Locks the mutex, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

/// Non-poisoning reader-writer lock with the `parking_lot::RwLock` API
/// subset.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new lock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    /// Acquires a shared read guard, recovering from poisoning.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Acquires an exclusive write guard, recovering from poisoning.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(sync::PoisonError::into_inner)
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }
}
