//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access, so the workspace patches
//! `parking_lot` to this shim (see `[patch.crates-io]` in the root
//! `Cargo.toml`). It keeps only the locks the workspace calls — `Mutex`
//! (`lock`, `try_lock`) and `RwLock` (`read`, `write`) with
//! parking-lot's API shape: guards returned directly, no poisoning —
//! implemented over `std::sync`. It has no condition variable and no
//! way to wait with a lock released: a task waits on a
//! `flock_sync::clock::Event`, the one blocking primitive of the
//! workspace.
//!
//! Poisoned std locks are transparently recovered: parking_lot has no
//! poisoning, and a panic while holding one of these locks already
//! aborts the owning test/process path.
//!
//! Debug builds check the lock order as they run ([`lockdep`]): every
//! lock has the class of the place that built it, and acquiring locks
//! of two classes in both orders panics. Release builds carry none of
//! it.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Mutex as StdMutex, RwLock as StdRwLock};

#[cfg(debug_assertions)]
#[expect(
    clippy::disallowed_types,
    reason = "the locks held are per OS thread: a thread_local! stack of classes"
)]
mod lockdep;

fn recover<G>(r: Result<G, sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(sync::PoisonError::into_inner)
}

/// A mutual-exclusion lock (no poisoning, guard returned directly).
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: lockdep::Class,
    inner: StdMutex<T>,
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: sync::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    class: &'a lockdep::Class,
}

impl<T> Mutex<T> {
    /// Create a mutex.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(debug_assertions)]
            class: lockdep::Class::here(),
            inner: StdMutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        lockdep::acquire(&self.class);
        MutexGuard {
            guard: recover(self.inner.lock()),
            #[cfg(debug_assertions)]
            class: &self.class,
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        lockdep::acquired(&self.class);
        Some(MutexGuard {
            guard,
            #[cfg(debug_assertions)]
            class: &self.class,
        })
    }
}

impl<T: Default> Default for Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        lockdep::release(self.class);
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A reader-writer lock (no poisoning, guards returned directly).
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    class: lockdep::Class,
    inner: StdRwLock<T>,
}

/// Shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    guard: sync::RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    class: &'a lockdep::Class,
}

/// Exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    guard: sync::RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    class: &'a lockdep::Class,
}

impl<T> RwLock<T> {
    /// Create a reader-writer lock.
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> RwLock<T> {
        RwLock {
            #[cfg(debug_assertions)]
            class: lockdep::Class::here(),
            inner: StdRwLock::new(value),
        }
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        lockdep::acquire(&self.class);
        RwLockReadGuard {
            guard: recover(self.inner.read()),
            #[cfg(debug_assertions)]
            class: &self.class,
        }
    }

    /// Acquire an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        lockdep::acquire(&self.class);
        RwLockWriteGuard {
            guard: recover(self.inner.write()),
            #[cfg(debug_assertions)]
            class: &self.class,
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        lockdep::release(self.class);
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        lockdep::release(self.class);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(5);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
            assert!(l.inner.try_write().is_err(), "readers exclude a writer");
        }
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }
}
