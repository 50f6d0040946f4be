//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access, so the workspace patches
//! `parking_lot` to this shim (see `[patch.crates-io]` in the root
//! `Cargo.toml`). It exposes the parking-lot API shape — `lock()`
//! returning a guard directly, no poisoning, `Condvar` working with this
//! `Mutex`, `MutexGuard::unlocked` — implemented over `std::sync`.
//! Poisoned std locks are transparently recovered: parking_lot has no
//! poisoning, and a panic while holding one of these locks already
//! aborts the owning test/process path.
//!
//! Debug builds check the lock order as they run ([`lockdep`]): every
//! lock has the class of the place that built it, and acquiring locks
//! of two classes in both orders panics. Release builds carry none of
//! it.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "a stand-in for a std-backed crate is built on the host's threads and clock"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Condvar as StdCondvar, Mutex as StdMutex, RwLock as StdRwLock};
use std::time::{Duration, Instant};

#[cfg(debug_assertions)]
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

/// RAII guard for [`Mutex`]. The inner `Option` is only `None`
/// transiently inside [`Condvar`] waits and [`MutexGuard::unlocked`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    guard: Option<sync::MutexGuard<'a, T>>,
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

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(
            self.inner
                .into_inner()
                .map_err(|e| sync::PoisonError::new(e.into_inner())),
        )
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        lockdep::acquire(&self.class);
        MutexGuard {
            lock: self,
            guard: Some(recover(self.inner.lock())),
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
            lock: self,
            guard: Some(guard),
        })
    }

    /// Get a mutable reference to the underlying data (no locking
    /// needed: `&mut self` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        recover(
            self.inner
                .get_mut()
                .map_err(|e| sync::PoisonError::new(e.into_inner())),
        )
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

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Temporarily release the lock while running `f`, reacquiring it
    /// afterwards (parking_lot's `MutexGuard::unlocked`).
    pub fn unlocked<F, U>(s: &mut Self, f: F) -> U
    where
        F: FnOnce() -> U,
    {
        #[cfg(debug_assertions)]
        lockdep::release(&s.lock.class);
        s.guard = None;
        let r = f();
        #[cfg(debug_assertions)]
        lockdep::acquire(&s.lock.class);
        s.guard = Some(recover(s.lock.inner.lock()));
        r
    }

    /// Take the std guard out for a wait, which releases the lock.
    fn std_guard(&mut self) -> sync::MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        lockdep::release(&self.lock.class);
        self.guard.take().expect("guard present outside waits")
    }

    /// Put back the guard a wait reacquired.
    fn restore(&mut self, g: sync::MutexGuard<'a, T>) {
        #[cfg(debug_assertions)]
        lockdep::acquire(&self.lock.class);
        self.guard = Some(g);
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.guard.is_some() {
            lockdep::release(&self.lock.class);
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside waits")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside waits")
    }
}

/// Result of a timed [`Condvar`] wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable usable with this module's [`Mutex`].
#[derive(Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Condvar {
        Condvar {
            inner: StdCondvar::new(),
        }
    }

    /// Block until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.std_guard();
        guard.restore(recover(self.inner.wait(g)));
    }

    /// Block until notified or `deadline` passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let timeout = deadline.saturating_duration_since(Instant::now());
        self.wait_for(guard, timeout)
    }

    /// Block until notified or `timeout` elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let g = guard.std_guard();
        let (g, res) = recover(
            self.inner
                .wait_timeout(g, timeout)
                .map_err(|e| sync::PoisonError::new(e.into_inner())),
        );
        guard.restore(g);
        WaitTimeoutResult(res.timed_out())
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
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

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        recover(
            self.inner
                .into_inner()
                .map_err(|e| sync::PoisonError::new(e.into_inner())),
        )
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

    /// Try to acquire a read lock without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let guard = match self.inner.try_read() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        lockdep::acquired(&self.class);
        Some(RwLockReadGuard {
            guard,
            #[cfg(debug_assertions)]
            class: &self.class,
        })
    }

    /// Try to acquire a write lock without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let guard = match self.inner.try_write() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        #[cfg(debug_assertions)]
        lockdep::acquired(&self.class);
        Some(RwLockWriteGuard {
            guard,
            #[cfg(debug_assertions)]
            class: &self.class,
        })
    }

    /// Get a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        recover(
            self.inner
                .get_mut()
                .map_err(|e| sync::PoisonError::new(e.into_inner())),
        )
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
    use std::sync::Arc;

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
    fn guard_unlocked_releases_and_reacquires() {
        let m = Arc::new(Mutex::new(0));
        let mut g = m.lock();
        let m2 = Arc::clone(&m);
        let observed = MutexGuard::unlocked(&mut g, move || {
            let v = *m2.lock();
            v
        });
        assert_eq!(observed, 0);
        *g += 1;
        drop(g);
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn condvar_wait_until_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_until(&mut g, Instant::now() + Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn condvar_notify_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            *done = true;
            cv.notify_one();
            drop(done);
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            let r = cv.wait_until(&mut done, Instant::now() + Duration::from_secs(5));
            assert!(!r.timed_out(), "notification lost");
        }
        drop(done);
        h.join().unwrap();
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(5);
        {
            let r1 = l.read();
            let r2 = l.read();
            assert_eq!(*r1 + *r2, 10);
            assert!(l.try_write().is_none());
        }
        *l.write() = 6;
        assert_eq!(*l.read(), 6);
    }
}
