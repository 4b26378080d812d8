//! Ranked synchronization primitives with a runtime lock-order tracker.
//!
//! Every lock in the Dema runtime carries a static [`Rank`]: a small
//! integer plus a human-readable site label. The discipline is the
//! classical one — a thread may only acquire a lock whose rank is
//! **strictly greater** than every rank it already holds. Any execution
//! that respects a total rank order cannot contain a lock-order cycle,
//! so the discipline rules out lock-inversion deadlocks by construction.
//!
//! Under `debug_assertions` or `--features strict`, a thread-local
//! acquisition tracker records the ranks currently held and reports
//! [`DemaError::LockOrderViolation`] (naming both site labels) the
//! moment an acquisition would break the order — *before* blocking, so
//! the violation is caught deterministically on every run rather than
//! only on the unlucky interleaving that actually deadlocks. In release
//! builds without `strict` the wrappers compile to zero-cost
//! passthroughs over `std::sync`.
//!
//! The static side of the same contract is `dema-lint`'s concurrency
//! pass (rules R10–R13, DESIGN.md §8): R13 forbids raw `std::sync` /
//! `parking_lot` locks in the hot-path crates so every lock is forced
//! through these wrappers, and R10 cross-checks the nesting the lexer
//! can see against the acquisition graph. The rank table lives in
//! [`rank`]; DESIGN.md §8 documents rank → lock → owning module.
//!
//! Poisoning is absorbed ([`std::sync::PoisonError::into_inner`])
//! exactly as the pre-wrapper code did: a panicking holder already
//! fails the run through other channels, and the protocol state these
//! locks protect is re-validated by the invariant layer downstream.

use crate::error::Result;
use std::fmt;
use std::sync::PoisonError;
use std::time::Duration;

/// Static rank carried by every [`Mutex`]/[`RwLock`] in the runtime.
///
/// `order` is the position in the global acquisition order (strictly
/// increasing along any nesting chain); `label` is the site name used
/// in diagnostics. The canonical ranks for the repo's lock universe
/// live in [`rank`]; tests and benches may mint their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank {
    order: u16,
    label: &'static str,
}

impl Rank {
    /// Create a rank with the given acquisition order and site label.
    pub const fn new(order: u16, label: &'static str) -> Self {
        Rank { order, label }
    }

    /// Position in the global acquisition order.
    pub const fn order(&self) -> u16 {
        self.order
    }

    /// Human-readable site label used in diagnostics.
    pub const fn label(&self) -> &'static str {
        self.label
    }
}

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(rank {})", self.label, self.order)
    }
}

/// The canonical rank table (DESIGN.md §8, "lock ranking").
///
/// Orders are spaced by 2 so a future lock can slot between neighbours
/// without renumbering. The only *required* orderings — nestings that
/// actually occur at runtime — are `ROUTED_DOWNLINK` before
/// `NET_THROTTLE` / `NET_STEP_QUEUE` / `WIRE_BUF_POOL`: a
/// `RoutedSender` holds its downlink lock across the wrapped
/// transport's `send`, which may take the throttle gate, the in-memory
/// step queue, or the wire buffer pool. Every other lock is a leaf
/// (its guard is always dropped before any other lock is touched).
pub mod rank {
    use super::Rank;

    /// Shared routed downlink (`dema-cluster::relay`); held across the
    /// wrapped transport send, hence ranked below every transport lock.
    pub const ROUTED_DOWNLINK: Rank = Rank::new(20, "relay.downlink");
    /// Bandwidth-throttle gate (`dema-net::mem`).
    pub const NET_THROTTLE: Rank = Rank::new(30, "net.throttle");
    /// Single-stepped in-memory link queue (`dema-net::step`).
    pub const NET_STEP_QUEUE: Rank = Rank::new(32, "net.step_queue");
    /// Wire buffer pool spares (`dema-wire::pool`).
    pub const WIRE_BUF_POOL: Rank = Rank::new(40, "wire.buf_pool");
    /// Local engine slice store (`dema-cluster::engines::dema`).
    pub const LOCAL_STORE: Rank = Rank::new(50, "local.store");
    /// Local engine sent-message cache (`dema-cluster::engines::dema`).
    pub const LOCAL_SENT: Rank = Rank::new(52, "local.sent");
    /// Root-side window close-time map (`dema-cluster::local`).
    pub const CLOSE_TIMES: Rank = Rank::new(54, "cluster.close_times");
}

#[cfg(any(debug_assertions, feature = "strict"))]
mod tracker {
    use super::Rank;
    use crate::error::{DemaError, Result};
    use std::cell::RefCell;

    thread_local! {
        /// Ranks currently held by this thread, in acquisition order.
        /// Strictly increasing by construction: every push is checked
        /// against the current maximum, and dropping a middle guard
        /// preserves the order of the rest.
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    /// Proof of a tracked acquisition; pops its rank on drop.
    pub(super) struct Token {
        order: u16,
    }

    pub(super) fn acquire(rank: Rank) -> Result<Token> {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(blocker) = held.iter().rev().find(|r| r.order() >= rank.order()) {
                return Err(DemaError::LockOrderViolation {
                    held: blocker.to_string(),
                    acquiring: rank.to_string(),
                });
            }
            held.push(rank);
            Ok(Token {
                order: rank.order(),
            })
        })
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|r| r.order() == self.order) {
                    held.remove(pos);
                }
            });
        }
    }
}

#[cfg(not(any(debug_assertions, feature = "strict")))]
mod tracker {
    use super::Rank;
    use crate::error::Result;

    /// Zero-sized stand-in: release builds skip the tracker entirely.
    pub(super) struct Token;

    #[inline(always)]
    pub(super) fn acquire(_rank: Rank) -> Result<Token> {
        Ok(Token)
    }
}

/// Acquire a tracker token for `rank`, failing fast on inversion.
///
/// The panic is deliberate: a lock-order inversion is a programming
/// error in the runtime itself (never input-dependent), and the checked
/// builds exist precisely to surface it at the first occurrence.
/// Callers that want the error as a value use the `*_checked` methods.
fn grant(rank: Rank) -> tracker::Token {
    match tracker::acquire(rank) {
        Ok(token) => token,
        // lint: allow(R1): inversions are runtime bugs; checked builds fail fast at the site
        Err(e) => panic!("{e}"),
    }
}

/// A mutex carrying a static [`Rank`], checked by the thread-local
/// lock-order tracker in debug/strict builds.
pub struct Mutex<T> {
    rank: Rank,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Create a ranked mutex around `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        Mutex {
            rank,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// This lock's static rank.
    pub const fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquire the lock, panicking on a rank inversion in checked
    /// builds. Poisoning is absorbed.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = grant(self.rank);
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            rank: self.rank,
            _token: token,
        }
    }

    /// Acquire the lock, returning [`DemaError::LockOrderViolation`]
    /// instead of panicking when the tracker rejects the acquisition
    /// (always `Ok` in unchecked release builds).
    pub fn lock_checked(&self) -> Result<MutexGuard<'_, T>> {
        let token = tracker::acquire(self.rank)?;
        Ok(MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
            rank: self.rank,
            _token: token,
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`Mutex::lock`]; releases the tracker rank when
/// dropped.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    rank: Rank,
    _token: tracker::Token,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock carrying a static [`Rank`]. Read and write
/// acquisitions participate in the rank order identically: a recursive
/// read of the same lock is flagged too, since it can deadlock against
/// a writer queued between the two reads.
pub struct RwLock<T> {
    rank: Rank,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Create a ranked reader-writer lock around `value`.
    pub const fn new(rank: Rank, value: T) -> Self {
        RwLock {
            rank,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// This lock's static rank.
    pub const fn rank(&self) -> Rank {
        self.rank
    }

    /// Acquire a shared read guard, panicking on rank inversion in
    /// checked builds. Poisoning is absorbed.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = grant(self.rank);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    /// Acquire an exclusive write guard, panicking on rank inversion in
    /// checked builds. Poisoning is absorbed.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = grant(self.rank);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        }
    }

    /// Like [`RwLock::read`] but returning the violation as a value.
    pub fn read_checked(&self) -> Result<RwLockReadGuard<'_, T>> {
        let token = tracker::acquire(self.rank)?;
        Ok(RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        })
    }

    /// Like [`RwLock::write`] but returning the violation as a value.
    pub fn write_checked(&self) -> Result<RwLockWriteGuard<'_, T>> {
        let token = tracker::acquire(self.rank)?;
        Ok(RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
            _token: token,
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _token: tracker::Token,
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _token: tracker::Token,
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable paired with a ranked [`Mutex`].
///
/// While a thread is blocked in [`Condvar::wait`] the mutex is
/// *released*, so the tracker pops its rank for the duration of the
/// wait and re-acquires it (re-checked) when the wait returns. Waiting
/// on a condvar is therefore *not* "holding a lock across a blocking
/// call" — it is the one sanctioned block-while-locked primitive, and
/// lint rule R11 deliberately does not treat `wait` as a needle.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release `guard` and block until notified, then
    /// re-acquire the mutex (and its tracker rank). Poisoning absorbed.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard {
            inner,
            rank,
            _token,
        } = guard;
        drop(_token); // the mutex is released for the duration of the wait
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        MutexGuard {
            inner,
            rank,
            _token: grant(rank),
        }
    }

    /// [`Condvar::wait`] with a timeout; the boolean reports whether the
    /// wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let MutexGuard {
            inner,
            rank,
            _token,
        } = guard;
        drop(_token);
        let (inner, timeout) = self
            .inner
            .wait_timeout(inner, dur)
            .unwrap_or_else(PoisonError::into_inner);
        (
            MutexGuard {
                inner,
                rank,
                _token: grant(rank),
            },
            timeout.timed_out(),
        )
    }

    /// Wake one blocked waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake every blocked waiter.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[allow(unused_imports)] // only matched under debug/strict cfg
    use crate::error::DemaError;

    const LOW: Rank = Rank::new(100, "test.low");
    const HIGH: Rank = Rank::new(200, "test.high");

    #[test]
    fn ordered_nesting_is_accepted() {
        let a = Mutex::new(LOW, 1u32);
        let b = Mutex::new(HIGH, 2u32);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    /// The intentionally-inverted-rank self-test: acquiring a lower
    /// rank while a higher one is held must be reported, with both
    /// site labels in the error.
    #[test]
    #[cfg(any(debug_assertions, feature = "strict"))]
    fn inverted_nesting_is_reported_with_both_sites() {
        let a = Mutex::new(LOW, ());
        let b = Mutex::new(HIGH, ());
        let _gb = b.lock();
        let err = a.lock_checked().err().expect("inversion must be rejected");
        match err {
            DemaError::LockOrderViolation { held, acquiring } => {
                assert_eq!(held, "test.high(rank 200)");
                assert_eq!(acquiring, "test.low(rank 100)");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "strict"))]
    fn equal_rank_reacquisition_is_reported() {
        let a = Mutex::new(LOW, ());
        let b = Mutex::new(Rank::new(100, "test.low2"), ());
        let _ga = a.lock();
        assert!(b.lock_checked().is_err(), "equal ranks must not nest");
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "strict"))]
    fn panicking_lock_names_the_inversion() {
        let outcome = std::panic::catch_unwind(|| {
            let a = Mutex::new(LOW, ());
            let b = Mutex::new(HIGH, ());
            let _gb = b.lock();
            let _ga = a.lock(); // fires
        });
        let payload = outcome.err().expect("lock() must panic on inversion");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("lock-order violation")
                && msg.contains("test.low(rank 100)")
                && msg.contains("test.high(rank 200)"),
            "panic message must name both sites: {msg}"
        );
    }

    #[test]
    fn dropping_a_guard_releases_its_rank() {
        let a = Mutex::new(LOW, ());
        let b = Mutex::new(HIGH, ());
        {
            let _gb = b.lock();
        }
        // HIGH released: LOW is acquirable again, then HIGH on top.
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn out_of_order_guard_drops_keep_tracker_consistent() {
        let a = Mutex::new(LOW, ());
        let b = Mutex::new(Rank::new(150, "test.mid"), ());
        let c = Mutex::new(HIGH, ());
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.lock();
        drop(gb); // middle guard first
        drop(ga);
        drop(gc);
        // Everything released; full chain acquirable again.
        let _ga = a.lock();
        let _gc = c.lock();
    }

    #[test]
    fn rwlock_participates_in_the_rank_order() {
        let data = RwLock::new(LOW, vec![1, 2, 3]);
        {
            let r = data.read();
            assert_eq!(r.len(), 3);
        }
        {
            let mut w = data.write();
            w.push(4);
        }
        assert_eq!(data.read_checked().map(|g| g.len()), Ok(4));
        assert_eq!(data.write_checked().map(|g| g.len()), Ok(4));
    }

    #[test]
    #[cfg(any(debug_assertions, feature = "strict"))]
    fn rwlock_read_under_higher_rank_is_reported() {
        let data = RwLock::new(LOW, 0u8);
        let top = Mutex::new(HIGH, ());
        let _gt = top.lock();
        assert!(data.read_checked().is_err());
        assert!(data.write_checked().is_err());
    }

    #[test]
    fn condvar_wait_releases_and_reacquires_the_rank() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(HIGH, false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let handle = std::thread::spawn(move || {
            let (lock, cvar) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                ready = cvar.wait(ready);
            }
            *ready
        });
        {
            let (lock, cvar) = &*pair;
            *lock.lock() = true;
            cvar.notify_all();
        }
        assert!(handle.join().ok() == Some(true));
    }

    #[test]
    fn condvar_wait_timeout_reports_expiry() {
        let lock = Mutex::new(HIGH, ());
        let cvar = Condvar::new();
        let guard = lock.lock();
        let (_guard, timed_out) = cvar.wait_timeout(guard, Duration::from_millis(1));
        assert!(timed_out);
    }

    #[test]
    fn tracker_is_per_thread() {
        use std::sync::Arc;
        let a = Arc::new(Mutex::new(HIGH, ()));
        let _ga = a.lock();
        let a2 = Arc::clone(&a);
        // Another thread holds nothing: acquiring LOW-ranked locks there
        // is fine even while this thread sits on HIGH.
        let handle = std::thread::spawn(move || {
            let b = Mutex::new(LOW, ());
            let _gb = b.lock();
            drop(_gb);
            drop(a2);
            true
        });
        assert!(handle.join().ok() == Some(true));
    }

    #[test]
    fn ranks_expose_order_and_label() {
        assert_eq!(rank::ROUTED_DOWNLINK.order(), 20);
        assert_eq!(rank::ROUTED_DOWNLINK.label(), "relay.downlink");
        assert!(rank::ROUTED_DOWNLINK.order() < rank::NET_THROTTLE.order());
        assert!(rank::ROUTED_DOWNLINK.order() < rank::NET_STEP_QUEUE.order());
        assert!(rank::ROUTED_DOWNLINK.order() < rank::WIRE_BUF_POOL.order());
        assert_eq!(
            format!("{}", rank::CLOSE_TIMES),
            "cluster.close_times(rank 54)"
        );
    }
}
