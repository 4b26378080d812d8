//! Counting global allocator — the dynamic twin of lint rules R15–R17
//! (DESIGN.md §8), exactly as the ranked lock tracker ([`crate::sync`])
//! backs R10–R13.
//!
//! Armed under `debug_assertions` or the `strict` feature, the allocator
//! hands every request straight to [`std::alloc::System`] and counts it
//! against the current [`Phase`] (set by [`enter_phase`]) twice: in
//! process-wide atomics, read by [`snapshot`] and `RunReport.alloc`, and in
//! thread-local cells, read by [`AllocGate`], so a gate sees only the thread
//! that opened it. Nothing is pooled: zero means nothing was allocated.
//!
//! Disarmed (release without `strict`), this module registers no global
//! allocator at all and every probe compiles to a constant. It is the one
//! module of `dema-core` allowed `unsafe` (the [`std::alloc::GlobalAlloc`]
//! contract is unsafe by nature); the crate root denies it everywhere else.

use std::array::from_fn;
use std::cell::Cell;

/// Number of attribution phases (the length of [`AllocSnapshot::fresh`]).
pub const PHASES: usize = 6;

/// Hot-path phase an allocation is attributed to.
///
/// Entry points of the per-window pipeline scope themselves with
/// [`enter_phase`]; everything outside a scoped region lands in
/// [`Phase::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Unattributed (setup, teardown, bookkeeping).
    Other = 0,
    /// Per-window sort ([`crate::par::sort_events_with`]).
    Sort = 1,
    /// Window slicing ([`crate::slice::cut_into_slices`]).
    Slice = 2,
    /// Wire encode (`dema-wire` message/frame encoding).
    Encode = 3,
    /// Wire decode (`dema-wire` message/frame decoding).
    Decode = 4,
    /// K-way merge / selection ([`crate::merge`]).
    Merge = 5,
}

/// Human-readable name of phase index `i` (see [`AllocSnapshot::fresh`]).
pub fn phase_name(i: usize) -> &'static str {
    const NAMES: [&str; PHASES] = ["other", "sort", "slice", "encode", "decode", "merge"];
    NAMES.get(i).copied().unwrap_or("other")
}

/// A point-in-time (or delta) reading of the allocator's counters;
/// all-zero when the allocator is disarmed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// System allocations per phase (index = [`Phase`] as usize); a
    /// `realloc` counts as one allocation of its new size.
    pub fresh: [u64; PHASES],
    /// Bytes of those allocations, per phase.
    pub fresh_bytes: [u64; PHASES],
    /// `realloc` calls observed (each is also counted in `fresh`).
    pub reallocs: u64,
}

impl AllocSnapshot {
    /// Total system allocations across all phases.
    pub fn fresh_total(&self) -> u64 {
        self.fresh.iter().sum()
    }

    /// Counter deltas since `earlier` (saturating; counters only grow).
    pub fn since(&self, earlier: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            fresh: from_fn(|i| self.fresh[i].saturating_sub(earlier.fresh[i])),
            fresh_bytes: from_fn(|i| self.fresh_bytes[i].saturating_sub(earlier.fresh_bytes[i])),
            reallocs: self.reallocs.saturating_sub(earlier.reallocs),
        }
    }
}

/// `true` when the counting allocator is registered (debug builds or
/// `--features strict`); `false` in plain release builds, where every
/// function here is a zero-cost stub.
pub fn armed() -> bool {
    cfg!(any(debug_assertions, feature = "strict"))
}

/// Scope guard restoring the previous phase on drop (see [`enter_phase`]).
#[derive(Debug)]
pub struct PhaseGuard {
    prev: u8,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if armed() {
            let _ = PHASE.try_with(|c| c.set(self.prev));
        }
    }
}

thread_local! {
    /// Current phase tag of this thread, read by the allocator on every
    /// fresh allocation. Const-initialized: reading it never allocates.
    static PHASE: Cell<u8> = const { Cell::new(0) };
}

/// Attribute this thread's allocations to `phase` until the returned
/// guard drops (nesting restores the outer phase). Free when disarmed.
pub fn enter_phase(phase: Phase) -> PhaseGuard {
    if !armed() {
        return PhaseGuard { prev: 0 };
    }
    let prev = PHASE
        .try_with(|c| {
            let prev = c.get();
            c.set(phase as u8);
            prev
        })
        .unwrap_or(0);
    PhaseGuard { prev }
}

/// Read the process-wide counters (all zero when disarmed).
pub fn snapshot() -> AllocSnapshot {
    armed_impl::snapshot()
}

/// A thread-scoped allocation gate — the dynamic proof behind lint rules
/// R15–R17. Other threads' allocations never reach it, so asserting on
/// [`AllocGate::delta`] is safe while sibling tests run.
#[derive(Debug)]
pub struct AllocGate(AllocSnapshot);

impl AllocGate {
    /// Open a gate over a steady-state region of the calling thread.
    pub fn steady_state() -> AllocGate {
        AllocGate(armed_impl::thread_snapshot())
    }

    /// What this thread has allocated since the gate opened.
    pub fn delta(&self) -> AllocSnapshot {
        armed_impl::thread_snapshot().since(&self.0)
    }
}

#[cfg(any(debug_assertions, feature = "strict"))]
#[allow(unsafe_code)]
mod armed_impl {
    //! The armed allocator. All `unsafe` of `dema-core` lives here.

    use super::{from_fn, AllocSnapshot, PHASE, PHASES};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[allow(clippy::declare_interior_mutable_const)] // static-array seed
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static FRESH: [AtomicU64; PHASES] = [ZERO; PHASES];
    static FRESH_BYTES: [AtomicU64; PHASES] = [ZERO; PHASES];
    static REALLOCS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// This thread's share of the counters. Const-initialized and
        /// `Copy` (no destructor): touching it never allocates.
        static LOCAL: Cell<AllocSnapshot> = const {
            Cell::new(AllocSnapshot { fresh: [0; PHASES], fresh_bytes: [0; PHASES], reallocs: 0 })
        };
    }

    /// Count one allocation of `size` bytes, process-wide and on this thread.
    fn note(size: usize, realloc: bool) {
        let phase = PHASE.try_with(Cell::get).unwrap_or(0) as usize % PHASES;
        FRESH[phase].fetch_add(1, Ordering::Relaxed);
        FRESH_BYTES[phase].fetch_add(size as u64, Ordering::Relaxed);
        REALLOCS.fetch_add(u64::from(realloc), Ordering::Relaxed);
        let _ = LOCAL.try_with(|cell| {
            let mut s = cell.get();
            s.fresh[phase] += 1;
            s.fresh_bytes[phase] += size as u64;
            s.reallocs += u64::from(realloc);
            cell.set(s);
        });
    }

    struct CountingAlloc;

    // SAFETY: every method forwards its arguments unchanged to the same
    // method of `System`, so `System`'s guarantees are ours and the
    // caller's obligations are exactly `System`'s. `note` touches only
    // atomics and a destructor-free `Cell`: it cannot allocate or unwind.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size(), false);
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size(), false);
            System.alloc_zeroed(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size, true);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub(super) fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            fresh: from_fn(|i| FRESH[i].load(Ordering::Relaxed)),
            fresh_bytes: from_fn(|i| FRESH_BYTES[i].load(Ordering::Relaxed)),
            reallocs: REALLOCS.load(Ordering::Relaxed),
        }
    }

    pub(super) fn thread_snapshot() -> AllocSnapshot {
        LOCAL.try_with(Cell::get).unwrap_or_default()
    }
}

#[cfg(not(any(debug_assertions, feature = "strict")))]
mod armed_impl {
    //! Disarmed stubs: no global allocator is registered and every probe
    //! folds to a constant.

    use super::AllocSnapshot;

    pub(super) fn snapshot() -> AllocSnapshot {
        AllocSnapshot::default()
    }

    pub(super) fn thread_snapshot() -> AllocSnapshot {
        AllocSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};

    #[test]
    fn phase_names_cover_all_indices() {
        let names: Vec<&str> = (0..=PHASES).map(phase_name).collect();
        let expect = "other sort slice encode decode merge other";
        assert_eq!(names.join(" "), expect);
    }

    #[test]
    fn snapshot_delta_is_saturating_and_componentwise() {
        let (mut a, mut b) = (AllocSnapshot::default(), AllocSnapshot::default());
        (a.fresh[1], a.fresh_bytes[1]) = (10, 640);
        (b.fresh[1], b.fresh_bytes[1], b.reallocs) = (25, 1000, 2);
        let d = b.since(&a);
        assert_eq!((d.fresh[1], d.fresh_bytes[1], d.reallocs), (15, 360, 2));
        assert_eq!(a.since(&b).fresh[1], 0, "saturates instead of wrapping");
    }

    #[test]
    fn armed_matches_build_configuration() {
        assert_eq!(armed(), cfg!(any(debug_assertions, feature = "strict")));
    }

    /// Open a gate, allocate `n` vectors in `Phase::Merge` and return the
    /// gate's delta while a sibling thread allocates in a loop; each step
    /// waits for 8 more sibling allocations, so they land inside the gate.
    fn gated_allocs_under_sibling_load(n: u64) -> AllocSnapshot {
        let stop = AtomicBool::new(false);
        let sibling_allocs = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(SeqCst) {
                    let len = 1 + sibling_allocs.load(SeqCst) as usize % 4096;
                    black_box(Vec::<u8>::with_capacity(len));
                    sibling_allocs.fetch_add(1, SeqCst);
                }
            });
            let gate = AllocGate::steady_state();
            let _phase = enter_phase(Phase::Merge);
            for step in 0..=n {
                if step < n {
                    black_box(Vec::<u64>::with_capacity(509));
                }
                let seen = sibling_allocs.load(SeqCst);
                while sibling_allocs.load(SeqCst) < seen + 8 {
                    std::thread::yield_now();
                }
            }
            let delta = gate.delta();
            stop.store(true, SeqCst);
            delta
        })
    }

    #[test]
    fn gate_counts_exactly_its_own_threads_allocations() {
        if !armed() {
            return;
        }
        let before = snapshot();
        let mut expect = AllocSnapshot::default();
        expect.fresh[Phase::Merge as usize] = 16;
        expect.fresh_bytes[Phase::Merge as usize] = 16 * 509 * 8;
        assert_eq!(gated_allocs_under_sibling_load(16), expect);
        assert!(snapshot().since(&before).fresh_total() >= 16 + 8 * 17);
    }

    #[test]
    fn gate_over_an_allocation_free_region_reads_zero() {
        assert_eq!(gated_allocs_under_sibling_load(0), AllocSnapshot::default());
    }
}
