//! The per-window sort of the local hot path.
//!
//! The local node's dominant per-window cost is sorting the window buffer
//! before [`crate::slice::cut_into_slices`] carves it into γ-sized slices.
//! Each window is sorted inline, on the shard thread that owns its leaf:
//! a run's threads are the root plus its shards ([`default_threads`]) and
//! nothing else. A chunk-and-merge worker pool used to sit behind
//! [`sort_events_with`]; it never beat the inline sort at any measured
//! `(n, threads)` — the loser-tree recombine costs as much per event as
//! the radix sort it follows (BENCH_NOTES.md, "parallel vs inline") — and
//! was deleted.
//!
//! ## Determinism argument
//!
//! [`Event`] derives a *total* order (`value`, then `ts`, then `id`), so
//! the sorted sequence of any multiset of events is unique: equal
//! elements are byte-identical. Any correct sort therefore yields the one
//! sorted permutation, bit-identical to `slice::sort_unstable()`.
//!
//! ## Run sort
//!
//! [`sort_run`] is span-adaptive: windows whose values fit a 32-bit band
//! (every sensor workload in the paper) take an LSD radix sort over packed
//! `(value offset, original index)` u64 keys — 11-bit digits, one to three
//! O(n) passes — followed by a gather and a `(ts, id)` tie-break pass over
//! equal-value runs. Wider spans fall back to `sort_unstable`.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::event::Event;

/// Runs shorter than this use `sort_unstable` directly inside
/// [`sort_run`]: the radix key build and gather passes cost more than a
/// comparison sort of a few hundred elements.
pub const RADIX_MIN: usize = 256;

/// Radix digit width. 11 bits → 2048 buckets: one `usize` bucket table
/// fits comfortably in L1/L2 while covering a full 32-bit value span in
/// three passes (sensor-range spans in one or two).
const DIGIT_BITS: u32 = 11;

/// Bucket count per radix pass.
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Upper bound on the thread count accepted from `DEMA_THREADS` or
/// callers; a larger request is clamped, not an error.
pub const MAX_THREADS: usize = 64;

/// Shard count used when the caller does not pass one explicitly:
/// `DEMA_THREADS` when set to a positive integer (clamped to
/// [`MAX_THREADS`]), else the machine's available parallelism capped at 4.
/// Latched on first use so every run in a process agrees.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(raw) = std::env::var("DEMA_THREADS") {
            if let Ok(n) = raw.trim().parse::<usize>() {
                if n >= 1 {
                    return n.min(MAX_THREADS);
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(4)
    })
}

thread_local! {
    /// Reused radix scratch — two key/index ping-pong lanes plus the event
    /// gather buffer — so steady-state window sorts allocate nothing.
    static SCRATCH: RefCell<(Vec<u64>, Vec<u64>, Vec<Event>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Sort one run in place on the calling thread.
///
/// Dispatches on the observed value *span*: sensor-style streams (values
/// inside a narrow band, whatever their absolute offset) take an LSD
/// radix sort over packed `(value offset, index)` keys — O(n) per digit
/// pass instead of O(n log n) comparisons — and anything wider falls back
/// to `sort_unstable`. Both paths produce THE sorted permutation of the
/// derived total [`Event`] order, so the output is bit-identical to
/// `sort_unstable` regardless of which path ran.
pub fn sort_run(events: &mut [Event]) {
    let _phase = crate::alloc::enter_phase(crate::alloc::Phase::Sort);
    let n = events.len();
    if n < RADIX_MIN || n > u32::MAX as usize {
        events.sort_unstable();
        return;
    }
    let mut min = i64::MAX;
    let mut max = i64::MIN;
    for e in events.iter() {
        min = min.min(e.value);
        max = max.max(e.value);
    }
    // Bit-pattern subtraction gives the mathematical offset for any i64
    // pair with max >= min; spans beyond 32 bits would need more digit
    // passes than the comparison sort costs.
    let span = (max as u64).wrapping_sub(min as u64);
    if span > u64::from(u32::MAX) {
        events.sort_unstable();
        return;
    }
    let bits = 64 - span.leading_zeros();
    let passes = bits.div_ceil(DIGIT_BITS).max(1);
    SCRATCH.with(|s| {
        let (a, b, tmp) = &mut *s.borrow_mut();
        // Pack each event's value offset (high 32 bits) over its original
        // index (low 32): every digit pass then moves a single u64.
        a.clear();
        a.extend(
            events
                .iter()
                .enumerate()
                .map(|(i, e)| ((e.value as u64).wrapping_sub(min as u64) << 32) | i as u64),
        );
        b.clear();
        b.resize(n, 0);
        for p in 0..passes {
            let shift = 32 + p * DIGIT_BITS;
            // Counting sort on this digit: histogram, prefix, stable scatter.
            let mut starts = [0usize; BUCKETS + 1];
            for &x in a.iter() {
                starts[((x >> shift) as usize & (BUCKETS - 1)) + 1] += 1;
            }
            for d in 0..BUCKETS {
                starts[d + 1] += starts[d];
            }
            for &x in a.iter() {
                let d = (x >> shift) as usize & (BUCKETS - 1);
                b[starts[d]] = x;
                starts[d] += 1;
            }
            std::mem::swap(a, b);
        }
        // The scatter output indexes the *unsorted* buffer: gather through
        // a copy of it.
        tmp.clear();
        tmp.extend_from_slice(events);
        for (slot, &x) in events.iter_mut().zip(a.iter()) {
            *slot = tmp[(x & 0xFFFF_FFFF) as usize];
        }
    });
    // The digit passes order by value only; being stable, they leave equal
    // values in arrival order. Windows arrive roughly time-ordered, so most
    // tie runs are already (ts, id)-sorted — check before sorting.
    let mut i = 0;
    while i < n {
        let mut j = i + 1;
        while j < n && events[j].value == events[i].value {
            j += 1;
        }
        if j - i > 1 && !events[i..j].is_sorted() {
            events[i..j].sort_unstable();
        }
        i = j;
    }
}

/// Sort `events` ascending by the derived total [`Event`] order.
///
/// Output is bit-identical to `events.sort_unstable()` — see the module
/// docs for the argument.
pub fn sort_events(events: &mut [Event]) {
    sort_run(events);
}

/// [`sort_events`] under the signature the cluster engines and the layer
/// walk call. The sort runs inline on the calling shard thread whatever
/// `_threads` says; the argument is kept so those callers compile
/// unchanged.
#[allow(clippy::ptr_arg)] // the signature is the contract here
pub fn sort_events_with(events: &mut Vec<Event>, _threads: usize) {
    sort_run(events);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random events, duplicates included.
    fn scrambled(n: usize) -> Vec<Event> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Narrow value range forces duplicate values; duplicate
                // (value, ts) pairs still differ by id except when forced.
                Event::new((state % 97) as i64, state % 5, i as u64)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_across_thread_counts() {
        // The thread argument is accepted and ignored: every request sorts
        // inline and yields the bytes `sort_unstable` yields.
        for n in [0, 1, 64, RADIX_MIN - 1, RADIX_MIN, 8_191, 8_192, 24_593] {
            let base = scrambled(n);
            let mut expect = base.clone();
            expect.sort_unstable();
            for t in [0, 1, 2, 4, MAX_THREADS, usize::MAX] {
                let mut got = base.clone();
                sort_events_with(&mut got, t);
                assert_eq!(got, expect, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn fully_duplicate_events_stay_bit_identical() {
        let base: Vec<Event> = (0..16_384).map(|_| Event::new(7, 3, 9)).collect();
        let mut expect = base.clone();
        expect.sort_unstable();
        let mut got = base;
        sort_events_with(&mut got, 4);
        assert_eq!(got, expect);
    }

    #[test]
    fn radix_matches_sort_unstable_across_value_spans() {
        // Spans chosen to hit 1, 2, and 3 digit passes, plus the wide-span
        // comparison fallback; offsets exercise negative and near-extreme
        // bases. Ties get deliberately scrambled (ts, id) pairs.
        for (base, span) in [
            (0i64, 1u64 << 8),
            (-1_000_000, 1 << 10),
            (i64::MIN / 2, 1 << 20),
            (7, (1 << 31) + 12345),
            (-3, u64::from(u32::MAX) + 1), // fallback path
        ] {
            let mut state = 0xDEAD_BEEF_u64;
            let events: Vec<Event> = (0..3 * RADIX_MIN)
                .map(|i| {
                    state = state
                        .wrapping_mul(2862933555777941757)
                        .wrapping_add(3037000493);
                    let v = base.wrapping_add((state % span.max(1)) as i64);
                    Event::new(v, state >> 48, (i as u64) ^ (state >> 32))
                })
                .collect();
            let mut expect = events.clone();
            expect.sort_unstable();
            let mut got = events;
            sort_run(&mut got);
            assert_eq!(got, expect, "base={base} span={span}");
        }
    }

    #[test]
    fn radix_below_min_and_single_value_runs() {
        let mut tiny = scrambled(RADIX_MIN - 1);
        let mut expect = tiny.clone();
        expect.sort_unstable();
        sort_run(&mut tiny);
        assert_eq!(tiny, expect);

        // One distinct value: single pass, all ties — the tie-break pass
        // must still order by (ts, id).
        let mut state = 1u64;
        let mut same: Vec<Event> = (0..2 * RADIX_MIN)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                Event::new(42, state % 1000, state >> 32)
            })
            .collect();
        let mut expect = same.clone();
        expect.sort_unstable();
        sort_run(&mut same);
        assert_eq!(same, expect);
    }

    #[test]
    fn default_threads_is_latched_and_positive() {
        let a = default_threads();
        let b = default_threads();
        assert_eq!(a, b);
        assert!((1..=MAX_THREADS).contains(&a));
    }

    #[test]
    fn env_default_entry_point_sorts() {
        let mut v = scrambled(8_197);
        let mut expect = v.clone();
        expect.sort_unstable();
        sort_events(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn radix_scratch_is_reused_across_windows() {
        // Pin the scratch-reuse contract with the thread-scoped alloc gate:
        // once one window has grown this thread's radix scratch, a
        // same-sized window sorts without a single allocation in the Sort
        // phase (trivially true when the allocator is disarmed).
        let base = scrambled(4 * RADIX_MIN);
        let mut warm = base.clone();
        sort_run(&mut warm); // grows SCRATCH to this window size
        let mut next = base;
        let gate = crate::alloc::AllocGate::steady_state();
        sort_run(&mut next);
        assert_eq!(
            gate.delta().fresh[crate::alloc::Phase::Sort as usize],
            0,
            "steady-state sort_run must reuse the thread-local scratch"
        );
        assert_eq!(warm, next);
    }
}
