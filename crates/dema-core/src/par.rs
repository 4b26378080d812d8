//! Deterministic parallel sort for the per-window hot path.
//!
//! The local node's dominant per-window cost is sorting the window buffer
//! before [`crate::slice::cut_into_slices`] carves it into γ-sized slices.
//! This module parallelizes that sort over a small process-wide worker
//! pool while keeping the output **bit-identical** to
//! `slice::sort_unstable()` — including the order of fully duplicate
//! events — so every downstream golden test, traffic counter, and the
//! bounded interleaving explorer see exactly the serial behaviour.
//!
//! ## Determinism argument
//!
//! [`Event`] derives a *total* order (`value`, then `ts`, then `id`), so a
//! sorted sequence of any multiset of events is unique: equal elements are
//! byte-identical and indistinguishable under any permutation. Chunk
//! boundaries are derived from the requested thread count and the input
//! length alone (`c·n/t`), never from pool size or thread timing, and the
//! chunks are reassembled with [`crate::merge::merge_runs`], whose
//! `(event, run-index)` tie-break is itself deterministic. Two runs with
//! `DEMA_THREADS=1` and `DEMA_THREADS=64` therefore produce the same
//! bytes; only wall-clock changes.
//!
//! ## Run sort
//!
//! The per-run primitive [`sort_run`] is span-adaptive: windows whose
//! values fit a 32-bit band (every sensor workload in the paper) take an
//! LSD radix sort over packed `(value offset, original index)` u64 keys —
//! 11-bit digits, one to three O(n) passes — followed by a gather and a
//! `(ts, id)` tie-break pass over equal-value runs. Wider spans fall back
//! to `sort_unstable`. Because [`Event`]'s order is total, both paths
//! yield the identical permutation; the radix path only changes
//! wall-clock.
//!
//! ## Pool shape
//!
//! Workers are spawned lazily on first parallel sort and share one job
//! queue (a `VecDeque` behind the ranked [`sync::Mutex`](crate::sync),
//! signalled through a [`sync::Condvar`](crate::sync)): an idle worker
//! waits on the condvar and steals the next chunk the moment it is
//! queued, so load balances across concurrent windows without any
//! per-window thread spawns. Inputs below [`PAR_SORT_MIN`] skip dispatch
//! entirely and sort inline — chunking overhead would dominate.
//!
//! [`Pool`] has an explicit lifecycle: dropping a scoped pool latches
//! shutdown, drains the queued jobs, and joins every worker, and a
//! process-wide registry ([`pool_stats`]) counts worker spawns/exits so
//! tests can prove repeated cluster runs neither leak threads nor
//! poison the queue. The shared pool used by [`sort_events`] lives in a
//! static and is reused for the process lifetime.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::event::Event;
use crate::sync::{rank, Condvar, Mutex};

/// Inputs shorter than this sort inline on the calling thread: below a few
/// thousand events the channel round trip and the final k-way merge cost
/// more than the sort itself (see BENCH_NOTES.md, "parallel hot path").
pub const PAR_SORT_MIN: usize = 8192;

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

/// A unit of pool work: sort one owned chunk and ship it back.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Job queue plus the shutdown latch, guarded by the `par.queue` rank.
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between a pool's handle and its workers.
struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    /// Workers of *this* pool currently inside their worker loop;
    /// exactly zero once [`Pool::drop`] has joined them.
    live: AtomicUsize,
}

/// Workers ever spawned, process-wide (monotonic; bumped synchronously
/// by [`Pool::new`] on the spawning thread).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Workers currently running, process-wide (entry/exit accounting done
/// by the worker thread itself, panic-safe via [`LiveToken`]).
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// Snapshot of the worker registry across every [`Pool`] in the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers spawned since process start (monotonic).
    pub spawned: usize,
    /// Workers currently running their loop.
    pub live: usize,
}

/// Read the process-wide worker registry.
///
/// Lifecycle tests compare `spawned` across repeated cluster runs: the
/// shared pool is spawned once, so the count must not grow run-over-run.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        spawned: SPAWNED.load(Ordering::SeqCst),
        live: LIVE.load(Ordering::SeqCst),
    }
}

/// Registers a worker as live on construction and, however the worker
/// exits (shutdown or a panicking job), deregisters it on drop.
struct LiveToken<'a> {
    shared: &'a PoolShared,
}

impl<'a> LiveToken<'a> {
    fn register(shared: &'a PoolShared) -> LiveToken<'a> {
        LIVE.fetch_add(1, Ordering::SeqCst);
        shared.live.fetch_add(1, Ordering::SeqCst);
        LiveToken { shared }
    }
}

impl Drop for LiveToken<'_> {
    fn drop(&mut self) {
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A sort worker pool with an explicit shutdown path.
///
/// The shared pool behind [`sort_events`] lives in a static and is never
/// dropped; a scoped pool shuts down deterministically in `Drop` — the
/// shutdown latch is set under the queue lock, every worker is woken,
/// queued jobs drain, and the worker threads are joined, so no worker
/// thread ever outlives its pool.
pub struct Pool {
    /// Workers actually running (spawn failures only shrink the pool).
    workers: usize,
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool with up to `target` workers. Spawn failures shrink
    /// the pool instead of erroring; callers fall back to inline sorting
    /// when [`Pool::workers`] reports zero.
    pub fn new(target: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(
                rank::PAR_QUEUE,
                PoolState {
                    queue: VecDeque::new(),
                    shutdown: false,
                },
            ),
            work_ready: Condvar::new(),
            live: AtomicUsize::new(0),
        });
        let mut handles = Vec::with_capacity(target);
        for i in 0..target {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("dema-par-{i}"))
                .spawn(move || {
                    let _live = LiveToken::register(&shared);
                    worker_loop(&shared);
                });
            if let Ok(handle) = spawned {
                SPAWNED.fetch_add(1, Ordering::SeqCst);
                handles.push(handle);
            }
        }
        Pool {
            workers: handles.len(),
            shared: Arc::clone(&shared),
            handles,
        }
    }

    /// Number of workers actually running.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queue one job and wake an idle worker.
    fn submit(&self, job: Job) {
        {
            let mut state = self.shared.state.lock();
            state.queue.push_back(job);
        }
        self.shared.work_ready.notify_one();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Thread count used when the caller does not pass one explicitly:
/// `DEMA_THREADS` when set to a positive integer (clamped to
/// [`MAX_THREADS`]), else the machine's available parallelism capped at 4.
/// Latched on first use so every sort in a process agrees.
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

/// The shared pool, spawned on first use with `default_threads() - 1`
/// workers (the calling thread always sorts one chunk itself).
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(default_threads().saturating_sub(1)))
}

/// Worker body: steal queued jobs until shutdown. The queue guard is
/// dropped before the job runs, so jobs execute lock-free; waiting
/// happens inside [`Condvar::wait`], which releases the queue lock (and
/// its tracker rank) for the duration of the block.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work_ready.wait(state);
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

thread_local! {
    /// Reused radix scratch — two key/index ping-pong lanes plus the event
    /// gather buffer — so steady-state window sorts allocate nothing.
    static SCRATCH: RefCell<(Vec<u64>, Vec<u64>, Vec<Event>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// Sort one run in place on the calling thread — the single-threaded
/// primitive under both the serial path and the pool's chunk jobs.
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

/// Sort `events` ascending by the derived total [`Event`] order using the
/// process default thread count ([`default_threads`]).
///
/// Output is bit-identical to `events.sort_unstable()` for every thread
/// count — see the module docs for the argument.
pub fn sort_events(events: &mut Vec<Event>) {
    sort_events_with(events, default_threads());
}

/// Sort `events` with an explicit `threads` request.
///
/// Chunk boundaries depend only on `threads` and `events.len()`, so the
/// result — and even the intermediate run set — is reproducible across
/// machines and pool sizes. Falls back to an inline `sort_unstable` when
/// `threads <= 1`, the input is below [`PAR_SORT_MIN`], or no pool worker
/// could be spawned.
pub fn sort_events_with(events: &mut Vec<Event>, threads: usize) {
    let _phase = crate::alloc::enter_phase(crate::alloc::Phase::Sort);
    let n = events.len();
    let t = threads.clamp(1, MAX_THREADS);
    if t <= 1 || n < PAR_SORT_MIN {
        sort_run(events);
        return;
    }
    let pool = pool();
    if pool.workers == 0 {
        sort_run(events);
        return;
    }

    // Deterministic split: chunk c covers [c·n/t, (c+1)·n/t). Peeling from
    // the back with `split_off` moves ownership without copying events.
    let mut parts: Vec<Vec<Event>> = Vec::with_capacity(t);
    for c in (1..t).rev() {
        parts.push(events.split_off(c * n / t));
    }
    parts.push(std::mem::take(events));
    parts.reverse();

    // Per-call result collector: each job deposits its sorted chunk in
    // its slot and wakes the caller once every slot is filled. Bounded
    // by construction (t - 1 slots), unlike the old per-call unbounded
    // done-channel.
    struct BatchState {
        slots: Vec<Option<Vec<Event>>>,
        filled: usize,
    }
    struct SortBatch {
        slots: Mutex<BatchState>,
        done: Condvar,
    }
    let batch = Arc::new(SortBatch {
        slots: Mutex::new(
            rank::PAR_RESULTS,
            BatchState {
                slots: (1..t).map(|_| None).collect(),
                filled: 0,
            },
        ),
        done: Condvar::new(),
    });

    let mut first = Vec::new();
    for (pos, mut chunk) in parts.into_iter().enumerate() {
        if pos == 0 {
            first = chunk;
            continue;
        }
        let batch = Arc::clone(&batch);
        let job: Job = Box::new(move || {
            sort_run(&mut chunk);
            {
                let mut state = batch.slots.lock();
                state.slots[pos - 1] = Some(chunk);
                state.filled += 1;
            }
            batch.done.notify_one();
        });
        pool.submit(job);
    }

    // The calling thread is worker zero.
    sort_run(&mut first);

    let sorted_rest = {
        let mut state = batch.slots.lock();
        while state.filled < t - 1 {
            state = batch.done.wait(state);
        }
        std::mem::take(&mut state.slots)
    };

    let mut runs: Vec<Vec<Event>> = Vec::with_capacity(t);
    runs.push(first);
    // Every slot is Some once filled == t - 1; the default is unreachable.
    runs.extend(sorted_rest.into_iter().map(Option::unwrap_or_default));
    *events = crate::merge::merge_runs(&runs);
    debug_assert_eq!(events.len(), n);
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
        for n in [0, 1, PAR_SORT_MIN - 1, PAR_SORT_MIN, 3 * PAR_SORT_MIN + 17] {
            let base = scrambled(n);
            let mut expect = base.clone();
            expect.sort_unstable();
            for t in [1, 2, 3, 4, 7, MAX_THREADS] {
                let mut got = base.clone();
                sort_events_with(&mut got, t);
                assert_eq!(got, expect, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn fully_duplicate_events_stay_bit_identical() {
        let base: Vec<Event> = (0..2 * PAR_SORT_MIN).map(|_| Event::new(7, 3, 9)).collect();
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
        let mut v = scrambled(PAR_SORT_MIN + 5);
        let mut expect = v.clone();
        expect.sort_unstable();
        sort_events(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn scoped_pool_drains_queue_then_joins_every_worker() {
        let pool = Pool::new(4);
        assert!(pool.workers() <= 4);
        let shared = Arc::clone(&pool.shared);
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool);
        // Drop drains queued jobs before shutdown, then joins: every job
        // ran and no worker thread outlives its pool.
        assert_eq!(hits.load(Ordering::SeqCst), 16, "queued jobs must drain");
        assert_eq!(shared.live.load(Ordering::SeqCst), 0, "worker leaked");
    }

    #[test]
    fn repeated_scoped_pools_leave_the_live_count_flat() {
        for _ in 0..3 {
            let pool = Pool::new(2);
            let shared = Arc::clone(&pool.shared);
            pool.submit(Box::new(|| {}));
            drop(pool);
            assert_eq!(shared.live.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn shared_pool_is_reused_across_repeated_sorts() {
        // Force the shared pool into existence, then sort again: the
        // registry's monotonic spawn count must not grow run-over-run.
        let mut v = scrambled(2 * PAR_SORT_MIN);
        sort_events_with(&mut v, 4);
        let spawned_after_first = pool_stats().spawned;
        for _ in 0..2 {
            let mut w = scrambled(2 * PAR_SORT_MIN);
            let mut expect = w.clone();
            expect.sort_unstable();
            sort_events_with(&mut w, 4);
            assert_eq!(w, expect);
        }
        assert_eq!(
            pool_stats().spawned,
            spawned_after_first,
            "shared pool must be spawned once per process"
        );
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

    #[test]
    fn below_crossover_never_touches_the_pool() {
        // Indirect but sufficient: tiny inputs sort correctly even with an
        // absurd thread request — the inline path ignores it.
        let mut v = scrambled(64);
        let mut expect = v.clone();
        expect.sort_unstable();
        sort_events_with(&mut v, MAX_THREADS);
        assert_eq!(v, expect);
    }
}
