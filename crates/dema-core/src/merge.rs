//! The calculation step: merge pre-sorted candidate runs and pick the
//! target rank (§3.1).
//!
//! Local nodes ship candidate slices already sorted, so the root never
//! re-sorts: [`merge_runs`] performs a k-way merge over the runs with a
//! loser tree (tournament tree). Emitting the next event costs exactly
//! `⌈log₂ r⌉` comparisons along one root-to-leaf path — no sift-down
//! branching like a binary heap.
//!
//! A quantile lookup ([`select_kth`]) needs one rank, not an order. It
//! either pops `k` events off the loser tree — `O(k · log r)` for `r` runs —
//! or gathers the runs into a reused buffer and partitions for position
//! `k` with `select_nth_unstable` — `O(n)` for `n` candidate events —
//! whichever its cost rule predicts to be cheaper. [`Event`]'s order is
//! total, so the event at a position of the merged order is unique and both
//! routes return the same bytes.
//!
//! The pop order is the total `(event, run index)` order, the same
//! tie-break the previous heap-based merge used, so outputs are
//! bit-identical (pinned by the oracle property tests below).

use std::cell::RefCell;

use crate::error::{DemaError, Result};
use crate::event::Event;
use crate::numeric::{len_to_u64, u64_to_usize};
use crate::shared::SharedRun;

/// Sentinel "run index" that loses every match; pads the tournament while
/// the tree fills and after runs exhaust.
const NO_RUN: usize = usize::MAX;

thread_local! {
    /// Loser-tree scratch (cursor array, tree array, build-time winner
    /// array), reused across windows: the root's merge/select work for
    /// window `w+1` replays the capacities window `w` grew, so the
    /// steady-state calculation step performs no allocator round-trips
    /// (the merge-select half of lint rule R15; the sort-side twin is the
    /// `SCRATCH` buffer in [`crate::par`]).
    static SCRATCH: RefCell<(Vec<usize>, Vec<usize>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };

    /// Gather buffer of [`select_kth`]'s selection route, reused across
    /// windows for the same reason.
    static GATHER: RefCell<Vec<Event>> = const { RefCell::new(Vec::new()) };
}

/// A k-way loser-tree merge cursor over sorted runs.
///
/// Internal node `i ≥ 1` of `tree` stores the run that *lost* the match at
/// that node; `tree[0]` stores the overall winner. Leaves are implicit:
/// leaf `j` sits at position `m + j` and its current key is
/// `runs[j][cursors[j]]`. Advancing the winner replays one root-to-leaf
/// path — `⌈log₂ m⌉` comparisons, nothing else moves.
///
/// Generic over the run container (`Vec<Event>`, [`SharedRun`],
/// `&[Event]`), so entry points never collect a `Vec<&[Event]>` view
/// first; the cursor and tree arrays are borrowed from the thread-local
/// [`SCRATCH`] and sized in place.
struct LoserTree<'a, R: AsRef<[Event]>> {
    runs: &'a [R],
    cursors: &'a mut Vec<usize>,
    tree: &'a mut Vec<usize>,
}

impl<'a, R: AsRef<[Event]>> LoserTree<'a, R> {
    fn new(
        runs: &'a [R],
        cursors: &'a mut Vec<usize>,
        tree: &'a mut Vec<usize>,
        winner: &mut Vec<usize>,
    ) -> LoserTree<'a, R> {
        let m = runs.len();
        cursors.clear();
        cursors.resize(m, 0);
        tree.clear();
        tree.resize(m.max(1), NO_RUN);
        let mut lt = LoserTree {
            runs,
            cursors,
            tree,
        };
        lt.build(winner);
        lt
    }

    /// Current key of run `i`, `None` once exhausted (or for [`NO_RUN`]).
    fn current(&self, i: usize) -> Option<Event> {
        self.runs
            .get(i)
            .zip(self.cursors.get(i))
            .and_then(|(r, &c)| r.as_ref().get(c).copied())
    }

    /// `true` if run `a` wins the match against run `b`: live beats
    /// exhausted, and ties — equal events, or two exhausted runs — resolve
    /// by run index, reproducing the heap merge's `(event, run)` order.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.current(a), self.current(b)) {
            (Some(ea), Some(eb)) => (ea, a) < (eb, b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Play the full tournament bottom-up: each internal node keeps its
    /// loser, winners advance, `tree[0]` gets the champion.
    fn build(&mut self, winner: &mut Vec<usize>) {
        let m = self.runs.len();
        if m == 0 {
            return;
        }
        winner.clear();
        winner.resize(2 * m, NO_RUN);
        for (j, w) in winner.iter_mut().skip(m).enumerate() {
            *w = j;
        }
        for node in (1..m).rev() {
            let (a, b) = (winner[2 * node], winner[2 * node + 1]);
            let (win, lose) = if self.beats(a, b) { (a, b) } else { (b, a) };
            winner[node] = win;
            self.tree[node] = lose;
        }
        self.tree[0] = winner[1];
    }

    /// Re-run the matches on the path from run `run`'s leaf to the root
    /// after its key changed.
    fn replay(&mut self, run: usize) {
        let m = self.runs.len();
        let mut winner = run;
        let mut node = (run + m) / 2;
        while node >= 1 {
            if self.beats(self.tree[node], winner) {
                std::mem::swap(&mut self.tree[node], &mut winner);
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// Emit the smallest remaining event and advance its run.
    fn pop(&mut self) -> Option<Event> {
        let win = self.tree[0];
        let event = self.current(win)?;
        self.cursors[win] += 1;
        self.replay(win);
        Some(event)
    }
}

/// Fully merge sorted runs into one sorted vector.
///
/// Accepts anything slice-shaped — `Vec<Event>`, [`SharedRun`], `&[Event]` —
/// so callers never have to copy into a particular container first. The
/// output buffer is reserved exactly once at the merged length `l_G`; a
/// debug assertion guards against any regression that reallocates.
///
/// # Panics
/// Debug-asserts each input run is sorted.
// hot-path: merge-select
pub fn merge_runs<R: AsRef<[Event]>>(runs: &[R]) -> Vec<Event> {
    let _phase = crate::alloc::enter_phase(crate::alloc::Phase::Merge);
    for r in runs {
        debug_assert!(crate::event::is_sorted(r.as_ref()));
    }
    let total: usize = runs.iter().map(|r| r.as_ref().len()).sum();
    let mut out = Vec::with_capacity(total);
    let cap = out.capacity();
    SCRATCH.with(|s| {
        let mut guard = s.borrow_mut();
        let (cursors, tree, winner) = &mut *guard;
        let mut tree = LoserTree::new(runs, cursors, tree, winner);
        while let Some(e) = tree.pop() {
            out.push(e);
        }
    });
    debug_assert_eq!(out.len(), total);
    debug_assert_eq!(out.capacity(), cap, "merge must allocate exactly once");
    out
}

/// Return the event at 1-based position `k` of the merged order of `runs`
/// without materializing the merge.
///
/// Like [`merge_runs`], generic over the run container. Which of the two
/// routes runs (see the module docs) is decided by [`selection_is_cheaper`]
/// from `k`, the total length and the run count alone.
///
/// # Errors
/// [`DemaError::RankOutOfRange`] if `k` is 0 or exceeds the total length.
pub fn select_kth<R: AsRef<[Event]>>(runs: &[R], k: u64) -> Result<Event> {
    let _phase = crate::alloc::enter_phase(crate::alloc::Phase::Merge);
    let total: u64 = runs.iter().map(|r| len_to_u64(r.as_ref().len())).sum();
    if k == 0 || k > total {
        return Err(DemaError::RankOutOfRange { rank: k, total });
    }
    for r in runs {
        debug_assert!(crate::event::is_sorted(r.as_ref()));
    }
    let found = if selection_is_cheaper(k, total, runs.len()) {
        kth_by_selection(runs, k)
    } else {
        kth_by_tree(runs, k)
    };
    // `None` is unreachable while `k <= total`: both routes see every event.
    // Kept as an error so a future refactor cannot panic here.
    found.ok_or(DemaError::RankOutOfRange { rank: k, total })
}

/// Tree matches one pop costs as much as the copy-and-partition work the
/// selection route spends on this many gathered events (measured: ~13 ns a
/// match against ~4.5 ns an event, BENCH_NOTES.md "select_kth").
const EVENTS_PER_MATCH: u64 = 3;

/// The cost rule of [`select_kth`]: the loser tree plays `⌈log₂ r⌉` matches
/// for each of the `k` events it pops, the selection route touches each of
/// the `total` events a constant number of times.
fn selection_is_cheaper(k: u64, total: u64, runs: usize) -> bool {
    let matches_per_pop = u64::from(runs.next_power_of_two().trailing_zeros());
    k.saturating_mul(matches_per_pop)
        .saturating_mul(EVENTS_PER_MATCH)
        > total
}

/// Pop `k` events off the loser tree; the last one is the answer.
fn kth_by_tree<R: AsRef<[Event]>>(runs: &[R], k: u64) -> Option<Event> {
    SCRATCH.with(|s| {
        let mut guard = s.borrow_mut();
        let (cursors, tree, winner) = &mut *guard;
        let mut tree = LoserTree::new(runs, cursors, tree, winner);
        let mut remaining = k;
        while let Some(e) = tree.pop() {
            remaining -= 1;
            if remaining == 0 {
                return Some(e);
            }
        }
        None
    })
}

/// Gather every run into the thread-local buffer and partition it around
/// position `k`.
fn kth_by_selection<R: AsRef<[Event]>>(runs: &[R], k: u64) -> Option<Event> {
    GATHER.with(|g| {
        let mut all = g.borrow_mut();
        all.clear();
        for r in runs {
            all.extend_from_slice(r.as_ref());
        }
        let at = u64_to_usize(k.checked_sub(1)?);
        if at >= all.len() {
            return None;
        }
        Some(*all.select_nth_unstable(at).1)
    })
}

/// Incrementally merge candidate runs as they arrive, then select a rank.
///
/// This mirrors the paper's root-node behaviour: "Dema incrementally merges
/// arriving candidate events into the candidate slice" — runs may arrive in
/// any order; the answer is produced once all expected runs are present.
#[derive(Debug, Default)]
pub struct CandidateMerger {
    runs: Vec<SharedRun>,
    expected: usize,
}

impl CandidateMerger {
    /// Create a merger expecting `expected` candidate runs.
    pub fn new(expected: usize) -> CandidateMerger {
        CandidateMerger {
            runs: Vec::with_capacity(expected),
            expected,
        }
    }

    /// Add one delivered candidate run (sorted events of one slice).
    ///
    /// Takes the shared representation directly: a run arriving off the wire
    /// or out of the local store is kept by refcount, never copied.
    pub fn add_run(&mut self, events: impl Into<SharedRun>) {
        let events = events.into();
        debug_assert!(crate::event::is_sorted(&events));
        self.runs.push(events);
    }

    /// Number of runs still missing.
    pub fn missing(&self) -> usize {
        self.expected.saturating_sub(self.runs.len())
    }

    /// `true` once every expected run has been delivered.
    pub fn complete(&self) -> bool {
        self.runs.len() >= self.expected
    }

    /// Select the event at 1-based merged position `k`.
    ///
    /// # Errors
    /// * [`DemaError::MissingCandidate`] if runs are still outstanding.
    /// * [`DemaError::RankOutOfRange`] if `k` is outside the merged length.
    pub fn select(&self, k: u64) -> Result<Event> {
        if !self.complete() {
            return Err(DemaError::MissingCandidate {
                slice: format!("{} of {} runs missing", self.missing(), self.expected),
            });
        }
        select_kth(&self.runs, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-loser-tree implementation (binary heap over
    /// `(event, run index)`), kept verbatim as the oracle the rewrite must
    /// match bit-for-bit.
    mod oracle {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use super::*;

        pub fn merge_runs<R: AsRef<[Event]>>(runs: &[R]) -> Vec<Event> {
            let runs: Vec<&[Event]> = runs.iter().map(AsRef::as_ref).collect();
            let total: usize = runs.iter().map(|r| r.len()).sum();
            let mut out = Vec::with_capacity(total);
            let mut heap: BinaryHeap<Reverse<(Event, usize)>> = runs
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.first().map(|&e| Reverse((e, i))))
                .collect();
            let mut cursors = vec![1usize; runs.len()];
            while let Some(Reverse((e, run))) = heap.pop() {
                out.push(e);
                let c = cursors[run];
                if let Some(&next) = runs[run].get(c) {
                    cursors[run] = c + 1;
                    heap.push(Reverse((next, run)));
                }
            }
            out
        }

        pub fn select_kth<R: AsRef<[Event]>>(runs: &[R], k: u64) -> Result<Event> {
            let runs: Vec<&[Event]> = runs.iter().map(AsRef::as_ref).collect();
            let total: u64 = runs.iter().map(|r| len_to_u64(r.len())).sum();
            if k == 0 || k > total {
                return Err(DemaError::RankOutOfRange { rank: k, total });
            }
            let mut heap: BinaryHeap<Reverse<(Event, usize)>> = runs
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.first().map(|&e| Reverse((e, i))))
                .collect();
            let mut cursors = vec![1usize; runs.len()];
            let mut remaining = k;
            while let Some(Reverse((e, run))) = heap.pop() {
                remaining -= 1;
                if remaining == 0 {
                    return Ok(e);
                }
                let c = cursors[run];
                if let Some(&next) = runs[run].get(c) {
                    cursors[run] = c + 1;
                    heap.push(Reverse((next, run)));
                }
            }
            Err(DemaError::RankOutOfRange { rank: k, total })
        }
    }

    fn ev(v: i64) -> Event {
        Event::new(v, 0, v as u64)
    }

    fn run(vals: &[i64]) -> Vec<Event> {
        vals.iter().map(|&v| ev(v)).collect()
    }

    #[test]
    fn merge_two_runs() {
        let merged = merge_runs(&[run(&[1, 3, 5]), run(&[2, 4, 6])]);
        let vals: Vec<i64> = merged.iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merge_handles_empty_runs() {
        let merged = merge_runs(&[run(&[]), run(&[7]), run(&[])]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value, 7);
        assert!(merge_runs::<Vec<Event>>(&[]).is_empty());
    }

    #[test]
    fn merge_with_duplicates_is_stable_by_event_order() {
        let a = vec![Event::new(5, 0, 1), Event::new(5, 0, 3)];
        let b = vec![Event::new(5, 0, 2)];
        let merged = merge_runs(&[a, b]);
        let ids: Vec<u64> = merged.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2, 3]); // total event order, deterministic
    }

    #[test]
    fn merge_many_runs_matches_global_sort() {
        let runs: Vec<Vec<Event>> = (0..10)
            .map(|i| (0..50).map(|j| ev((j * 10 + i) as i64)).collect())
            .collect();
        let merged = merge_runs(&runs);
        let mut expected: Vec<Event> = runs.concat();
        expected.sort_unstable();
        assert_eq!(merged, expected);
    }

    #[test]
    fn select_kth_matches_full_merge() {
        let runs = vec![run(&[1, 4, 9, 16]), run(&[2, 3, 5, 8]), run(&[0, 7])];
        let merged = merge_runs(&runs);
        for k in 1..=merged.len() as u64 {
            assert_eq!(select_kth(&runs, k).unwrap(), merged[(k - 1) as usize]);
        }
    }

    #[test]
    fn select_kth_bounds() {
        let runs = vec![run(&[1, 2])];
        assert!(matches!(
            select_kth(&runs, 0),
            Err(DemaError::RankOutOfRange { .. })
        ));
        assert!(matches!(
            select_kth(&runs, 3),
            Err(DemaError::RankOutOfRange { .. })
        ));
        assert!(matches!(
            select_kth::<Vec<Event>>(&[], 1),
            Err(DemaError::RankOutOfRange { .. })
        ));
    }

    #[test]
    fn merger_waits_for_all_runs() {
        let mut m = CandidateMerger::new(2);
        m.add_run(run(&[1, 2]));
        assert!(!m.complete());
        assert_eq!(m.missing(), 1);
        assert!(matches!(
            m.select(1),
            Err(DemaError::MissingCandidate { .. })
        ));
        m.add_run(run(&[0, 3]));
        assert!(m.complete());
        assert_eq!(m.select(1).unwrap().value, 0);
        assert_eq!(m.select(3).unwrap().value, 2);
    }

    #[test]
    fn merger_with_zero_expected_is_immediately_complete() {
        let m = CandidateMerger::new(0);
        assert!(m.complete());
        assert!(matches!(m.select(1), Err(DemaError::RankOutOfRange { .. })));
    }

    #[test]
    fn merger_accepts_shared_runs_without_copying() {
        use crate::shared::SharedRun;
        let shared = SharedRun::from_vec(run(&[1, 2, 3, 4]));
        let mut m = CandidateMerger::new(2);
        m.add_run(shared.slice(0..2));
        m.add_run(shared.slice(2..4));
        assert!(m.complete());
        assert_eq!(m.select(3).unwrap().value, 3);
    }

    #[test]
    fn select_kth_duplicate_values_tie_break_on_event_order() {
        // Equal values across runs resolve by the derived Event order
        // (value, ts, id) — the merged position of every duplicate is
        // deterministic regardless of run arrangement.
        let a = vec![Event::new(5, 0, 1), Event::new(5, 0, 4)];
        let b = vec![Event::new(5, 0, 2), Event::new(5, 0, 5)];
        let c = vec![Event::new(5, 0, 3)];
        let runs = [a, b, c];
        for (k, want_id) in (1..=5).zip([1u64, 2, 3, 4, 5]) {
            assert_eq!(select_kth(&runs, k).unwrap().id, want_id, "k={k}");
        }
    }

    #[test]
    fn select_kth_with_empty_runs_interleaved() {
        let runs = vec![run(&[]), run(&[2, 4]), run(&[]), run(&[1, 3]), run(&[])];
        assert_eq!(select_kth(&runs, 1).unwrap().value, 1);
        assert_eq!(select_kth(&runs, 4).unwrap().value, 4);
        let merged = merge_runs(&runs);
        let vals: Vec<i64> = merged.iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![1, 2, 3, 4]);
    }

    #[test]
    fn select_kth_first_and_last_rank() {
        let runs = vec![run(&[10, 30]), run(&[-5, 20, 40])];
        assert_eq!(select_kth(&runs, 1).unwrap().value, -5); // k = 1
        assert_eq!(select_kth(&runs, 5).unwrap().value, 40); // k = total
    }

    #[test]
    fn generic_over_run_containers() {
        // The same call sites work with Vec, SharedRun, and plain slices.
        use crate::shared::SharedRun;
        let vecs = vec![run(&[1, 3]), run(&[2])];
        let shared: Vec<SharedRun> = vecs.iter().cloned().map(SharedRun::from_vec).collect();
        let borrowed: Vec<&[Event]> = vecs.iter().map(|v| v.as_slice()).collect();
        let expect = merge_runs(&vecs);
        assert_eq!(merge_runs(&shared), expect);
        assert_eq!(merge_runs(&borrowed), expect);
        assert_eq!(select_kth(&shared, 2).unwrap(), expect[1]);
        assert_eq!(select_kth(&borrowed, 2).unwrap(), expect[1]);
    }

    #[test]
    fn loser_tree_matches_oracle_on_adversarial_cases() {
        // Duplicate values with event-order tie-breaks across many runs,
        // empty runs interleaved, and run counts around the power-of-two
        // boundaries of the tournament layout.
        let dup = |id: u64| Event::new(5, 0, id);
        let cases: Vec<Vec<Vec<Event>>> = vec![
            vec![],
            vec![run(&[])],
            vec![run(&[]), run(&[]), run(&[])],
            vec![vec![dup(1), dup(4)], vec![dup(2), dup(5)], vec![dup(3)]],
            vec![run(&[]), run(&[2, 4]), run(&[]), run(&[1, 3]), run(&[])],
            (0..7).map(|i| run(&[i, i + 7, i + 14])).collect(),
            (0..8).map(|_| vec![dup(9), dup(9)]).collect(),
            (0..9)
                .map(|i| {
                    if i % 2 == 0 {
                        run(&[i, i + 10])
                    } else {
                        run(&[])
                    }
                })
                .collect(),
        ];
        for (n, runs) in cases.iter().enumerate() {
            let expect = oracle::merge_runs(runs);
            assert_eq!(merge_runs(runs), expect, "case {n}");
            for k in 1..=len_to_u64(expect.len()) {
                assert_eq!(
                    select_kth(runs, k).unwrap(),
                    oracle::select_kth(runs, k).unwrap(),
                    "case {n}, k={k}"
                );
            }
            // k at the first and last rank plus both out-of-range edges.
            assert!(select_kth(runs, 0).is_err());
            assert!(select_kth(runs, len_to_u64(expect.len()) + 1).is_err());
        }
    }

    #[test]
    fn both_select_routes_return_the_loser_tree_answer() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for r in [1usize, 2, 15, 512] {
            // Every fifth run is empty and every fifth is one event repeated;
            // the rest are tie-heavy.
            let runs: Vec<Vec<Event>> = (0..r)
                .map(|i| match i % 5 {
                    3 => Vec::new(),
                    4 => vec![Event::new(7, 3, 9); 6],
                    _ => {
                        let mut v: Vec<Event> = (0..1 + next(40))
                            .map(|_| Event::new(next(12) as i64, next(3), next(1_000)))
                            .collect();
                        v.sort_unstable();
                        v
                    }
                })
                .collect();
            let n = len_to_u64(runs.iter().map(Vec::len).sum());
            for k in [1, n.div_ceil(2), n] {
                let want = oracle::select_kth(&runs, k).unwrap();
                assert_eq!(kth_by_tree(&runs, k), Some(want), "r={r} k={k}");
                assert_eq!(kth_by_selection(&runs, k), Some(want), "r={r} k={k}");
                assert_eq!(select_kth(&runs, k).unwrap(), want, "r={r} k={k}");
            }
            // The three ranks sit on both sides of the cost rule.
            assert!(!selection_is_cheaper(1, n, r));
            assert_eq!(selection_is_cheaper(n, n, r), r > 1);
        }
        assert_eq!(kth_by_tree::<Vec<Event>>(&[], 1), None);
        assert_eq!(kth_by_selection::<Vec<Event>>(&[], 1), None);
    }

    #[test]
    fn merge_reserves_exactly_the_merged_length() {
        let runs = vec![run(&[1, 3, 5]), run(&[2, 4]), run(&[])];
        let merged = merge_runs(&runs);
        assert_eq!(merged.len(), 5);
        assert_eq!(merged.capacity(), 5, "one exact up-front reservation");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Turn arbitrary (value, count) pairs into a set of sorted runs
        /// with globally unique ids.
        fn runs_from(raw: Vec<Vec<i64>>) -> Vec<Vec<Event>> {
            let mut id = 0u64;
            raw.into_iter()
                .map(|vals| {
                    let mut events: Vec<Event> = vals
                        .into_iter()
                        .map(|v| {
                            id += 1;
                            Event::new(v, 0, id)
                        })
                        .collect();
                    events.sort_unstable();
                    events
                })
                .collect()
        }

        proptest! {
            #[test]
            fn select_kth_agrees_with_full_merge(
                raw in proptest::collection::vec(
                    proptest::collection::vec(-50i64..50, 0..12), 0..6),
            ) {
                let runs = runs_from(raw);
                let merged = merge_runs(&runs);
                for k in 1..=merged.len() as u64 {
                    prop_assert_eq!(
                        select_kth(&runs, k).unwrap(),
                        merged[(k - 1) as usize]
                    );
                }
                // Out-of-range ranks always error.
                prop_assert!(select_kth(&runs, 0).is_err());
                prop_assert!(select_kth(&runs, merged.len() as u64 + 1).is_err());
            }

            #[test]
            fn merge_matches_global_sort(
                raw in proptest::collection::vec(
                    proptest::collection::vec(-50i64..50, 0..12), 0..6),
            ) {
                let runs = runs_from(raw);
                let mut expected: Vec<Event> = runs.concat();
                expected.sort_unstable();
                prop_assert_eq!(merge_runs(&runs), expected);
            }

            /// The loser tree reproduces the retired heap merge exactly,
            /// duplicate values (narrow range below) and all.
            #[test]
            fn loser_tree_is_bit_identical_to_heap_oracle(
                raw in proptest::collection::vec(
                    proptest::collection::vec(-4i64..4, 0..16), 0..9),
            ) {
                let runs = runs_from(raw);
                let expect = oracle::merge_runs(&runs);
                prop_assert_eq!(&merge_runs(&runs), &expect);
                for k in 1..=expect.len() as u64 {
                    prop_assert_eq!(
                        select_kth(&runs, k).unwrap(),
                        oracle::select_kth(&runs, k).unwrap()
                    );
                }
            }
        }
    }
}
