//! Candidate-slice selection — the identification step and the window-cut
//! algorithm (§3.1–3.2, Algorithm 1).
//!
//! Given all slice synopses of a global window and a target rank
//! `k = Pos(q)`, the selector decides which slices the root must fetch
//! (the *candidates*) and how many events of unfetched slices are certain to
//! rank before `k` (the *offset*). Exactness argument:
//!
//! * With the rank intervals of [`crate::rank`], a slice is a candidate iff
//!   `min_start ≤ k ≤ max_end`. Every non-candidate therefore satisfies
//!   `max_end < k` (all its events rank before `k` in every consistent
//!   ordering) or `min_start > k` (all rank after).
//! * Let `offset = Σ count` over the `max_end < k` non-candidates. Exactly
//!   `k − 1` events rank before the target globally, `offset` of them are
//!   never fetched, so the target sits at position `k − offset` (1-based)
//!   of the merged candidate multiset. Equal values are interchangeable at
//!   any rank, so the selected *value* is exact regardless of tie-breaking.
//! * Any superset of the minimal candidate set stays exact under the same
//!   offset rule (extra fetched events rank strictly before/after and shift
//!   indices consistently), which is why the scan-based variant below may
//!   safely over-approximate.
//!
//! Three strategies are provided:
//!
//! * [`SelectionStrategy::WindowCut`] — the rank-bound form above; the
//!   tightest set. This is the default and the paper's window-cut
//!   algorithm in its exact formulation. It never materialises an interval
//!   per slice: two values cut the window (`Cut`), found in `O(S)`.
//! * [`SelectionStrategy::ClassifiedScan`] — a faithful rendering of the
//!   paper's Algorithm 1: classify slices (separate / compound / cover),
//!   locate the overlap group holding `k`, then scan from the group's left
//!   and right edges towards the quantile position, keeping slices that
//!   overlap the `[k − γ, k + γ]` rank range and cover-slices enclosed by
//!   kept candidates. May keep slightly more than `WindowCut`.
//! * [`SelectionStrategy::NoCut`] — fetch the whole overlap group containing
//!   `k`. The ablation baseline showing what Algorithm 1 saves when slices
//!   overlap heavily (Figure 8b's left-skew scenario).

use crate::classify::{classify, SliceKind};
use crate::error::{DemaError, Result};
use crate::rank::RankIndex;
use crate::slice::{SliceId, SliceSynopsis};

/// Which candidate-selection algorithm the root runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Exact rank-interval window-cut (default).
    #[default]
    WindowCut,
    /// The paper's Algorithm 1 as written: classification + two-sided scan.
    ClassifiedScan,
    /// No cut: fetch the entire overlap component containing the rank.
    NoCut,
}

/// Outcome of the identification step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    /// Slices the root must fetch, ascending by `(first, last, id)`.
    pub candidates: Vec<SliceId>,
    /// Events of *unfetched* slices certain to rank before the target.
    pub offset_below: u64,
    /// Total number of candidate events that will travel in the
    /// calculation step.
    pub candidate_events: u64,
    /// Global window size `l_G` implied by the synopses.
    pub total_events: u64,
    /// The target rank `Pos(q)` this selection was computed for.
    pub target_rank: u64,
}

impl Selection {
    /// 1-based position of the target within the merged candidate events.
    #[inline]
    pub fn rank_within_candidates(&self) -> u64 {
        self.target_rank - self.offset_below
    }
}

/// Run the identification step: choose candidate slices for rank `k`.
///
/// # Errors
/// * [`DemaError::EmptyWindow`] if there are no synopses / zero events.
/// * [`DemaError::RankOutOfRange`] if `k` is 0 or exceeds `l_G`.
pub fn select(
    synopses: &[SliceSynopsis],
    k: u64,
    strategy: SelectionStrategy,
) -> Result<Selection> {
    let total = checked_total(synopses, &[k])?;
    let picked: Vec<usize> = match strategy {
        SelectionStrategy::WindowCut => return Ok(window_cut(synopses, k, total)),
        SelectionStrategy::ClassifiedScan => classified_scan(synopses, k),
        SelectionStrategy::NoCut => no_cut(synopses, k),
    };
    finish(synopses, k, total, picked)
}

/// The window-cut at one rank `k`, as two values instead of a rank interval
/// per slice.
///
/// `lo` is the smallest value `v` with `Σ count·[first ≤ v] ≥ k` and `hi`
/// the smallest `v` with `Σ count·[last ≤ v] ≥ k`. Both sums only grow with
/// `v`, so against the intervals of [`crate::rank`], for a slice `S`:
///
/// * `max_end(S) = Σ count·[first ≤ last(S)] < k` iff `last(S) < lo` — `S`
///   ranks entirely before `k`;
/// * `min_start(S) − 1 = Σ count·[last < first(S)] ≥ k` iff `first(S) > hi`
///   — `S` ranks entirely after `k`;
/// * otherwise `min_start(S) ≤ k ≤ max_end(S)`: `S` is a candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cut {
    lo: i64,
    hi: i64,
}

impl Cut {
    /// Cut the window described by `synopses` at rank `k`, which must lie
    /// in `1..=l_G`.
    pub(crate) fn at(synopses: &[SliceSynopsis], k: u64) -> Cut {
        let mut ends: Vec<(i64, u64)> = synopses.iter().map(|s| (s.first, s.count)).collect();
        let lo = weighted_kth(&mut ends, k);
        for (end, s) in ends.iter_mut().zip(synopses) {
            *end = (s.last, s.count);
        }
        let hi = weighted_kth(&mut ends, k);
        Cut { lo, hi }
    }

    /// `true` if every event of `s` is certain to rank before `k`.
    #[inline]
    pub(crate) fn entirely_before(&self, s: &SliceSynopsis) -> bool {
        s.last < self.lo
    }

    /// `true` if rank `k` may fall inside `s`.
    #[inline]
    pub(crate) fn holds(&self, s: &SliceSynopsis) -> bool {
        s.last >= self.lo && s.first <= self.hi
    }
}

/// The smallest value among `ends` at which the counts of all entries with
/// a value at or below it sum to at least `k`; the largest value if they
/// never do. Quickselect on the values, steered by the counts: expected
/// `O(n)`, reorders `ends`.
fn weighted_kth(ends: &mut [(i64, u64)], mut k: u64) -> i64 {
    let mut rest = ends;
    loop {
        if rest.is_empty() {
            return i64::MAX; // an empty input; `k ≤ l_G` rules it out
        }
        let (left, pivot, right) = rest.select_nth_unstable(rest.len() / 2);
        let below: u64 = left.iter().map(|e| e.1).sum();
        if k <= below {
            rest = left;
        } else if k <= below + pivot.1 || right.is_empty() {
            return pivot.0;
        } else {
            k -= below + pivot.1;
            rest = right;
        }
    }
}

/// Two-threshold window-cut: one pass sorts every slice into before /
/// candidate / after.
fn window_cut(synopses: &[SliceSynopsis], k: u64, total: u64) -> Selection {
    let cut = Cut::at(synopses, k);
    let mut offset_below = 0u64;
    let mut candidate_events = 0u64;
    let mut picked: Vec<&SliceSynopsis> = Vec::new();
    for s in synopses {
        if cut.entirely_before(s) {
            offset_below += s.count;
        } else if cut.holds(s) {
            candidate_events += s.count;
            picked.push(s);
        }
    }
    picked.sort_unstable_by_key(|s| (s.first, s.last, s.id));
    Selection {
        candidates: picked.iter().map(|s| s.id).collect(),
        offset_below,
        candidate_events,
        total_events: total,
        target_rank: k,
    }
}

/// The global window size `l_G` the synopses imply, once every rank of
/// `ranks` is known to lie in `1..=l_G`.
pub(crate) fn checked_total(synopses: &[SliceSynopsis], ranks: &[u64]) -> Result<u64> {
    let total: u64 = synopses.iter().map(|s| s.count).sum();
    if total == 0 {
        return Err(DemaError::EmptyWindow);
    }
    match ranks.iter().find(|&&k| k == 0 || k > total) {
        Some(&rank) => Err(DemaError::RankOutOfRange { rank, total }),
        None => Ok(total),
    }
}

/// Assemble the [`Selection`] from picked indices, computing the offset over
/// the slices that were *not* picked.
fn finish(
    synopses: &[SliceSynopsis],
    k: u64,
    total: u64,
    mut picked: Vec<usize>,
) -> Result<Selection> {
    picked.sort_unstable_by_key(|&i| (synopses[i].first, synopses[i].last, synopses[i].id));
    picked.dedup();
    let index = RankIndex::build(synopses);
    let mut offset_below = 0u64;
    let mut candidate_events = 0u64;
    let mut is_picked = vec![false; synopses.len()];
    for &i in &picked {
        is_picked[i] = true;
        candidate_events += synopses[i].count;
    }
    for (i, s) in synopses.iter().enumerate() {
        if !is_picked[i] {
            let iv = index.interval(s);
            if iv.entirely_before(k) {
                offset_below += s.count;
            } else if !iv.entirely_after(k) {
                // A strategy failed to pick a slice that may contain k:
                // would silently corrupt the result, so refuse.
                return Err(DemaError::InconsistentSynopses(format!(
                    "slice {} may contain rank {k} but was not selected",
                    s.id
                )));
            }
        }
    }
    Ok(Selection {
        candidates: picked.iter().map(|&i| synopses[i].id).collect(),
        offset_below,
        candidate_events,
        total_events: total,
        target_rank: k,
    })
}

/// Whole-overlap-group selection (ablation baseline).
fn no_cut(synopses: &[SliceSynopsis], k: u64) -> Vec<usize> {
    let c = classify(synopses);
    match c.group_containing_rank(k) {
        Some(g) => c.groups[g].members.clone(),
        None => Vec::new(),
    }
}

/// The paper's Algorithm 1: locate the overlap group containing `k`, then
/// scan its slices from the left edge (increasing `Pos_start`) and the right
/// edge (decreasing `Pos_end`), adding slices that overlap the
/// `[k − γ̄, k + γ̄]` rank range (γ̄ = the group's largest slice count, the
/// paper's γ) and stopping once past the quantile position. Cover-slices
/// enclosed by a kept candidate are added if they overlap the range.
fn classified_scan(synopses: &[SliceSynopsis], k: u64) -> Vec<usize> {
    let c = classify(synopses);
    let Some(gidx) = c.group_containing_rank(k) else {
        return Vec::new();
    };
    let group = &c.groups[gidx];
    if group.members.len() == 1 {
        return group.members.clone();
    }
    let index = RankIndex::build(synopses);
    let gamma = group
        .members
        .iter()
        .map(|&i| synopses[i].count)
        .max()
        .unwrap_or(2);
    let pos_left = k.saturating_sub(gamma);
    let pos_right = k.saturating_add(gamma);

    let mut keep = vec![false; synopses.len()];

    // Left scan: increasing Pos_start.
    let mut by_start: Vec<usize> = group.members.clone();
    by_start.sort_unstable_by_key(|&i| index.interval(&synopses[i]).min_start);
    for &i in &by_start {
        let iv = index.interval(&synopses[i]);
        if iv.max_end >= pos_left && iv.min_start <= k {
            keep[i] = true; // overlaps the left range
        } else if iv.min_start > k {
            break; // crossed the quantile position
        }
    }
    // Right scan: decreasing Pos_end.
    let mut by_end: Vec<usize> = group.members.clone();
    by_end.sort_unstable_by_key(|&i| std::cmp::Reverse(index.interval(&synopses[i]).max_end));
    for &i in &by_end {
        let iv = index.interval(&synopses[i]);
        if iv.min_start <= pos_right && iv.max_end >= k {
            keep[i] = true; // overlaps the right range
        } else if iv.max_end < k {
            break; // crossed the quantile position
        }
    }
    // Cover-slices enclosed by a kept candidate are candidates when they
    // overlap the quantile's rank range (their event positions relative to
    // the coverer are unknown to the root).
    for &i in &group.members {
        if let SliceKind::Cover { coverer } = c.kinds[i] {
            if keep[coverer] && index.interval(&synopses[i]).contains(k) {
                keep[i] = true;
            }
        }
    }
    (0..synopses.len()).filter(|&i| keep[i]).collect()
}

/// The rank-interval window-cut `select` ran before the two-threshold form
/// — one [`RankIndex`] interval per synopsis, then [`finish`]'s independent
/// offset and safety pass — kept verbatim as the oracle the rewrite must
/// match, with the seeded synopsis sets both differential suites
/// (`select` here, `select_multi` in [`crate::multi`]) run over.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::event::{Event, NodeId, WindowId};
    use crate::slice::cut_into_slices;
    pub(crate) use rand::rngs::SmallRng;
    pub(crate) use rand::{RngExt, SeedableRng};

    pub(crate) fn select(synopses: &[SliceSynopsis], k: u64) -> Result<Selection> {
        let total: u64 = synopses.iter().map(|s| s.count).sum();
        if total == 0 {
            return Err(DemaError::EmptyWindow);
        }
        if k == 0 || k > total {
            return Err(DemaError::RankOutOfRange { rank: k, total });
        }
        let index = RankIndex::build(synopses);
        let picked = synopses
            .iter()
            .enumerate()
            .filter(|(_, s)| index.interval(s).contains(k))
            .map(|(i, _)| i)
            .collect();
        finish(synopses, k, total, picked)
    }

    /// The synopses real leaves would ship: each node's values sorted, cut
    /// into γ-sized slices, in node order (so *not* ordered by interval).
    /// A node without values ships nothing.
    pub(crate) fn window(nodes: &[Vec<i64>], gamma: u64) -> Vec<SliceSynopsis> {
        let mut synopses = Vec::new();
        for (n, values) in nodes.iter().enumerate() {
            let mut events: Vec<Event> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| Event::new(v, 0, i as u64))
                .collect();
            events.sort_unstable();
            let slices = cut_into_slices(NodeId(n as u32), WindowId(0), events, gamma).unwrap();
            for s in &slices {
                synopses.push(s.synopsis(slices.len() as u32).unwrap());
            }
        }
        synopses
    }

    fn values(rng: &mut SmallRng, n: u64, base: i64, span: u64) -> Vec<i64> {
        (0..n)
            .map(|_| base.wrapping_add(rng.random_range(0..span) as i64))
            .collect()
    }

    /// Named synopsis sets covering the shapes the window-cut must get
    /// right; `small` sets are cheap enough to try at every rank.
    pub(crate) fn synopsis_sets() -> Vec<(&'static str, Vec<SliceSynopsis>)> {
        let mut rng = SmallRng::seed_from_u64(22);
        let mut sets = vec![
            (
                "heavy ties",
                window(
                    &(0..4)
                        .map(|_| values(&mut rng, 60, 0, 5))
                        .collect::<Vec<_>>(),
                    4,
                ),
            ),
            ("all equal", window(&vec![vec![42; 30]; 3], 4)),
            (
                "extreme values",
                window(
                    &[
                        vec![i64::MIN, i64::MIN, i64::MIN + 1, -1, 0, i64::MAX],
                        vec![i64::MIN, 0, 1, i64::MAX - 1, i64::MAX, i64::MAX],
                        vec![i64::MAX; 5],
                    ],
                    2,
                ),
            ),
            (
                "one node holds the window",
                window(&[values(&mut rng, 90, -40, 80)], 8),
            ),
            (
                "empty nodes between busy ones",
                window(
                    &[
                        vec![],
                        values(&mut rng, 35, 0, 50),
                        vec![],
                        vec![],
                        values(&mut rng, 20, 25, 50),
                        vec![7],
                    ],
                    6,
                ),
            ),
            (
                "one slice per node x 512 nodes",
                window(
                    &(0..512)
                        .map(|_| {
                            let base = rng.random_range(0..200i64);
                            values(&mut rng, 3, base, 40)
                        })
                        .collect::<Vec<_>>(),
                    64,
                ),
            ),
        ];
        // The same shapes the root sees after stage 1 (interval order) and
        // in a scrambled arrival order.
        let mut ordered = sets[0].1.clone();
        ordered.sort_unstable_by_key(|s| (s.first, s.last, s.id));
        sets.push(("ordered by interval", ordered));
        let mut scrambled = sets[3].1.clone();
        for i in (1..scrambled.len()).rev() {
            scrambled.swap(i, rng.random_range(0..=i));
        }
        sets.push(("scrambled order", scrambled));
        sets
    }

    /// Arbitrary overlapping intervals (covers, chains, touching
    /// endpoints), not derived from events: tie-heavy and small.
    pub(crate) fn random_set(rng: &mut SmallRng) -> Vec<SliceSynopsis> {
        let n = rng.random_range(1..15u32);
        (0..n)
            .map(|i| {
                let first = rng.random_range(-6..6i64);
                SliceSynopsis {
                    id: SliceId {
                        node: NodeId(rng.random_range(0..4u32)),
                        window: WindowId(0),
                        index: i,
                    },
                    first,
                    last: first + rng.random_range(0..5i64),
                    count: rng.random_range(1..7u64),
                    total_slices: 0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NodeId, WindowId};
    use crate::slice::SliceId;

    fn syn(node: u32, index: u32, first: i64, last: i64, count: u64) -> SliceSynopsis {
        SliceSynopsis {
            id: SliceId {
                node: NodeId(node),
                window: WindowId(0),
                index,
            },
            first,
            last,
            count,
            total_slices: 0,
        }
    }

    const ALL: [SelectionStrategy; 3] = [
        SelectionStrategy::WindowCut,
        SelectionStrategy::ClassifiedScan,
        SelectionStrategy::NoCut,
    ];

    #[test]
    fn disjoint_slices_single_candidate() {
        // Figure 2: non-overlapping slices — exactly one candidate.
        let s = vec![
            syn(0, 0, 0, 9, 150),   // ranks 1..150
            syn(1, 0, 10, 19, 150), // ranks 151..300
            syn(0, 1, 20, 29, 150), // ranks 301..450
            syn(0, 2, 30, 39, 100), // ranks 451..550
            syn(1, 1, 40, 49, 150), // ranks 551..700
        ];
        for strat in ALL {
            let sel = select(&s, 350, strat).unwrap();
            assert_eq!(sel.candidates, vec![s[2].id], "{strat:?}");
            assert_eq!(sel.offset_below, 300);
            assert_eq!(sel.rank_within_candidates(), 50);
            assert_eq!(sel.total_events, 700);
        }
    }

    #[test]
    fn boundary_ranks() {
        let s = vec![syn(0, 0, 0, 9, 10), syn(0, 1, 10, 19, 10)];
        for strat in ALL {
            let first = select(&s, 1, strat).unwrap();
            assert!(first.candidates.contains(&s[0].id));
            let last = select(&s, 20, strat).unwrap();
            assert!(last.candidates.contains(&s[1].id));
        }
    }

    #[test]
    fn overlapping_pair_both_candidates() {
        let s = vec![syn(0, 0, 0, 15, 10), syn(1, 0, 10, 25, 10)];
        for strat in ALL {
            let sel = select(&s, 10, strat).unwrap();
            assert_eq!(sel.candidates.len(), 2, "{strat:?}");
            assert_eq!(sel.offset_below, 0);
        }
    }

    #[test]
    fn window_cut_prunes_far_slices_in_large_compound() {
        // A long chain of pairwise-overlapping slices; k in the middle.
        // NoCut fetches the whole chain; WindowCut only the neighbourhood.
        let s: Vec<SliceSynopsis> = (0..20)
            .map(|i| syn(0, i, (i as i64) * 10, (i as i64) * 10 + 12, 100))
            .collect();
        let k = 1000; // middle of 2000 events
        let cut = select(&s, k, SelectionStrategy::WindowCut).unwrap();
        let nocut = select(&s, k, SelectionStrategy::NoCut).unwrap();
        assert_eq!(nocut.candidates.len(), 20);
        assert!(
            cut.candidates.len() < 6,
            "window-cut kept {}",
            cut.candidates.len()
        );
        // Every window-cut candidate is also a no-cut candidate.
        for c in &cut.candidates {
            assert!(nocut.candidates.contains(c));
        }
    }

    #[test]
    fn classified_scan_is_superset_of_window_cut() {
        let s: Vec<SliceSynopsis> = (0..15)
            .map(|i| {
                syn(
                    i % 3,
                    i / 3,
                    (i as i64) * 7,
                    (i as i64) * 7 + 20,
                    10 + (i as u64) % 5,
                )
            })
            .collect();
        let total: u64 = s.iter().map(|x| x.count).sum();
        for k in [1, total / 4, total / 2, (3 * total) / 4, total] {
            let cut = select(&s, k, SelectionStrategy::WindowCut).unwrap();
            let scan = select(&s, k, SelectionStrategy::ClassifiedScan).unwrap();
            for c in &cut.candidates {
                assert!(scan.candidates.contains(c), "k={k}: {c} missing from scan");
            }
        }
    }

    #[test]
    fn cover_slice_inside_candidate_is_selected() {
        // Big slice spans the rank; a small cover-slice hides inside it.
        let s = vec![
            syn(0, 0, 0, 100, 50), // candidate (contains the median range)
            syn(1, 0, 40, 60, 10), // cover-slice inside
            syn(0, 1, 200, 300, 40),
        ];
        for strat in ALL {
            let sel = select(&s, 30, strat).unwrap();
            assert!(sel.candidates.contains(&s[0].id), "{strat:?}");
            assert!(
                sel.candidates.contains(&s[1].id),
                "{strat:?} must include cover-slice"
            );
            assert!(!sel.candidates.contains(&s[2].id), "{strat:?}");
        }
    }

    #[test]
    fn cover_slice_outside_rank_range_is_dropped_by_window_cut() {
        // The cover-slice sits below every possible position of rank k, so
        // the exact selector can drop it even though its coverer is kept.
        let s = vec![
            syn(0, 0, 0, 100, 10),
            syn(1, 0, 0, 4, 50), // covered, but certainly all before k
            syn(2, 0, 5, 90, 10),
        ];
        // guaranteed below k=70: slice 1 max_end = 60 < 70? possibly_le(4):
        // firsts <= 4: slices 0,1 -> 60. yes.
        let sel = select(&s, 70, SelectionStrategy::WindowCut).unwrap();
        assert!(!sel.candidates.contains(&s[1].id));
        assert_eq!(sel.offset_below, 50);
    }

    #[test]
    fn rank_out_of_range_rejected() {
        let s = vec![syn(0, 0, 0, 9, 10)];
        for strat in ALL {
            assert!(matches!(
                select(&s, 0, strat),
                Err(DemaError::RankOutOfRange { .. })
            ));
            assert!(matches!(
                select(&s, 11, strat),
                Err(DemaError::RankOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn unpicked_candidate_slice_is_refused() {
        // Defensive path: if a (buggy) strategy fails to pick a slice whose
        // rank interval contains k, `finish` must refuse rather than let a
        // silently wrong quantile escape.
        let s = vec![syn(0, 0, 0, 9, 10), syn(0, 1, 10, 19, 10)];
        let err = finish(&s, 15, 20, vec![0]).unwrap_err();
        assert!(matches!(err, DemaError::InconsistentSynopses(_)), "{err}");
    }

    #[test]
    fn empty_synopses_rejected() {
        for strat in ALL {
            assert_eq!(select(&[], 1, strat), Err(DemaError::EmptyWindow));
        }
    }

    #[test]
    fn candidates_sorted_by_value_interval() {
        let s = vec![
            syn(1, 0, 50, 60, 10),
            syn(0, 0, 45, 55, 10),
            syn(2, 0, 40, 52, 10),
        ];
        let sel = select(&s, 15, SelectionStrategy::WindowCut).unwrap();
        assert_eq!(sel.candidates.len(), 3);
        assert_eq!(sel.candidates[0], s[2].id);
        assert_eq!(sel.candidates[1], s[1].id);
        assert_eq!(sel.candidates[2], s[0].id);
    }

    #[test]
    fn candidate_events_counts_fetched_volume() {
        let s = vec![
            syn(0, 0, 0, 9, 10),
            syn(0, 1, 20, 29, 30),
            syn(0, 2, 40, 49, 10),
        ];
        let sel = select(&s, 25, SelectionStrategy::WindowCut).unwrap();
        assert_eq!(sel.candidate_events, 30);
    }

    #[test]
    fn all_strategies_agree_on_single_slice() {
        let s = vec![syn(0, 0, 5, 5, 100)];
        for strat in ALL {
            let sel = select(&s, 50, strat).unwrap();
            assert_eq!(sel.candidates, vec![s[0].id]);
            assert_eq!(sel.offset_below, 0);
        }
    }

    #[test]
    fn two_threshold_cut_equals_the_interval_oracle_at_every_rank() {
        for (name, set) in oracle::synopsis_sets() {
            let total: u64 = set.iter().map(|s| s.count).sum();
            for k in 0..=total + 1 {
                assert_eq!(
                    select(&set, k, SelectionStrategy::WindowCut),
                    oracle::select(&set, k),
                    "{name}: rank {k} of {total}"
                );
            }
        }
    }

    #[test]
    fn two_threshold_cut_equals_the_interval_oracle_on_random_overlaps() {
        use oracle::SeedableRng;
        let mut rng = oracle::SmallRng::seed_from_u64(1);
        for round in 0..2_000 {
            let set = oracle::random_set(&mut rng);
            let total: u64 = set.iter().map(|s| s.count).sum();
            for k in 1..=total {
                assert_eq!(
                    select(&set, k, SelectionStrategy::WindowCut),
                    oracle::select(&set, k),
                    "round {round}: rank {k} of {set:?}"
                );
            }
        }
    }

    #[test]
    fn weighted_kth_finds_the_value_the_prefix_sums_name() {
        use oracle::{RngExt, SeedableRng};
        let mut rng = oracle::SmallRng::seed_from_u64(7);
        for _ in 0..500 {
            let n = rng.random_range(1..41usize);
            let ends: Vec<(i64, u64)> = (0..n)
                .map(|_| (rng.random_range(-4..5i64), rng.random_range(0..4u64)))
                .collect();
            let mut sorted = ends.clone();
            sorted.sort_unstable();
            let total: u64 = ends.iter().map(|e| e.1).sum();
            for k in 1..=total {
                let mut acc = 0;
                let want = sorted
                    .iter()
                    .find(|e| {
                        acc += e.1;
                        acc >= k
                    })
                    .map(|e| e.0);
                assert_eq!(
                    Some(weighted_kth(&mut ends.clone(), k)),
                    want,
                    "{ends:?} k={k}"
                );
            }
        }
    }
}
