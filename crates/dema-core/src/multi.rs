//! Concurrent quantile queries over one identification step.
//!
//! The paper motivates Dema with roots that must "handle higher data
//! volumes and more concurrent queries". When several quantiles of the same
//! window are requested (say p25/p50/p75 for a dashboard), the synopses are
//! shared: one identification step selects the *union* of candidate slices
//! for all target ranks, one calculation step fetches them, and every rank
//! is answered from the same merged runs. Exactness per rank follows from
//! the single-rank argument — each rank's candidate set is a subset of the
//! union, and the per-rank offsets count only slices provably before that
//! rank.

use crate::error::{DemaError, Result};
use crate::event::Event;
use crate::invariant;
use crate::merge::select_kth;
use crate::numeric::{len_to_u32, len_to_u64};
use crate::quantile::Quantile;
use crate::selector::{checked_total, select, Cut, SelectionStrategy};
use crate::slice::{SliceId, SliceSynopsis};

/// Plan for answering one rank out of the shared candidate set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlan {
    /// The global target rank `Pos(q)`.
    pub rank: u64,
    /// Events of *unfetched* slices certain to rank before this target.
    pub offset_below: u64,
}

impl RankPlan {
    /// 1-based position of this rank within the merged candidate events.
    #[inline]
    pub fn rank_within_candidates(&self) -> u64 {
        self.rank - self.offset_below
    }
}

/// The identification result for a set of concurrent quantile queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiSelection {
    /// Union of candidate slices across all ranks, ascending by value
    /// interval.
    pub candidates: Vec<SliceId>,
    /// Per-rank lookup plans, in the order of the requested ranks.
    pub plans: Vec<RankPlan>,
    /// Global window size `l_G`.
    pub total_events: u64,
    /// Total events the calculation step will fetch.
    pub candidate_events: u64,
}

/// Select candidates for several target ranks at once.
///
/// # Errors
/// * [`DemaError::EmptyWindow`] with no events;
/// * [`DemaError::RankOutOfRange`] if any rank is 0 or exceeds `l_G`;
/// * [`DemaError::InvalidQuantile`] if `ranks` is empty.
pub fn select_multi(
    synopses: &[SliceSynopsis],
    ranks: &[u64],
    strategy: SelectionStrategy,
) -> Result<MultiSelection> {
    if ranks.is_empty() {
        return Err(DemaError::InvalidQuantile("no ranks requested".into()));
    }
    if let [k] = *ranks {
        // One rank: the union is that rank's selection.
        let sel = select(synopses, k, strategy)?;
        return Ok(MultiSelection {
            candidates: sel.candidates,
            plans: vec![RankPlan {
                rank: k,
                offset_below: sel.offset_below,
            }],
            total_events: sel.total_events,
            candidate_events: sel.candidate_events,
        });
    }
    let total = checked_total(synopses, ranks)?;
    let cuts: Vec<Cut> = ranks.iter().map(|&k| Cut::at(synopses, k)).collect();
    // Which slices some rank fetches, aligned with `synopses`.
    let in_union: Vec<bool> = if strategy == SelectionStrategy::WindowCut {
        synopses
            .iter()
            .map(|s| cuts.iter().any(|cut| cut.holds(s)))
            .collect()
    } else {
        let mut fetched = std::collections::HashSet::new();
        for &k in ranks {
            fetched.extend(select(synopses, k, strategy)?.candidates);
        }
        synopses.iter().map(|s| fetched.contains(&s.id)).collect()
    };
    // One pass: union members in value-interval order, and per rank the
    // unfetched slices provably before it.
    let mut union: Vec<(i64, i64, SliceId)> = Vec::new();
    let mut candidate_events = 0u64;
    let mut offsets = vec![0u64; ranks.len()];
    for (s, &fetched) in synopses.iter().zip(&in_union) {
        if fetched {
            union.push((s.first, s.last, s.id));
            candidate_events += s.count;
        } else {
            for (offset, cut) in offsets.iter_mut().zip(&cuts) {
                if cut.entirely_before(s) {
                    *offset += s.count;
                }
            }
        }
    }
    union.sort_unstable();
    union.dedup();
    Ok(MultiSelection {
        candidates: union.into_iter().map(|(_, _, id)| id).collect(),
        plans: ranks
            .iter()
            .zip(offsets)
            .map(|(&rank, offset_below)| RankPlan { rank, offset_below })
            .collect(),
        total_events: total,
        candidate_events,
    })
}

/// Single-process reference: answer several quantiles of one distributed
/// window with one identification + one calculation step.
///
/// Returns the exact values in the order of `quantiles`.
///
/// # Errors
/// Propagates the errors of [`select_multi`] and rejects empty windows.
pub fn multi_quantile_decentralized(
    nodes: &[Vec<Event>],
    quantiles: &[Quantile],
    gamma: u64,
    strategy: SelectionStrategy,
) -> Result<Vec<i64>> {
    use crate::event::{NodeId, WindowId};
    use crate::slice::cut_into_slices;

    let mut synopses: Vec<SliceSynopsis> = Vec::new();
    let mut store: Vec<crate::slice::Slice> = Vec::new();
    for (i, events) in nodes.iter().enumerate() {
        let mut sorted = events.clone();
        sorted.sort_unstable();
        let l_local = len_to_u64(sorted.len());
        let slices = cut_into_slices(NodeId(len_to_u32(i)), WindowId(0), sorted, gamma)?;
        let total = len_to_u32(slices.len());
        let node_synopses = slices
            .iter()
            .map(|s| s.synopsis(total))
            .collect::<Result<Vec<_>>>()?;
        invariant::check_partition(&slices, &node_synopses, l_local)?;
        synopses.extend(node_synopses);
        store.extend(slices);
    }
    let total: u64 = synopses.iter().map(|s| s.count).sum();
    if total == 0 {
        return Err(DemaError::EmptyWindow);
    }
    invariant::check_synopsis_order(&synopses)?;
    let ranks: Vec<u64> = quantiles
        .iter()
        .map(|q| q.pos(total))
        .collect::<Result<Vec<_>>>()?;
    let multi = select_multi(&synopses, &ranks, strategy)?;
    for plan in &multi.plans {
        invariant::check_selection(&synopses, &multi.candidates, plan.rank, plan.offset_below)?;
    }
    // Shared views into the store — one refcount bump per candidate.
    let runs: Vec<crate::shared::SharedRun> = multi
        .candidates
        .iter()
        .map(|id| {
            store
                .iter()
                .find(|s| s.id == *id)
                .map(|s| s.events.clone())
                .ok_or(DemaError::MissingCandidate {
                    slice: id.to_string(),
                })
        })
        .collect::<Result<Vec<_>>>()?;
    multi
        .plans
        .iter()
        .map(|p| {
            let event = select_kth(&runs, p.rank_within_candidates())?;
            invariant::check_selected_event(&runs, p.rank_within_candidates(), &event)?;
            invariant::check_true_rank(
                nodes.iter().flatten().map(|e| e.value),
                p.rank,
                event.value,
            )?;
            Ok(event.value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::quantile_ground_truth;

    /// `select_multi` as it stood before the two-threshold window-cut, over
    /// the interval-based `select` it called then: the oracle the rewrite
    /// must match on window-cut inputs.
    mod oracle {
        use super::*;
        use crate::rank::RankIndex;
        use crate::selector::{oracle::select, Selection};

        pub fn select_multi(synopses: &[SliceSynopsis], ranks: &[u64]) -> Result<MultiSelection> {
            if ranks.is_empty() {
                return Err(DemaError::InvalidQuantile("no ranks requested".into()));
            }
            let mut candidates: Vec<SliceId> = Vec::new();
            let mut selections: Vec<Selection> = Vec::with_capacity(ranks.len());
            for &k in ranks {
                let sel = select(synopses, k)?;
                candidates.extend(sel.candidates.iter().copied());
                selections.push(sel);
            }
            // Union, keeping the value-interval order produced by `select`.
            let mut seen = std::collections::HashSet::with_capacity(candidates.len());
            let mut by_interval: Vec<(i64, i64, SliceId)> = Vec::new();
            for s in synopses {
                if candidates.contains(&s.id) && seen.insert(s.id) {
                    by_interval.push((s.first, s.last, s.id));
                }
            }
            by_interval.sort_unstable();
            let union: Vec<SliceId> = by_interval.into_iter().map(|(_, _, id)| id).collect();
            let in_union: std::collections::HashSet<SliceId> = union.iter().copied().collect();

            // Per-rank offsets against the *union*: count unpicked slices that are
            // provably before each rank.
            let index = RankIndex::build(synopses);
            let total = index.total();
            let candidate_events: u64 = synopses
                .iter()
                .filter(|s| in_union.contains(&s.id))
                .map(|s| s.count)
                .sum();
            let plans = ranks
                .iter()
                .map(|&k| {
                    let offset_below = synopses
                        .iter()
                        .filter(|s| {
                            !in_union.contains(&s.id) && index.interval(s).entirely_before(k)
                        })
                        .map(|s| s.count)
                        .sum();
                    RankPlan {
                        rank: k,
                        offset_below,
                    }
                })
                .collect();
            Ok(MultiSelection {
                candidates: union,
                plans,
                total_events: total,
                candidate_events,
            })
        }
    }

    #[test]
    fn one_to_three_ranks_equal_the_interval_oracle() {
        use crate::selector::oracle::{random_set, synopsis_sets, RngExt, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sets: Vec<Vec<SliceSynopsis>> =
            synopsis_sets().into_iter().map(|(_, set)| set).collect();
        sets.extend((0..300).map(|_| random_set(&mut rng)));
        for set in &sets {
            let total: u64 = set.iter().map(|s| s.count).sum();
            for n_ranks in 1..=3 {
                for _ in 0..8 {
                    // Mostly valid ranks, in any order, repeats allowed;
                    // now and then one out of range.
                    let ranks: Vec<u64> = (0..n_ranks)
                        .map(|_| rng.random_range(0..total + 2))
                        .collect();
                    assert_eq!(
                        select_multi(set, &ranks, SelectionStrategy::WindowCut),
                        oracle::select_multi(set, &ranks),
                        "ranks {ranks:?} of {total} over {set:?}"
                    );
                }
            }
            let edges = [1, total.div_ceil(2), total];
            assert_eq!(
                select_multi(set, &edges, SelectionStrategy::WindowCut),
                oracle::select_multi(set, &edges)
            );
        }
    }

    fn events(vals: &[i64]) -> Vec<Event> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| Event::new(v, 0, i as u64))
            .collect()
    }

    const QS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

    #[test]
    fn multi_matches_single_queries() {
        let a: Vec<Event> = (0..1000)
            .map(|i| Event::new(i * 3 % 500, 0, i as u64))
            .collect();
        let b: Vec<Event> = (0..800)
            .map(|i| Event::new(i * 7 % 900, 0, 10_000 + i as u64))
            .collect();
        let quantiles: Vec<Quantile> = QS.iter().map(|&q| Quantile::new(q).unwrap()).collect();
        let got = multi_quantile_decentralized(
            &[a.clone(), b.clone()],
            &quantiles,
            64,
            SelectionStrategy::WindowCut,
        )
        .unwrap();
        for (i, q) in quantiles.iter().enumerate() {
            let truth = quantile_ground_truth(&[a.clone(), b.clone()], *q).unwrap();
            assert_eq!(got[i], truth.value, "q={q}");
        }
    }

    #[test]
    fn union_is_smaller_than_sum_of_parts() {
        // Adjacent quantiles share candidate slices; the union must not
        // double-fetch them.
        let mut sorted: Vec<Event> = (0..10_000).map(|i| Event::new(i, 0, i as u64)).collect();
        sorted.sort_unstable();
        let slices = crate::slice::cut_into_slices(
            crate::event::NodeId(0),
            crate::event::WindowId(0),
            sorted,
            100,
        )
        .unwrap();
        let synopses: Vec<SliceSynopsis> =
            slices.iter().map(|s| s.synopsis(100).unwrap()).collect();
        // Two ranks in the same slice:
        let multi = select_multi(&synopses, &[5_010, 5_020], SelectionStrategy::WindowCut).unwrap();
        assert_eq!(multi.candidates.len(), 1);
        assert_eq!(multi.plans[0].rank_within_candidates(), 10);
        assert_eq!(multi.plans[1].rank_within_candidates(), 20);
    }

    #[test]
    fn empty_ranks_rejected() {
        let synopses: Vec<SliceSynopsis> = vec![];
        assert!(matches!(
            select_multi(&synopses, &[], SelectionStrategy::WindowCut),
            Err(DemaError::InvalidQuantile(_))
        ));
    }

    #[test]
    fn out_of_range_rank_rejected() {
        let a = events(&[1, 2, 3]);
        let err = multi_quantile_decentralized(
            &[a],
            &[Quantile::new(1.0).unwrap()],
            4,
            SelectionStrategy::WindowCut,
        );
        assert!(err.is_ok()); // 1.0 is fine
                              // but select_multi with a raw absurd rank is not:
        let mut sorted = events(&[1, 2, 3]);
        sorted.sort_unstable();
        let slices = crate::slice::cut_into_slices(
            crate::event::NodeId(0),
            crate::event::WindowId(0),
            sorted,
            4,
        )
        .unwrap();
        let synopses: Vec<SliceSynopsis> = slices.iter().map(|s| s.synopsis(1).unwrap()).collect();
        assert!(matches!(
            select_multi(&synopses, &[4], SelectionStrategy::WindowCut),
            Err(DemaError::RankOutOfRange { .. })
        ));
    }

    #[test]
    fn extreme_rank_pair_spans_whole_window() {
        let a: Vec<Event> = (0..1000).map(|i| Event::new(i, 0, i as u64)).collect();
        let quantiles = vec![Quantile::new(0.001).unwrap(), Quantile::new(1.0).unwrap()];
        let got = multi_quantile_decentralized(&[a], &quantiles, 50, SelectionStrategy::WindowCut)
            .unwrap();
        assert_eq!(got, vec![0, 999]);
    }

    #[test]
    fn duplicates_across_nodes() {
        let a = events(&[5; 50]);
        let b = events(&[5; 30]);
        let c = events(&[7; 20]);
        let quantiles = vec![Quantile::P25, Quantile::MEDIAN, Quantile::new(0.9).unwrap()];
        let got =
            multi_quantile_decentralized(&[a, b, c], &quantiles, 8, SelectionStrategy::WindowCut)
                .unwrap();
        assert_eq!(got, vec![5, 5, 7]);
    }

    #[test]
    fn all_strategies_agree() {
        let a: Vec<Event> = (0..500).map(|i| Event::new(i % 97, 0, i as u64)).collect();
        let b: Vec<Event> = (0..500)
            .map(|i| Event::new(i % 89, 0, 1000 + i as u64))
            .collect();
        let quantiles: Vec<Quantile> = QS.iter().map(|&q| Quantile::new(q).unwrap()).collect();
        let reference = multi_quantile_decentralized(
            &[a.clone(), b.clone()],
            &quantiles,
            16,
            SelectionStrategy::WindowCut,
        )
        .unwrap();
        for strategy in [SelectionStrategy::ClassifiedScan, SelectionStrategy::NoCut] {
            let got =
                multi_quantile_decentralized(&[a.clone(), b.clone()], &quantiles, 16, strategy)
                    .unwrap();
            assert_eq!(got, reference, "{strategy:?}");
        }
    }
}
