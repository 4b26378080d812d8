//! The distributed KLL engine (approximate) — registered to prove the
//! plugin surface: locals feed each window into a
//! [`dema_sketch::KllSketch`] (Karnin–Lang–Liberty) and ship the sketch's
//! weighted items with the exact min/max; the root unions the items across
//! nodes and answers the quantile by cumulative-weight rank.
//!
//! KLL conserves weight exactly (the sum of shipped weights equals the
//! observation count), so the union of per-node summaries is itself a valid
//! mergeable summary — rank queries over it carry the same `O(n/k)` error
//! bound as a single sketch over the concatenated stream. The conservation
//! check holds for degraded windows too: both sides of it only count
//! summaries that actually arrived.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::numeric::{f64_to_i64, i64_to_f64, len_to_u64};
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_sketch::{KllSketch, QuantileSketch};
use dema_wire::Message;

use super::gather::Gather;
use super::LocalEngine;
use crate::ClusterError;

/// Root half: union weighted items, answer by cumulative-weight rank.
pub(crate) struct Kll;

/// One node's sketch of one window.
pub(crate) struct Summary {
    count: u64,
    min: f64,
    max: f64,
    items: Vec<(f64, u64)>,
}

impl Gather for Kll {
    const NAME: &'static str = "kll-dist";
    type Part = Summary;

    fn accept(&self, msg: Message) -> Result<(NodeId, WindowId, Summary), Message> {
        match msg {
            Message::SketchBatch {
                node,
                window,
                count,
                min,
                max,
                items,
            } => Ok((
                node,
                window,
                Summary {
                    count,
                    min,
                    max,
                    items,
                },
            )),
            other => Err(other),
        }
    }

    fn answer(
        &self,
        parts: Vec<Summary>,
        window: WindowId,
        quantile: Quantile,
    ) -> Result<(u64, Option<i64>), ClusterError> {
        let total: u64 = parts.iter().map(|p| p.count).sum();
        if total == 0 {
            return Ok((0, None));
        }
        // Weight conservation across the union: the sketches must
        // account for every observation exactly once.
        let mut items: Vec<(f64, u64)> =
            parts.iter().flat_map(|p| p.items.iter().copied()).collect();
        let weight: u64 = items.iter().map(|(_, w)| w).sum();
        if weight != total {
            return Err(ClusterError::Protocol(format!(
                "{window}: sketch weight {weight} != count {total}"
            )));
        }
        // An empty node ships min = max = 0; only non-empty ones bound the
        // window.
        let (min, max) = parts
            .iter()
            .filter(|p| p.count > 0)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
                (lo.min(p.min), hi.max(p.max))
            });
        let target = quantile.pos(total)?;
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut acc = 0u64;
        let mut estimate = max;
        for (v, w) in &items {
            acc += w;
            if acc >= target {
                estimate = *v;
                break;
            }
        }
        Ok((total, Some(f64_to_i64(estimate.clamp(min, max)))))
    }
}

/// Local half: sketch the window, ship the weighted summary.
pub struct KllLocal {
    /// Sketch capacity parameter.
    pub(crate) k: usize,
}

impl LocalEngine for KllLocal {
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        // Deterministic per-node seed so runs are reproducible regardless of
        // message interleaving or topology.
        let seed =
            0x9E37_79B9_7F4A_7C15 ^ (u64::from(node.0) + 1).wrapping_mul(0xA24B_AED4_963E_E407);
        let mut sketch = KllSketch::with_seed(self.k, seed);
        for e in &events {
            sketch.insert(i64_to_f64(e.value));
        }
        // Non-finite values are rejected by the sketch; count what it kept.
        let count = sketch.count();
        debug_assert_eq!(count, len_to_u64(events.len()));
        to_root.send(&Message::SketchBatch {
            node,
            window,
            count,
            min: sketch.min().unwrap_or(0.0),
            max: sketch.max().unwrap_or(0.0),
            items: sketch.weighted_items(),
        })?;
        Ok(())
    }
}
