//! The distributed t-digest extension (approximate) — the setup the paper
//! predicts ("we expect Tdigest to outperform Dema also with a
//! decentralized setup"): locals build digests, centroids are shipped, the
//! root merges.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::numeric::{f64_to_i64, i64_to_f64, len_to_u64};
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_sketch::{QuantileSketch, TDigest};
use dema_wire::Message;

use super::gather::Gather;
use super::LocalEngine;
use crate::ClusterError;

/// Root half: merge per-node digests (compression travels with each batch).
pub(crate) struct TdigestDistributed;

impl Gather for TdigestDistributed {
    const NAME: &'static str = "tdigest-dist";
    /// A node's event count and its digest.
    type Part = (u64, TDigest);

    fn accept(&self, msg: Message) -> Result<(NodeId, WindowId, (u64, TDigest)), Message> {
        match msg {
            Message::DigestBatch {
                node,
                window,
                count,
                compression,
                centroids,
            } => Ok((
                node,
                window,
                (count, TDigest::from_centroids(compression, centroids)),
            )),
            other => Err(other),
        }
    }

    fn answer(
        &self,
        parts: Vec<(u64, TDigest)>,
        _window: WindowId,
        quantile: Quantile,
    ) -> Result<(u64, Option<i64>), ClusterError> {
        let total: u64 = parts.iter().map(|(count, _)| count).sum();
        let mut digests = parts.into_iter().map(|(_, digest)| digest);
        let Some(mut merged) = digests.next().filter(|_| total > 0) else {
            return Ok((0, None));
        };
        for digest in digests {
            merged.merge_from(&digest);
        }
        Ok((total, merged.quantile(quantile.fraction()).map(f64_to_i64)))
    }
}

/// Local half: build a digest per window, ship its centroids.
pub struct TdigestDistributedLocal {
    /// Digest compression δ.
    pub(crate) compression: f64,
}

impl LocalEngine for TdigestDistributedLocal {
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        let mut digest = TDigest::new(self.compression);
        for e in &events {
            digest.insert(i64_to_f64(e.value));
        }
        let centroids = digest.centroids().to_vec();
        to_root.send(&Message::DigestBatch {
            node,
            window,
            count: len_to_u64(events.len()),
            compression: self.compression,
            centroids,
        })?;
        Ok(())
    }
}
