//! The centralized t-digest baseline (approximate) — raw events to the
//! root, which feeds a single t-digest (Dunning & Ertl) and reports an
//! approximate quantile. Same wire cost as the centralized engine, less
//! root CPU, no exactness. The local half is the centralized engine's
//! [`super::centralized::RawLocal`].

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::numeric::{f64_to_i64, i64_to_f64, len_to_u64};
use dema_core::quantile::Quantile;
use dema_sketch::{QuantileSketch, TDigest};
use dema_wire::Message;

use super::gather::Gather;
use crate::ClusterError;

/// Root half: insert every raw event into one digest per window.
pub(crate) struct TdigestCentral {
    /// Digest compression δ.
    pub(crate) compression: f64,
}

impl Gather for TdigestCentral {
    const NAME: &'static str = "tdigest";
    type Part = Vec<Event>;

    fn accept(&self, msg: Message) -> Result<(NodeId, WindowId, Vec<Event>), Message> {
        match msg {
            Message::EventBatch {
                node,
                window,
                events,
                ..
            } => Ok((node, window, events)),
            other => Err(other),
        }
    }

    fn answer(
        &self,
        batches: Vec<Vec<Event>>,
        _window: WindowId,
        quantile: Quantile,
    ) -> Result<(u64, Option<i64>), ClusterError> {
        let mut digest = TDigest::new(self.compression);
        for e in batches.iter().flatten() {
            digest.insert(i64_to_f64(e.value));
        }
        let total: u64 = batches.iter().map(|b| len_to_u64(b.len())).sum();
        if total == 0 {
            return Ok((0, None));
        }
        Ok((total, digest.quantile(quantile.fraction()).map(f64_to_i64)))
    }
}
