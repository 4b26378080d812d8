//! The centralized baseline (exact) — Scotty/Flink-style: every raw event
//! is shipped to the root, which sorts the whole window and picks the
//! quantile. This is exactly the bottleneck the paper measures against.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::numeric::{len_to_u64, u64_to_usize};
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_wire::Message;

use super::gather::Gather;
use super::LocalEngine;
use crate::ClusterError;

/// Root half: gather raw batches, sort the window, pick the rank.
pub(crate) struct Centralized;

impl Gather for Centralized {
    const NAME: &'static str = "centralized";
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
        parts: Vec<Vec<Event>>,
        window: WindowId,
        quantile: Quantile,
    ) -> Result<(u64, Option<i64>), ClusterError> {
        let mut all: Vec<Event> = parts.into_iter().flatten().collect();
        let total = len_to_u64(all.len());
        if total == 0 {
            return Ok((0, None));
        }
        // The centralized root does the full sort itself.
        all.sort_unstable();
        let k = quantile.pos(total)?;
        let value = all
            .get(u64_to_usize(k - 1))
            .map(|e| e.value)
            .ok_or_else(|| {
                ClusterError::Protocol(format!("{window}: rank {k} beyond {total} events"))
            })?;
        Ok((total, Some(value)))
    }
}

/// Local half of the centralized and the t-digest engine: ship the window
/// raw (the t-digest root builds its digest from the raw events).
pub struct RawLocal;

impl LocalEngine for RawLocal {
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        to_root.send(&Message::EventBatch {
            node,
            window,
            sorted: false,
            events,
        })?;
        Ok(())
    }
}
