//! The decentralized-sort baseline (exact) — modified Desis: locals sort
//! their windows and ship sorted runs; the root k-way merges (it never
//! re-sorts) and selects the quantile rank.

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::merge::select_kth;
use dema_core::numeric::len_to_u64;
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_wire::Message;

use super::gather::Gather;
use super::LocalEngine;
use crate::ClusterError;

/// Root half: collect sorted runs, merge-select the rank.
pub(crate) struct DecSort;

impl Gather for DecSort {
    const NAME: &'static str = "dec-sort";
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
        runs: Vec<Vec<Event>>,
        _window: WindowId,
        quantile: Quantile,
    ) -> Result<(u64, Option<i64>), ClusterError> {
        let total: u64 = runs.iter().map(|r| len_to_u64(r.len())).sum();
        if total == 0 {
            return Ok((0, None));
        }
        // Locals pre-sorted; the root only merges.
        let k = quantile.pos(total)?;
        let value = select_kth(&runs, k).map_err(ClusterError::Core)?.value;
        Ok((total, Some(value)))
    }
}

/// Local half: sort, then ship the sorted run.
pub struct DecSortLocal {
    /// Thread budget for the window sort (`dema_core::par`).
    pub(crate) threads: usize,
}

impl LocalEngine for DecSortLocal {
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        mut events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        dema_core::par::sort_events_with(&mut events, self.threads);
        to_root.send(&Message::EventBatch {
            node,
            window,
            sorted: true,
            events,
        })?;
        Ok(())
    }
}
