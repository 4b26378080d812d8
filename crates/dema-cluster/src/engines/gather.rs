//! The root shell of every one-shot engine (all but Dema): each local sends
//! one part per window, and the root answers once every local has reported
//! or, on resilient runs, the missing ones are dead or drained. An engine
//! supplies a [`Gather`] impl; [`GatherRoot`] owns the rest (DESIGN.md §9).
//!
//! Parts are answered in node-id order, so a one-shot answer does not
//! depend on arrival order, shard count or topology — which matters for
//! the order-sensitive t-digest merge.

use std::collections::{BTreeMap, HashSet};

use dema_core::event::{NodeId, WindowId};
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_wire::Message;

use super::retry::{self, Supervisor};
use super::{ResolvedWindow, RootEngine, RootParams};
use crate::ClusterError;

/// The engine-specific half of a one-shot root.
pub(crate) trait Gather: Send {
    /// Engine name in protocol errors (`"<NAME> root: unexpected message …"`).
    const NAME: &'static str;
    /// What one local contributes to one window.
    type Part: Send;

    /// Unpack this engine's uplink variant, or hand the message back.
    fn accept(&self, msg: Message) -> Result<(NodeId, WindowId, Self::Part), Message>;

    /// Answer `window` from its parts, given in node-id order: the global
    /// window size `l_G` and the value (`None` for an empty window).
    fn answer(
        &self,
        parts: Vec<Self::Part>,
        window: WindowId,
        quantile: Quantile,
    ) -> Result<(u64, Option<i64>), ClusterError>;
}

/// Root shell over a [`Gather`] impl: collect one part per local, answer
/// when the window is covered.
pub(crate) struct GatherRoot<G: Gather> {
    gather: G,
    quantile: Quantile,
    n_locals: usize,
    /// Parts of each open window, keyed by node id.
    windows: BTreeMap<u64, BTreeMap<u32, G::Part>>,
    control: Vec<Box<dyn MsgSender>>,
    sup: Option<Supervisor>,
}

impl<G: Gather> GatherRoot<G> {
    /// Build from the engine half and the shell params.
    pub(crate) fn new(gather: G, params: RootParams) -> GatherRoot<G> {
        GatherRoot {
            gather,
            quantile: params.quantile,
            n_locals: params.n_locals,
            windows: BTreeMap::new(),
            control: params.control,
            sup: params.resilience.map(Supervisor::new),
        }
    }

    /// `true` when open window `w` can gain no further part: every local
    /// reported or, on resilient runs, the rest are dead or drained.
    fn complete(&self, w: u64) -> bool {
        let parts = self.windows.get(&w);
        match &self.sup {
            None => parts.map_or(0, BTreeMap::len) == self.n_locals,
            Some(sup) => {
                !sup.is_done(w) && sup.covered(parts.map(reported).as_ref(), self.n_locals)
            }
        }
    }

    /// Answer window `w` from the parts it has, record its degraded verdict
    /// and mark it done so late duplicates are suppressed.
    fn close(
        &mut self,
        w: u64,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError> {
        let parts = self.windows.remove(&w).unwrap_or_default();
        let degraded = self.sup.as_mut().and_then(|sup| {
            let d = sup.degrade_record(w, &reported(&parts), self.n_locals);
            sup.finish(w);
            d
        });
        let window = WindowId(w);
        let (total_events, value) =
            self.gather
                .answer(parts.into_values().collect(), window, self.quantile)?;
        resolved.push((
            window,
            ResolvedWindow {
                value,
                total_events,
                degraded,
                ..Default::default()
            },
        ));
        Ok(())
    }
}

/// The nodes that contributed to a window.
fn reported<P>(parts: &BTreeMap<u32, P>) -> HashSet<u32> {
    parts.keys().copied().collect()
}

impl<G: Gather> RootEngine for GatherRoot<G> {
    fn on_message(
        &mut self,
        msg: Message,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError> {
        let (node, window, part) = self.gather.accept(msg).map_err(|msg| {
            ClusterError::Protocol(format!("{} root: unexpected message {msg:?}", G::NAME))
        })?;
        if let Some(sup) = self.sup.as_mut() {
            if sup.is_done(window.0) {
                sup.counters.record_duplicate();
                return Ok(());
            }
            sup.note_alive(node.0);
            sup.arm(window.0);
        }
        let parts = self.windows.entry(window.0).or_default();
        if parts.contains_key(&node.0) {
            // The first part from a node wins.
            retry::suppress_duplicate(&self.sup);
            return Ok(());
        }
        parts.insert(node.0, part);
        if self.complete(window.0) {
            self.close(window.0, resolved)?;
        }
        Ok(())
    }

    fn next_deadline(&self) -> Option<std::time::Instant> {
        retry::next_due(&self.sup)
    }

    fn on_tick(
        &mut self,
        expected_windows: u64,
        quiescent: bool,
        missing_enders: &[u32],
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<Vec<NodeId>, ClusterError> {
        let Some(sup) = self.sup.as_mut() else {
            return Ok(Vec::new());
        };
        let windows = &self.windows;
        let newly_dead = retry::tick_single_stage(
            sup,
            &mut self.control,
            self.n_locals,
            expected_windows,
            quiescent,
            missing_enders,
            &|w, n| windows.get(&w).is_some_and(|p| p.contains_key(&n)),
        )?;
        let completable: Vec<u64> = (0..expected_windows)
            .filter(|&w| self.complete(w))
            .collect();
        for w in completable {
            self.close(w, resolved)?;
        }
        Ok(newly_dead.into_iter().map(NodeId).collect())
    }
}

#[cfg(test)]
mod tests {
    use std::mem::discriminant;

    use dema_core::event::Event;
    use dema_net::NetError;

    use super::super::dema::LocalShared;
    use super::super::{build_local, build_root, REGISTRY};
    use super::*;
    use crate::config::EngineKind;

    struct Capture(Vec<Message>);

    impl MsgSender for Capture {
        fn send(&mut self, msg: &Message) -> Result<(), NetError> {
            self.0.push(msg.clone());
            Ok(())
        }
    }

    /// What `kind`'s local half ships for `node`'s window 0 of `values`.
    fn part(kind: EngineKind, node: u32, values: &[i64]) -> Message {
        let shared = LocalShared::configured(2, false, 1);
        let events = (0u64..)
            .zip(values)
            .map(|(i, &v)| Event::new(v, i, i))
            .collect();
        let mut out = Capture(Vec::new());
        build_local(kind, &shared)
            .on_window(NodeId(node), WindowId(0), events, &mut out)
            .unwrap();
        out.0.pop().unwrap()
    }

    /// A seed-protocol root over two locals answering the median.
    fn params() -> RootParams {
        RootParams {
            quantile: Quantile::MEDIAN,
            extra_quantiles: Vec::new(),
            n_locals: 2,
            control: Vec::new(),
            resilience: None,
            pipeline_depth: 1,
        }
    }

    /// Feed `msgs` to a fresh root of `kind`.
    fn run(kind: EngineKind, msgs: &[Message]) -> Vec<(WindowId, ResolvedWindow)> {
        let mut root = build_root(kind, params());
        let mut resolved = Vec::new();
        for msg in msgs {
            root.on_message(msg.clone(), &mut resolved).unwrap();
        }
        resolved
    }

    #[test]
    fn one_shot_roots_reject_foreign_parts_and_answer_in_node_order() {
        let one_shot: Vec<EngineKind> = REGISTRY
            .iter()
            .filter(|d| !d.control_plane)
            .map(|d| (d.example)())
            .collect();
        for &kind in &one_shot {
            let label = kind.label();
            let (a, b) = (part(kind, 0, &[9, 1, 5, 3]), part(kind, 1, &[4, 8, 2]));

            // Another engine's uplink variant is a protocol error naming
            // this engine.
            let foreign = one_shot
                .iter()
                .map(|&other| part(other, 0, &[1]))
                .find(|m| discriminant(m) != discriminant(&a))
                .unwrap();
            let mut root = build_root(kind, params());
            match root.on_message(foreign.clone(), &mut Vec::new()) {
                Err(ClusterError::Protocol(text)) => {
                    assert_eq!(
                        text,
                        format!("{label} root: unexpected message {foreign:?}")
                    );
                }
                other => panic!("{label}: foreign part gave {other:?}"),
            }

            let single = run(kind, &[a.clone(), b.clone()]);
            assert_eq!(single.len(), 1, "{label}");
            assert_eq!(single[0].1.total_events, 7, "{label}");
            // The first part from a node wins: a second one is dropped.
            let dup = part(kind, 0, &[100, 200, 300]);
            assert_eq!(run(kind, &[a.clone(), dup, b.clone()]), single, "{label}");
            // Parts are answered in node order, whatever the arrival order.
            assert_eq!(run(kind, &[b, a]), single, "{label}");
        }
    }
}
