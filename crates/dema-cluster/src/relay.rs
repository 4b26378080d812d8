//! Relay nodes for multi-level aggregation trees.
//!
//! A relay is engine-agnostic plumbing: it forwards whatever its children
//! send *up* to its parent unchanged (synopses, event batches, sketches,
//! stream ends — re-encoded identically, so a tier's upward byte count
//! equals the tier below it), and it routes control messages *down*. The
//! root addresses a leaf by wrapping the control message in a
//! [`Message::Routed`] envelope; each relay looks at the destination, and
//! either unwraps the envelope (when the owning child *is* that leaf's
//! responder link) or forwards the envelope one tier further down.
//!
//! Shutdown cascades exactly like the star: the root drops its control
//! senders, the top relay sees its parent's downlink disconnect and closes
//! its own child downlinks, and so on until the leaf responders retire.
//! [`RelayRole`] is the relay as a reactor role (DESIGN.md §13).

use dema_core::sync::Mutex;
use dema_net::{MsgSender, NetError};
use dema_wire::Message;
use std::sync::Arc;

use crate::host::{Outbound, Stepper};
use crate::ClusterError;

/// A relay's downward handle on one child subtree.
pub struct RelayChild {
    /// Inclusive range of leaf node ids the child subtree covers.
    pub range: (u32, u32),
    /// Downlink into the child.
    pub sender: Box<dyn MsgSender>,
    /// `true` when the child is a leaf (its responder expects the *inner*
    /// control message, not the routing envelope).
    pub leaf: bool,
}

/// A [`MsgSender`] that wraps every message in a [`Message::Routed`]
/// envelope addressed to one leaf, multiplexing many logical control links
/// over one physical downlink (shared via the mutex).
pub struct RoutedSender {
    dest: dema_core::event::NodeId,
    inner: Arc<Mutex<Box<dyn MsgSender>>>,
}

impl RoutedSender {
    /// Address `dest` over the shared physical downlink `inner`.
    pub fn new(
        dest: dema_core::event::NodeId,
        inner: Arc<Mutex<Box<dyn MsgSender>>>,
    ) -> RoutedSender {
        RoutedSender { dest, inner }
    }
}

impl MsgSender for RoutedSender {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let wrapped = Message::Routed {
            dest: self.dest,
            inner: Box::new(msg.clone()),
        };
        self.inner.lock().send(&wrapped)
    }

    fn flush_pending(&mut self) -> Result<bool, NetError> {
        self.inner.lock().flush_pending()
    }
}

/// The relay role's first sender: the uplink to its parent. Child
/// downlinks follow at `1..`.
pub const RELAY_PARENT_UP: usize = 0;

/// One downward route of a [`RelayRole`].
pub struct RelayChildRoute {
    /// Inclusive leaf-id range the child subtree covers.
    pub range: (u32, u32),
    /// The role's sender index for this child's downlink.
    pub via: usize,
    /// Leaf children receive the unwrapped control message; inner children
    /// receive the [`Message::Routed`] envelope unchanged.
    pub leaf: bool,
}

/// A relay node hosted on a reactor: sources `0..n_ups` are the child
/// uplinks, source `n_ups` (when wired) is the parent's downlink.
///
/// Upward: every message from a child uplink is forwarded to the parent
/// verbatim. Downward: [`Message::Routed`] envelopes from the parent are
/// delivered to the child whose leaf range covers the destination —
/// unwrapped for leaf children, forwarded as-is otherwise. A downward
/// message without an envelope, or a destination no child covers, is a
/// protocol error. The role is done once every child uplink has
/// disconnected *and* the parent downlink is gone (or was never wired, for
/// engines without a control plane).
pub struct RelayRole {
    ups_open: Vec<bool>,
    /// How many of `ups_open` are still `true`, so `done` stays O(1).
    n_ups_open: usize,
    down_open: bool,
    children: Vec<RelayChildRoute>,
}

impl RelayRole {
    /// A relay with `n_ups` child uplinks and the given downward routes;
    /// `has_down` is false for engines without a control plane.
    pub fn new(n_ups: usize, children: Vec<RelayChildRoute>, has_down: bool) -> RelayRole {
        RelayRole {
            ups_open: vec![true; n_ups],
            n_ups_open: n_ups,
            down_open: has_down,
            children,
        }
    }
}

impl Stepper for RelayRole {
    fn on_message(
        &mut self,
        link: usize,
        msg: Message,
        out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        if link < self.ups_open.len() {
            // Upward traffic forwards verbatim — moved, never cloned.
            out.push(Outbound::Send {
                via: RELAY_PARENT_UP,
                msg,
            });
            return Ok(());
        }
        match msg {
            Message::Routed { dest, inner } => {
                let child = self
                    .children
                    .iter()
                    .find(|c| c.range.0 <= dest.0 && dest.0 <= c.range.1)
                    .ok_or_else(|| {
                        ClusterError::Protocol(format!(
                            "relay: no child covers destination node {}",
                            dest.0
                        ))
                    })?;
                let msg = if child.leaf {
                    *inner
                } else {
                    Message::Routed { dest, inner }
                };
                out.push(Outbound::Send {
                    via: child.via,
                    msg,
                });
                Ok(())
            }
            msg => Err(ClusterError::Protocol(format!(
                "relay: unrouted downward message {msg:?}"
            ))),
        }
    }

    fn on_timer(&mut self, _token: u64, _out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        Ok(())
    }

    fn on_disconnect(&mut self, link: usize, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        if let Some(open) = self.ups_open.get_mut(link) {
            if std::mem::replace(open, false) {
                self.n_ups_open -= 1;
            }
        } else {
            // The root (or the relay above) is done: cascade the shutdown
            // by closing our own downlinks so the tier below exits too.
            self.down_open = false;
            for c in &self.children {
                out.push(Outbound::Close { via: c.via });
            }
        }
        Ok(())
    }

    fn on_wake(&mut self, _out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        Ok(())
    }

    fn done(&self) -> bool {
        !self.down_open && self.n_ups_open == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dema_core::event::{NodeId, WindowId};
    use dema_core::sync::rank;
    use dema_metrics::NetworkCounters;
    use dema_net::mem::link;
    use dema_net::MsgReceiver;

    #[test]
    fn routed_sender_wraps_every_message() {
        let (tx, mut rx) = link(NetworkCounters::new_shared());
        let shared: Arc<Mutex<Box<dyn MsgSender>>> =
            Arc::new(Mutex::new(rank::ROUTED_DOWNLINK, Box::new(tx)));
        let mut a = RoutedSender::new(NodeId(3), Arc::clone(&shared));
        let mut b = RoutedSender::new(NodeId(7), shared);
        a.send(&Message::GammaUpdate { gamma: 64 }).unwrap();
        b.send(&Message::CandidateRequest {
            window: WindowId(1),
            slices: vec![0],
        })
        .unwrap();
        match rx.try_recv().unwrap().unwrap() {
            Message::Routed { dest, inner } => {
                assert_eq!(dest, NodeId(3));
                assert!(matches!(*inner, Message::GammaUpdate { gamma: 64 }));
            }
            other => panic!("{other:?}"),
        }
        match rx.try_recv().unwrap().unwrap() {
            Message::Routed { dest, .. } => assert_eq!(dest, NodeId(7)),
            other => panic!("{other:?}"),
        }
    }
}
