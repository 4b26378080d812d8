//! Reactor hosting for cluster roles (DESIGN.md §13).
//!
//! Every node runs as a *role*: a passive protocol state machine behind
//! the [`Stepper`] trait that turns reactor events (a message, a timer, a
//! writability notice, a wake) into a list of [`Outbound`] effects. A
//! [`RoleHost`] adapts one role to the [`dema_net::reactor::Handler`]
//! contract — it owns the role's senders, applies its outbounds,
//! re-registers writability interest when a nonblocking sender reports
//! buffered bytes, and absorbs the role's errors so one node's death on a
//! shared reactor shard stays that node's: its links drop (peers see
//! `Disconnected`) and the rest of the shard keeps running.
//!
//! Four roles cover the cluster:
//!
//! * [`LocalRole`] — drives a [`LocalStepper`] window by window, pumped by
//!   `Wake` events (or pacing timers when `pace_window_ms` is set).
//! * [`ResponderRole`] — serves the root's control messages from the
//!   node's slice store via [`responder_step`], one message at a time.
//! * [`RelayRole`](crate::relay::RelayRole) — forwards uplink traffic
//!   verbatim and routes [`Message::Routed`] envelopes downward.
//! * [`RootRole`] — wraps [`RootNode`]; retry/liveness deadlines become
//!   reactor timers ([`RootNode::next_deadline`]) instead of a per-sweep
//!   `tick` poll.

use std::time::{Duration, Instant};

use dema_core::event::NodeId;
use dema_net::reactor::{Handler, Ops, ReactorEvent};
use dema_net::{MsgSender, NetError};
use dema_wire::Message;

use crate::local::{responder_step, CloseTimes, LocalShared, LocalStepper, ResponderStatus};
use crate::root::RootNode;
use crate::ClusterError;

/// An effect a role requests; applied by its [`RoleHost`] after the role's
/// event method returns.
#[derive(Debug)]
pub enum Outbound {
    /// Send `msg` on the role's sender `via`.
    Send {
        /// Role-local sender index.
        via: usize,
        /// The message (by value — a relay forwards without cloning).
        msg: Message,
    },
    /// Drop sender `via` now (the peer sees `Disconnected`); used for the
    /// relay's downward shutdown cascade.
    Close {
        /// Role-local sender index.
        via: usize,
    },
    /// Arm a one-shot reactor timer delivering `token` back at `at`.
    Timer {
        /// Deadline.
        at: Instant,
        /// Token returned in the matching [`Stepper::on_timer`].
        token: u64,
    },
    /// Ask for another [`Stepper::on_wake`] on the next sweep.
    Wake,
}

/// A protocol state machine hosted on a reactor shard. Pure with respect
/// to I/O: every method receives an event and pushes [`Outbound`] effects;
/// the [`RoleHost`] owns the actual senders.
pub trait Stepper {
    /// A message arrived on the role's source `link`.
    ///
    /// # Errors
    /// Protocol violations and algorithm failures; the host records the
    /// error and retires the role (dropping its links), it does not abort
    /// the shard.
    fn on_message(
        &mut self,
        link: usize,
        msg: Message,
        out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError>;

    /// A timer armed via [`Outbound::Timer`] came due. Stale fires are
    /// possible (timers are never cancelled) — re-check state.
    ///
    /// # Errors
    /// Same contract as [`Stepper::on_message`].
    fn on_timer(&mut self, token: u64, out: &mut Vec<Outbound>) -> Result<(), ClusterError>;

    /// Source `link` closed; no further messages will arrive on it.
    ///
    /// # Errors
    /// Same contract as [`Stepper::on_message`].
    fn on_disconnect(&mut self, link: usize, out: &mut Vec<Outbound>) -> Result<(), ClusterError>;

    /// Self-driven work: delivered once at loop start and again after any
    /// [`Outbound::Wake`].
    ///
    /// # Errors
    /// Same contract as [`Stepper::on_message`].
    fn on_wake(&mut self, out: &mut Vec<Outbound>) -> Result<(), ClusterError>;

    /// `true` once the role needs no further events.
    ///
    /// The [`RoleHost`] calls this after every event it dispatches and the
    /// reactor on every sweep, so it must be O(1): keep a count beside the
    /// state rather than scanning nodes or links here.
    fn done(&self) -> bool;
}

impl Stepper for Box<dyn Stepper + '_> {
    fn on_message(
        &mut self,
        link: usize,
        msg: Message,
        out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        (**self).on_message(link, msg, out)
    }

    fn on_timer(&mut self, token: u64, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        (**self).on_timer(token, out)
    }

    fn on_disconnect(&mut self, link: usize, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        (**self).on_disconnect(link, out)
    }

    fn on_wake(&mut self, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        (**self).on_wake(out)
    }

    fn done(&self) -> bool {
        (**self).done()
    }
}

/// A [`MsgSender`] that records sends as [`Outbound::Send`] effects on a
/// fixed sender index, letting the existing engine duties ([`LocalStepper`],
/// [`responder_step`]) run unmodified under a role.
struct CaptureSender<'v> {
    via: usize,
    out: &'v mut Vec<Outbound>,
}

impl MsgSender for CaptureSender<'_> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.out.push(Outbound::Send {
            via: self.via,
            msg: msg.clone(),
        });
        Ok(())
    }
}

/// Adapts one [`Stepper`] role to the reactor's [`Handler`] contract:
/// owns the role's senders, applies its outbounds, tracks nonblocking
/// senders with buffered bytes (re-registering writability interest until
/// they drain), and absorbs role failures.
///
/// Failure semantics are a node's death, not the shard's:
/// the first error is recorded, every sender is dropped (peers observe
/// `Disconnected`), and the role stops receiving events — but the shard's
/// other roles keep running. The runner collects recorded errors after the
/// shard joins and applies its per-error forgiveness rules.
pub struct RoleHost<R> {
    role: R,
    senders: Vec<Option<Box<dyn MsgSender>>>,
    /// Senders with buffered-but-unwritten bytes (`flush_pending` said
    /// `false`); the host keeps writability interest alive for these and
    /// refuses to report `done` until they drain.
    pending: Vec<bool>,
    pending_count: usize,
    error: Option<ClusterError>,
    dead: bool,
    out: Vec<Outbound>,
}

impl<R: Stepper> RoleHost<R> {
    /// Host `role` with its sender table (indices are the role's `via`s).
    pub fn new(role: R, senders: Vec<Box<dyn MsgSender>>) -> RoleHost<R> {
        let n = senders.len();
        RoleHost {
            role,
            senders: senders.into_iter().map(Some).collect(),
            pending: vec![false; n],
            pending_count: 0,
            error: None,
            dead: false,
            out: Vec::new(),
        }
    }

    /// Take the first error the role (or its I/O) produced, if any.
    pub fn take_error(&mut self) -> Option<ClusterError> {
        self.error.take()
    }

    /// Recover the role (e.g. the [`RootRole`] after the loop exits),
    /// along with any recorded error.
    pub fn into_parts(self) -> (R, Option<ClusterError>) {
        (self.role, self.error)
    }

    /// Retire the role after a failure: record the first error, drop every
    /// link so peers see `Disconnected` (the node's death), and
    /// stop dispatching events to it.
    fn fail(&mut self, e: ClusterError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
        self.dead = true;
        for s in &mut self.senders {
            *s = None;
        }
        self.pending_count = 0;
    }

    /// Retry buffered bytes on sender `via`, updating pending bookkeeping
    /// and writability interest.
    fn flush(&mut self, via: usize, ops: &mut Ops) -> Result<(), ClusterError> {
        let Some(s) = self.senders.get_mut(via).and_then(Option::as_mut) else {
            return Ok(());
        };
        match s.flush_pending() {
            Ok(true) => {
                if self.pending[via] {
                    self.pending[via] = false;
                    self.pending_count -= 1;
                }
                Ok(())
            }
            Ok(false) => {
                if !self.pending[via] {
                    self.pending[via] = true;
                    self.pending_count += 1;
                }
                ops.watch_writable(via);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Apply the effects a role requested.
    fn apply(&mut self, out: &mut Vec<Outbound>, ops: &mut Ops) -> Result<(), ClusterError> {
        for ob in out.drain(..) {
            match ob {
                Outbound::Send { via, msg } => {
                    {
                        let Some(s) = self.senders.get_mut(via).and_then(Option::as_mut) else {
                            return Err(ClusterError::Protocol(format!(
                                "role send on closed link {via}"
                            )));
                        };
                        s.send(&msg)?;
                    }
                    self.flush(via, ops)?;
                }
                Outbound::Close { via } => {
                    if let Some(slot) = self.senders.get_mut(via) {
                        *slot = None;
                    }
                    if self.pending.get(via).copied().unwrap_or(false) {
                        self.pending[via] = false;
                        self.pending_count -= 1;
                    }
                }
                Outbound::Timer { at, token } => ops.arm_timer(at, token),
                Outbound::Wake => ops.wake(),
            }
        }
        Ok(())
    }

    /// Once the role is done and nothing is buffered, release the links —
    /// the senders dropping is what cascades the cluster shutdown.
    fn release_if_done(&mut self) {
        if self.role.done() && self.pending_count == 0 {
            for s in &mut self.senders {
                *s = None;
            }
        }
    }
}

impl<R: Stepper> Handler<ClusterError> for RoleHost<R> {
    fn on_event(&mut self, ev: ReactorEvent, ops: &mut Ops) -> Result<(), ClusterError> {
        if self.dead {
            return Ok(());
        }
        if let ReactorEvent::Writable { link } = ev {
            if let Err(e) = self.flush(link, ops) {
                self.fail(e);
            }
            self.release_if_done();
            return Ok(());
        }
        let mut out = std::mem::take(&mut self.out);
        let res = match ev {
            ReactorEvent::Readable { link, msg } => self.role.on_message(link, msg, &mut out),
            ReactorEvent::Closed { link } => self.role.on_disconnect(link, &mut out),
            ReactorEvent::Timer { token } => self.role.on_timer(token, &mut out),
            ReactorEvent::Wake => self.role.on_wake(&mut out),
            ReactorEvent::Writable { .. } => Ok(()), // handled above
        };
        let res = res.and_then(|()| self.apply(&mut out, ops));
        out.clear();
        self.out = out;
        match res {
            Ok(()) => self.release_if_done(),
            Err(e) => self.fail(e),
        }
        Ok(())
    }

    fn on_io_error(&mut self, _link: usize, err: NetError) -> Result<(), ClusterError> {
        if !self.dead {
            self.fail(err.into());
        }
        Ok(())
    }

    fn done(&self) -> bool {
        self.dead || (self.role.done() && self.pending_count == 0)
    }
}

/// The local role's single sender: its data uplink.
pub const LOCAL_UPLINK: usize = 0;

/// A local node hosted on a reactor: the [`LocalStepper`] pumped one
/// window per `Wake`, with `pace_window_ms` re-expressed as reactor
/// timers instead of thread sleeps.
pub struct LocalRole<'a> {
    node: NodeId,
    stepper: LocalStepper<'a>,
    close_times: CloseTimes,
    pace_window_ms: Option<u64>,
    started: Instant,
}

impl<'a> LocalRole<'a> {
    /// Host `stepper` for `node`, stamping each window's close into
    /// `close_times` just before the stepper closes it.
    pub fn new(
        node: NodeId,
        stepper: LocalStepper<'a>,
        close_times: CloseTimes,
        pace_window_ms: Option<u64>,
    ) -> LocalRole<'a> {
        LocalRole {
            node,
            stepper,
            close_times,
            pace_window_ms,
            started: Instant::now(),
        }
    }

    /// Close the next window (or the stream), honoring pacing: a window
    /// not yet due arms a timer instead of sleeping the shard.
    fn pump(&mut self, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        if self.stepper.is_done() {
            return Ok(());
        }
        if let Some(w) = self.stepper.next_window() {
            if let Some(ms) = self.pace_window_ms {
                let due = self.started + Duration::from_millis(ms.saturating_mul(w));
                if due > Instant::now() {
                    out.push(Outbound::Timer { at: due, token: w });
                    return Ok(());
                }
            }
            self.close_times
                .lock()
                .insert((self.node.0, w), Instant::now());
        }
        let mut cap = CaptureSender {
            via: LOCAL_UPLINK,
            out,
        };
        self.stepper.step(&mut cap)?;
        if !self.stepper.is_done() {
            // One window per event keeps shard sweeps fair across nodes.
            out.push(Outbound::Wake);
        }
        Ok(())
    }
}

impl Stepper for LocalRole<'_> {
    fn on_message(
        &mut self,
        link: usize,
        _msg: Message,
        _out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        Err(ClusterError::Protocol(format!(
            "{}: local data role has no inbound link {link}",
            self.node
        )))
    }

    fn on_timer(&mut self, _token: u64, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        self.pump(out)
    }

    fn on_disconnect(
        &mut self,
        _link: usize,
        _out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        Ok(())
    }

    fn on_wake(&mut self, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        self.pump(out)
    }

    fn done(&self) -> bool {
        self.stepper.is_done()
    }
}

/// The responder role's single sender: its own uplink to the root.
pub const RESPONDER_UPLINK: usize = 0;

/// A Dema responder hosted on a reactor: serves the root's control
/// messages from the node's shared slice store, one [`responder_step`]
/// per delivery. It shares the shard with the node's [`LocalRole`], which
/// is what lets the two borrow one `!Sync` [`LocalShared`].
pub struct ResponderRole<'a> {
    node: NodeId,
    shared: &'a LocalShared,
    stopped: bool,
}

impl<'a> ResponderRole<'a> {
    /// A responder for `node` over its shared local state.
    pub fn new(node: NodeId, shared: &'a LocalShared) -> ResponderRole<'a> {
        ResponderRole {
            node,
            shared,
            stopped: false,
        }
    }
}

impl Stepper for ResponderRole<'_> {
    fn on_message(
        &mut self,
        _link: usize,
        msg: Message,
        out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        if self.stopped {
            return Ok(());
        }
        let mut cap = CaptureSender {
            via: RESPONDER_UPLINK,
            out,
        };
        match responder_step(self.node, msg, &mut cap, self.shared)? {
            ResponderStatus::Continue => Ok(()),
            ResponderStatus::Stop => {
                self.stopped = true;
                Ok(())
            }
        }
    }

    fn on_timer(&mut self, _token: u64, _out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        Ok(())
    }

    fn on_disconnect(
        &mut self,
        _link: usize,
        _out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        // Control link closed: the root is finished with this node.
        self.stopped = true;
        Ok(())
    }

    fn on_wake(&mut self, _out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        Ok(())
    }

    fn done(&self) -> bool {
        self.stopped
    }
}

/// The root hosted on its own reactor (the caller's thread): every uplink
/// receiver is a source, control sends stay inside the engine, and the
/// retry `Supervisor`'s deadlines surface as reactor timers via
/// [`RootNode::next_deadline`] instead of a `tick` per polling sweep.
pub struct RootRole {
    root: RootNode,
    /// Earliest timer currently armed, to avoid flooding the heap: a new
    /// timer is pushed only for a strictly earlier deadline (stale fires
    /// are harmless — `tick` re-derives real deadlines).
    armed: Option<Instant>,
}

impl RootRole {
    /// Host `root`.
    pub fn new(root: RootNode) -> RootRole {
        RootRole { root, armed: None }
    }

    /// Recover the root for result extraction after the loop exits.
    pub fn into_root(self) -> RootNode {
        self.root
    }

    fn rearm(&mut self, out: &mut Vec<Outbound>) {
        if let Some(due) = self.root.next_deadline() {
            if self.armed.is_none_or(|armed| due < armed) {
                out.push(Outbound::Timer { at: due, token: 0 });
                self.armed = Some(due);
            }
        }
    }
}

impl Stepper for RootRole {
    fn on_message(
        &mut self,
        _link: usize,
        msg: Message,
        out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        self.root.handle(msg)?;
        self.rearm(out);
        Ok(())
    }

    fn on_timer(&mut self, _token: u64, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        self.armed = None;
        self.root.tick()?;
        self.rearm(out);
        Ok(())
    }

    fn on_disconnect(
        &mut self,
        _link: usize,
        _out: &mut Vec<Outbound>,
    ) -> Result<(), ClusterError> {
        // A local finished and dropped its uplink — normal shutdown order.
        Ok(())
    }

    fn on_wake(&mut self, out: &mut Vec<Outbound>) -> Result<(), ClusterError> {
        self.rearm(out);
        Ok(())
    }

    fn done(&self) -> bool {
        self.root.finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineKind, GammaMode};
    use crate::relay::{RelayChildRoute, RelayRole, RELAY_PARENT_UP};
    use dema_core::event::{Event, WindowId};
    use dema_core::quantile::Quantile;
    use dema_core::selector::SelectionStrategy;
    use dema_metrics::{NetworkCounters, ReactorStats};
    use dema_net::mem::link;
    use dema_net::reactor::Reactor;
    use dema_net::MsgReceiver;

    fn events(vals: &[i64]) -> Vec<Event> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| Event::new(v, 0, i as u64))
            .collect()
    }

    fn dema_engine() -> EngineKind {
        EngineKind::Dema {
            gamma: GammaMode::Fixed(4),
            strategy: SelectionStrategy::WindowCut,
        }
    }

    /// A full reactor-hosted Dema run with the runner's loop split: one
    /// shard reactor hosting the local + its responder, the root on its
    /// own reactor. The protocol completes with an exact answer and the
    /// shutdown cascade (into_results → ctl close → responder retires)
    /// lets the shard exit.
    #[test]
    fn reactor_shards_complete_a_dema_run() {
        let close_times = crate::local::new_close_times();
        let (up_tx, up_rx) = link(NetworkCounters::new_shared());
        let (resp_tx, resp_rx) = link(NetworkCounters::new_shared());
        let (ctl_tx, ctl_rx) = link(NetworkCounters::new_shared());

        let shard_close_times = std::sync::Arc::clone(&close_times);
        let shard = dema_net::reactor::spawn_shard("host-test-shard".into(), move || {
            let shared = LocalShared::new(4);
            let stepper = LocalStepper::new(
                NodeId(0),
                vec![events(&[5, 1, 9, 3, 7, 2, 8, 4])],
                dema_engine(),
                &shared,
            );
            let mut reactor = Reactor::new(ReactorStats::new_shared());
            let mut local_host = RoleHost::new(
                LocalRole::new(NodeId(0), stepper, shard_close_times, None),
                vec![Box::new(up_tx)],
            );
            let mut resp_host = RoleHost::new(
                ResponderRole::new(NodeId(0), &shared),
                vec![Box::new(resp_tx)],
            );
            reactor.register(1, 0, Box::new(ctl_rx));
            let mut handlers: Vec<&mut dyn Handler<ClusterError>> =
                vec![&mut local_host, &mut resp_host];
            reactor.run(&mut handlers).unwrap();
            let mut errs = Vec::new();
            errs.extend(local_host.take_error());
            errs.extend(resp_host.take_error());
            errs
        })
        .unwrap();

        let root = RootNode::new(
            Quantile::MEDIAN,
            dema_engine(),
            1,
            1,
            vec![Box::new(ctl_tx)],
            crate::local::new_close_times(),
        );
        let mut reactor = Reactor::new(ReactorStats::new_shared());
        let mut root_host = RoleHost::new(RootRole::new(root), Vec::new());
        reactor.register(0, 0, Box::new(up_rx));
        reactor.register(0, 1, Box::new(resp_rx));
        {
            let mut handlers: Vec<&mut dyn Handler<ClusterError>> = vec![&mut root_host];
            reactor.run(&mut handlers).unwrap();
        }
        let (role, err) = root_host.into_parts();
        assert!(err.is_none());
        // into_results drops the engine's control sender, releasing the
        // shard's responder; only then reap the shard.
        let (outcomes, _) = role.into_root().into_results();
        drop(reactor);
        let errs = shard.join().unwrap();
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(outcomes[0].value, Some(4)); // rank 4 of [1,2,3,4,5,7,8,9]
        assert_eq!(outcomes[0].total_events, 8);
        assert!(close_times.lock().contains_key(&(0, 0)));
    }

    /// A failing role retires without killing the shard: its links drop
    /// (peers see Disconnected) and the error is recoverable afterwards.
    #[test]
    fn role_failure_is_absorbed_and_links_drop() {
        struct Bomb;
        impl Stepper for Bomb {
            fn on_message(
                &mut self,
                _l: usize,
                _m: Message,
                _o: &mut Vec<Outbound>,
            ) -> Result<(), ClusterError> {
                Ok(())
            }
            fn on_timer(&mut self, _t: u64, _o: &mut Vec<Outbound>) -> Result<(), ClusterError> {
                Ok(())
            }
            fn on_disconnect(
                &mut self,
                _l: usize,
                _o: &mut Vec<Outbound>,
            ) -> Result<(), ClusterError> {
                Ok(())
            }
            fn on_wake(&mut self, _o: &mut Vec<Outbound>) -> Result<(), ClusterError> {
                Err(ClusterError::Protocol("boom".into()))
            }
            fn done(&self) -> bool {
                false
            }
        }
        let (tx, mut rx) = link(NetworkCounters::new_shared());
        let mut host = RoleHost::new(Bomb, vec![Box::new(tx)]);
        let mut reactor = Reactor::new(ReactorStats::new_shared());
        let mut handlers: Vec<&mut dyn Handler<ClusterError>> = vec![&mut host];
        // The initial wake detonates; the host absorbs it and reports done.
        reactor.run(&mut handlers).unwrap();
        assert!(matches!(
            host.take_error(),
            Some(ClusterError::Protocol(msg)) if msg == "boom"
        ));
        assert!(matches!(rx.try_recv(), Err(NetError::Disconnected)));
    }

    /// The relay role forwards upward traffic by value, routes envelopes
    /// downward with the leaf/inner unwrap rule, and rejects a destination
    /// no child covers.
    #[test]
    fn relay_role_routes_like_the_threaded_relay() {
        let mut relay = RelayRole::new(
            1,
            vec![
                RelayChildRoute {
                    range: (0, 0),
                    via: 1,
                    leaf: true,
                },
                RelayChildRoute {
                    range: (1, 3),
                    via: 2,
                    leaf: false,
                },
            ],
            true,
        );
        let mut out = Vec::new();
        relay
            .on_message(
                0,
                Message::StreamEnd {
                    node: NodeId(0),
                    late_events: 0,
                },
                &mut out,
            )
            .unwrap();
        assert!(matches!(
            out.pop(),
            Some(Outbound::Send {
                via: RELAY_PARENT_UP,
                msg: Message::StreamEnd { .. }
            })
        ));
        // Leaf child: unwrapped. Inner child: envelope kept.
        relay
            .on_message(
                1,
                Message::Routed {
                    dest: NodeId(0),
                    inner: Box::new(Message::GammaUpdate { gamma: 9 }),
                },
                &mut out,
            )
            .unwrap();
        assert!(matches!(
            out.pop(),
            Some(Outbound::Send {
                via: 1,
                msg: Message::GammaUpdate { gamma: 9 }
            })
        ));
        relay
            .on_message(
                1,
                Message::Routed {
                    dest: NodeId(2),
                    inner: Box::new(Message::GammaUpdate { gamma: 5 }),
                },
                &mut out,
            )
            .unwrap();
        assert!(matches!(
            out.pop(),
            Some(Outbound::Send {
                via: 2,
                msg: Message::Routed { .. }
            })
        ));
        // Unrouted downward traffic is a protocol violation, and so is a
        // destination outside every child's range…
        assert!(relay
            .on_message(1, Message::GammaUpdate { gamma: 1 }, &mut out)
            .is_err());
        let unowned = relay.on_message(
            1,
            Message::Routed {
                dest: NodeId(5),
                inner: Box::new(Message::GammaUpdate { gamma: 2 }),
            },
            &mut out,
        );
        assert!(
            matches!(&unowned, Err(ClusterError::Protocol(m)) if m.contains("no child covers")),
            "{unowned:?}"
        );
        assert!(out.is_empty(), "a rejected envelope sends nothing");
        // …and the parent-down close cascades Close to every child.
        relay.on_disconnect(1, &mut out).unwrap();
        assert!(!relay.done(), "child uplink still open");
        assert_eq!(
            out.iter()
                .filter(|o| matches!(o, Outbound::Close { .. }))
                .count(),
            2
        );
        relay.on_disconnect(0, &mut Vec::new()).unwrap();
        assert!(relay.done());
        // A repeated close is not counted twice.
        relay.on_disconnect(0, &mut Vec::new()).unwrap();
        assert!(relay.done());
    }

    /// Pacing through the reactor: a paced local arms a timer instead of
    /// sleeping, and the windows still close in order.
    #[test]
    fn paced_local_arms_timers() {
        let shared = LocalShared::new(4);
        let close_times = crate::local::new_close_times();
        let stepper = LocalStepper::new(
            NodeId(0),
            vec![events(&[2, 1]), events(&[4, 3])],
            dema_engine(),
            &shared,
        );
        let mut role = LocalRole::new(NodeId(0), stepper, close_times, Some(50));
        // Window 0 is due immediately (0 · 50ms); window 1 is not.
        let mut out = Vec::new();
        role.on_wake(&mut out).unwrap();
        assert!(
            out.iter().any(|o| matches!(
                o,
                Outbound::Send {
                    via: 0,
                    msg: Message::SynopsisBatch {
                        window: WindowId(0),
                        ..
                    }
                }
            )),
            "window 0 closes on the first pump"
        );
        out.clear();
        role.on_wake(&mut out).unwrap();
        match out.as_slice() {
            [Outbound::Timer { token: 1, .. }] => {}
            other => panic!("expected a pacing timer for window 1, got {other:?}"),
        }
    }
}
