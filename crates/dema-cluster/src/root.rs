//! The root-node shell: engine-agnostic window bookkeeping.
//!
//! The shell owns what every engine shares — counting stream ends, turning
//! the engine's [`ResolvedWindow`]s into [`WindowOutcome`]s, and measuring
//! window-close → result latency. All protocol logic (which messages an
//! engine expects, when a window is done) lives behind the
//! [`crate::engines::RootEngine`] trait; see the modules under
//! `crate::engines` for the per-engine state machines.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dema_core::event::{NodeId, WindowId};
use dema_core::numeric::u64_to_usize;
use dema_core::quantile::Quantile;
use dema_metrics::LatencyHistogram;
use dema_net::MsgSender;
use dema_wire::Message;

use crate::config::{EngineKind, MembershipPlan};
use crate::engines::{self, ResilienceCtx, ResolvedWindow, RootEngine, RootParams};
use crate::local::CloseTimes;
use crate::membership::EpochLedger;
use crate::report::{EpochNodeTraffic, EpochStats, WindowOutcome};
use crate::ClusterError;

pub use crate::engines::dema::PIPELINE_DEPTH;

/// The local's `StreamEnd` arrived. A flag, so a duplicated `StreamEnd`
/// under fault injection cannot end the run early.
const ENDED: u8 = 1;
/// The engine declared the local dead (liveness / retry budget exhausted).
const DEAD: u8 = 1 << 1;
/// The leaver's `LeaveAnnounce` arrived; its drain is still gated on the
/// watermark reaching its boundary.
const LEAVE_ANNOUNCED: u8 = 1 << 2;
/// The local's drain handshake finished (`DrainComplete` sent). A drained
/// node is accounted for like an ended one, never chased by the liveness
/// machinery, and never declared dead.
const DRAINED: u8 = 1 << 3;
/// A local carrying any of these flags owes the run nothing more.
const SETTLED: u8 = ENDED | DEAD | DRAINED;

/// The root's per-local bookkeeping: one flag byte per node id, plus the
/// number of settled locals. The count is what keeps
/// [`RootNode::finished`] O(1) — the host asks it after every event — and
/// a local that collects several settling flags counts once.
struct NodeTable {
    flags: Vec<u8>,
    settled: usize,
}

impl NodeTable {
    fn new(n_locals: usize) -> NodeTable {
        NodeTable {
            flags: vec![0; n_locals],
            settled: 0,
        }
    }

    /// `true` when local `n` carries any of `flags`.
    fn any(&self, n: u32, flags: u8) -> bool {
        self.flags
            .get(u64_to_usize(u64::from(n)))
            .is_some_and(|f| f & flags != 0)
    }

    /// Set `flag` on local `n`; `Ok(true)` when it was not already set.
    ///
    /// # Errors
    /// A node id outside the run's locals is a protocol violation.
    fn set(&mut self, n: u32, flag: u8) -> Result<bool, ClusterError> {
        let n_locals = self.flags.len();
        let Some(f) = self.flags.get_mut(u64_to_usize(u64::from(n))) else {
            return Err(ClusterError::Protocol(format!(
                "{}: not one of the run's {n_locals} locals",
                NodeId(n)
            )));
        };
        if *f & flag != 0 {
            return Ok(false);
        }
        if *f & SETTLED == 0 && flag & SETTLED != 0 {
            self.settled += 1;
        }
        *f |= flag;
        Ok(true)
    }

    /// Node ids whose flags satisfy `keep`, ascending.
    fn ids<'a>(&'a self, keep: impl Fn(u8) -> bool + 'a) -> impl Iterator<Item = u32> + 'a {
        (0u32..)
            .zip(&self.flags)
            .filter(move |&(_, &f)| keep(f))
            .map(|(n, _)| n)
    }
}

/// The root node: an engine plugged into the shared shell.
pub struct RootNode {
    engine: Box<dyn RootEngine>,
    n_locals: usize,
    expected_windows: u64,
    outcomes: BTreeMap<u64, WindowOutcome>,
    close_times: CloseTimes,
    latency: LatencyHistogram,
    /// Where each local stands: ended, dead, announced to leave, drained.
    nodes: NodeTable,
    late_events: u64,
    /// Resilient runs: the request timeout, doubling as the quiescence
    /// threshold for `tick`. `None` on seed (fail-fast) runs.
    resilience_timeout: Option<Duration>,
    /// Last time `handle` saw any message — staleness beyond the timeout
    /// means the run is quiescent and outstanding windows need deadlines.
    last_progress: Instant,
    /// Whether a quiescent `tick` already ran for the current
    /// `last_progress` epoch. Once it has, every outstanding window and
    /// silent stream end holds a supervisor deadline, so `next_deadline`
    /// can rely on the engine alone instead of re-offering the (now past)
    /// quiescence instant every sweep.
    quiescent_ticked: bool,
    /// Reused scratch buffer for the engine's resolved windows.
    resolved: Vec<(WindowId, ResolvedWindow)>,
    /// The membership schedule: which locals contribute to which windows
    /// (trivial single-epoch ledger unless [`RootNode::with_membership`]
    /// installed a churn plan; DESIGN.md §14).
    ledger: Arc<EpochLedger>,
    /// Highest epoch whose `EpochSwitch` has been broadcast (0 = only the
    /// initial epoch is active).
    epoch_switched: u64,
    /// First window not yet finalized — every window below it has an
    /// outcome. Epoch switches and drains gate on this so a boundary only
    /// takes effect once the old epoch is fully resolved.
    watermark: u64,
    /// When each epoch's `EpochSwitch` broadcast went out.
    switch_instants: HashMap<u64, Instant>,
    /// When each epoch's first window finalized.
    first_finalize: HashMap<u64, Instant>,
    /// Windows finalized per epoch.
    epoch_windows: BTreeMap<u64, u64>,
    /// Degraded windows per epoch.
    epoch_degraded: BTreeMap<u64, u64>,
    /// Receive-side data-plane traffic per (epoch, node): window-keyed
    /// messages and their event units, keyed by the window's epoch. Being
    /// counted at the root's receive path makes the numbers identical
    /// across transports and thread counts.
    epoch_traffic: BTreeMap<(u64, u32), (u64, u64)>,
}

impl RootNode {
    /// Create a root for `n_locals` local nodes and `expected_windows`
    /// windows. `control[i]` is the root→local link of local `i` (empty for
    /// engines without a calculation step).
    pub fn new(
        quantile: Quantile,
        engine: EngineKind,
        n_locals: usize,
        expected_windows: u64,
        control: Vec<Box<dyn MsgSender>>,
        close_times: CloseTimes,
    ) -> RootNode {
        RootNode::with_extra_quantiles(
            quantile,
            Vec::new(),
            engine,
            n_locals,
            expected_windows,
            control,
            close_times,
            None,
            PIPELINE_DEPTH,
        )
    }

    /// [`RootNode::new`] with extra per-window quantiles answered from the
    /// same identification step (Dema engine only), an optional resilience
    /// context enabling retries and graceful degradation, and an explicit
    /// window-pipeline depth (see [`PIPELINE_DEPTH`] for the default).
    #[allow(clippy::too_many_arguments)]
    pub fn with_extra_quantiles(
        quantile: Quantile,
        extra_quantiles: Vec<Quantile>,
        engine: EngineKind,
        n_locals: usize,
        expected_windows: u64,
        control: Vec<Box<dyn MsgSender>>,
        close_times: CloseTimes,
        resilience: Option<ResilienceCtx>,
        pipeline_depth: usize,
    ) -> RootNode {
        let resilience_timeout = resilience
            .as_ref()
            .map(|r| Duration::from_millis(r.config.request_timeout_ms));
        let engine = engines::build_root(
            engine,
            RootParams {
                quantile,
                extra_quantiles,
                n_locals,
                control,
                resilience,
                pipeline_depth,
            },
        );
        RootNode {
            engine,
            n_locals,
            expected_windows,
            outcomes: BTreeMap::new(),
            close_times,
            latency: LatencyHistogram::new(),
            nodes: NodeTable::new(n_locals),
            late_events: 0,
            resilience_timeout,
            last_progress: Instant::now(),
            quiescent_ticked: false,
            resolved: Vec::new(),
            ledger: Arc::new(EpochLedger::trivial(n_locals)),
            epoch_switched: 0,
            watermark: 0,
            switch_instants: HashMap::new(),
            first_finalize: HashMap::new(),
            epoch_windows: BTreeMap::new(),
            epoch_degraded: BTreeMap::new(),
            epoch_traffic: BTreeMap::new(),
        }
    }

    /// Install a membership churn plan: windows are computed under the
    /// epochs it describes, joins are admitted and leavers drained at the
    /// planned boundaries. `n_locals` must count every node id the plan
    /// ever names (epoch-0 members and joiners alike).
    pub fn with_membership(mut self, plan: &MembershipPlan) -> Result<RootNode, ClusterError> {
        let ledger = Arc::new(EpochLedger::from_plan(self.n_locals, plan)?);
        self.engine.set_membership(Arc::clone(&ledger));
        self.ledger = ledger;
        Ok(self)
    }

    /// `true` once every window is finalized and every local has either
    /// ended its stream, drained away cleanly, or been declared dead.
    /// O(1), because the host calls it after every event.
    pub fn finished(&self) -> bool {
        self.outcomes.len() as u64 == self.expected_windows && self.nodes.settled == self.n_locals
    }

    /// Windows finalized so far.
    pub fn completed_windows(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// Consume the root, yielding outcomes in window order plus the latency
    /// histogram.
    pub fn into_results(self) -> (Vec<WindowOutcome>, LatencyHistogram) {
        (self.outcomes.into_values().collect(), self.latency)
    }

    /// Late events reported by the locals' stream-end messages.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Locals the engine has declared dead so far (resilient runs), in
    /// node order. The interleaving explorer reads this to decide whether
    /// a missing reply was legitimized by a death verdict.
    pub fn dead_nodes(&self) -> Vec<u32> {
        self.nodes.ids(|f| f & DEAD != 0).collect()
    }

    /// Locals whose drain handshake finished, in node order. Disjoint from
    /// [`RootNode::dead_nodes`]: a drained node is a planned departure,
    /// not a failure.
    pub fn drained_nodes(&self) -> Vec<u32> {
        self.nodes.ids(|f| f & DRAINED != 0).collect()
    }

    /// Per-epoch accounting for the run report, epoch order (a single
    /// entry when no membership plan was installed).
    pub fn epoch_stats(&self) -> Vec<EpochStats> {
        self.ledger
            .epochs()
            .iter()
            .map(|info| {
                let switch_latency_us = match (
                    self.switch_instants.get(&info.epoch),
                    self.first_finalize.get(&info.epoch),
                ) {
                    (Some(s), Some(f)) if f > s => f.duration_since(*s).as_micros() as u64,
                    _ => 0,
                };
                EpochStats {
                    epoch: info.epoch,
                    first_window: info.first_window,
                    members: info.members.clone(),
                    joined: info.joined.clone(),
                    left: info.left.clone(),
                    handoffs: (info.joined.len() + info.left.len()) as u64,
                    windows_completed: self.epoch_windows.get(&info.epoch).copied().unwrap_or(0),
                    degraded_windows: self.epoch_degraded.get(&info.epoch).copied().unwrap_or(0),
                    switch_latency_us,
                    per_node: info
                        .members
                        .iter()
                        .map(|&n| {
                            let (messages, events) = self
                                .epoch_traffic
                                .get(&(info.epoch, n))
                                .copied()
                                .unwrap_or((0, 0));
                            EpochNodeTraffic {
                                node: n,
                                messages,
                                events,
                            }
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// Process one message from a local node.
    pub fn handle(&mut self, msg: Message) -> Result<(), ClusterError> {
        self.last_progress = Instant::now();
        self.quiescent_ticked = false;
        match msg {
            Message::StreamEnd { node, late_events } => {
                if self.nodes.set(node.0, ENDED)? {
                    self.late_events += late_events;
                }
                return self.sweep_membership();
            }
            Message::JoinRequest { node, window } => {
                let planned = self.ledger.join_window(node.0);
                if planned == 0 || planned != window.0 {
                    return Err(ClusterError::Protocol(format!(
                        "{node}: unplanned join at {window}"
                    )));
                }
                // Joins are staged in the plan, so the accept is pure
                // acknowledgement plus the live γ — the joiner streams its
                // first window without waiting for it.
                let accept = Message::JoinAccept {
                    node,
                    epoch: self.ledger.epoch_of(window.0),
                    window,
                    gamma: self.engine.current_gamma(),
                };
                if !self.engine.send_control(node.0, &accept)? {
                    return Err(ClusterError::Protocol(format!(
                        "{node}: join on an engine without a control plane"
                    )));
                }
                return Ok(());
            }
            Message::LeaveAnnounce { node, window } => {
                if self.ledger.leave_window(node.0) != Some(window.0) {
                    return Err(ClusterError::Protocol(format!(
                        "{node}: unplanned leave at {window}"
                    )));
                }
                self.nodes.set(node.0, LEAVE_ANNOUNCED)?;
                return self.sweep_membership();
            }
            _ => {}
        }
        self.attribute_traffic(&msg);
        let mut resolved = std::mem::take(&mut self.resolved);
        let result = self.engine.on_message(msg, &mut resolved);
        for (window, r) in resolved.drain(..) {
            self.finalize(window, r);
        }
        self.resolved = resolved;
        result?;
        self.sweep_membership()
    }

    /// Charge one window-keyed data-plane message to its sender's account
    /// in the window's epoch. Control traffic (stream ends, membership
    /// handshakes, retries) is deliberately excluded: the per-epoch figures
    /// compare a node's *contribution*, not the fault layer's chatter.
    fn attribute_traffic(&mut self, msg: &Message) {
        let Some((node, window)) = msg.data_source() else {
            return;
        };
        let (node, window) = (node.0, window.0);
        let epoch = self.ledger.epoch_of(window);
        let slot = self.epoch_traffic.entry((epoch, node)).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += msg.event_units();
    }

    /// Advance the membership schedule: broadcast `EpochSwitch` for every
    /// boundary the watermark has crossed, then complete the drain of any
    /// announced leaver whose windows are all finalized. Idempotent; runs
    /// after every message and tick.
    fn sweep_membership(&mut self) -> Result<(), ClusterError> {
        if self.ledger.is_trivial() {
            return Ok(());
        }
        while self.epoch_switched + 1 < self.ledger.n_epochs() as u64 {
            let next = self.epoch_switched + 1;
            let Some(info) = self.ledger.info(next) else {
                break; // unreachable: the ledger's epochs are dense
            };
            if self.watermark < info.first_window {
                break;
            }
            let msg = Message::EpochSwitch {
                epoch: next,
                window: WindowId(info.first_window),
                joined: info.joined.iter().copied().map(NodeId).collect(),
                left: info.left.iter().copied().map(NodeId).collect(),
            };
            for &n in &info.members {
                if !self.engine.send_control(n, &msg)? {
                    return Err(ClusterError::Protocol(
                        "membership churn on an engine without a control plane".into(),
                    ));
                }
            }
            self.engine.on_epoch_switch(next);
            self.switch_instants.insert(next, Instant::now());
            self.epoch_switched = next;
        }
        for e in 1..=self.epoch_switched {
            let Some(info) = self.ledger.info(e) else {
                continue; // unreachable: the ledger's epochs are dense
            };
            for &n in &info.left {
                if self.nodes.any(n, DRAINED | DEAD) || !self.nodes.any(n, LEAVE_ANNOUNCED) {
                    continue;
                }
                // Every window the leaver owed is below the boundary, and
                // the watermark gate above put all of them behind us — its
                // SentCache has nothing left to replay.
                let done = Message::DrainComplete {
                    node: NodeId(n),
                    epoch: e - 1,
                };
                if !self.engine.send_control(n, &done)? {
                    return Err(ClusterError::Protocol(
                        "membership churn on an engine without a control plane".into(),
                    ));
                }
                self.nodes.set(n, DRAINED)?;
                self.engine.on_node_drained(NodeId(n));
            }
        }
        Ok(())
    }

    /// Drive the engine's retry / liveness machinery. A no-op on seed runs;
    /// on resilient runs the driver calls this once per receive sweep.
    ///
    /// Quiescence (no message for a full request timeout) arms deadlines
    /// for *every* outstanding window and silent stream end, so even a
    /// window whose messages were all dropped eventually gets NACKed or
    /// degraded instead of wedging the run.
    pub fn tick(&mut self) -> Result<(), ClusterError> {
        let Some(timeout) = self.resilience_timeout else {
            return Ok(());
        };
        let quiescent = self.last_progress.elapsed() >= timeout;
        self.quiescent_ticked |= quiescent;
        // A drained node owes nothing; an announced leaver still owes its
        // end-of-stream obligation (the END_KEY retry path re-fetches a
        // lost LeaveAnnounce from its SentCache).
        let missing_enders: Vec<u32> = self.nodes.ids(|f| f & SETTLED == 0).collect();
        let mut resolved = std::mem::take(&mut self.resolved);
        let result = self.engine.on_tick(
            self.expected_windows,
            quiescent,
            &missing_enders,
            &mut resolved,
        );
        for (window, r) in resolved.drain(..) {
            self.finalize(window, r);
        }
        self.resolved = resolved;
        for node in result? {
            self.nodes.set(node.0, DEAD)?;
        }
        self.sweep_membership()
    }

    /// The next instant [`RootNode::tick`] needs to run: the earlier of
    /// the quiescence threshold (arming deadlines for fully-dropped
    /// windows) and the engine supervisor's earliest retry deadline.
    /// `None` on seed runs — tick is a no-op there, so the reactor arms
    /// no timer at all and the hot path stays timer-free (DESIGN.md §13).
    ///
    /// Once a quiescent tick has run for the current progress epoch, the
    /// quiescence instant is in the past and arming from it again would
    /// make the reactor fire an immediate timer every sweep; the engine's
    /// own deadlines cover all remaining work, so only those are offered.
    pub fn next_deadline(&self) -> Option<Instant> {
        let timeout = self.resilience_timeout?;
        if self.quiescent_ticked {
            return self.engine.next_deadline();
        }
        let quiescence = self
            .last_progress
            .checked_add(timeout)
            .unwrap_or(self.last_progress);
        Some(match self.engine.next_deadline() {
            Some(engine_due) => engine_due.min(quiescence),
            None => quiescence,
        })
    }

    /// Record the outcome of `window` and its latency.
    fn finalize(&mut self, window: WindowId, r: ResolvedWindow) {
        let now = Instant::now();
        let latency_us = {
            let mut times = self.close_times.lock();
            let mut latest: Option<Instant> = None;
            for n in 0..self.n_locals as u32 {
                if let Some(t) = times.remove(&(n, window.0)) {
                    latest = Some(latest.map_or(t, |l| l.max(t)));
                }
            }
            latest.map_or(0, |t| now.duration_since(t).as_micros() as u64)
        };
        self.latency.record(latency_us);
        let epoch = self.ledger.epoch_of(window.0);
        *self.epoch_windows.entry(epoch).or_insert(0) += 1;
        if r.degraded.is_some() {
            *self.epoch_degraded.entry(epoch).or_insert(0) += 1;
        }
        self.first_finalize.entry(epoch).or_insert(now);
        self.outcomes.insert(
            window.0,
            WindowOutcome {
                window,
                value: r.value,
                extra_values: r.extra_values,
                total_events: r.total_events,
                latency_us,
                candidate_events: r.candidate_events,
                candidate_slices: r.candidate_slices,
                synopses: r.synopses,
                gamma: r.gamma,
                epoch,
                degraded: r.degraded,
            },
        );
        while self.outcomes.contains_key(&self.watermark) {
            self.watermark += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GammaMode;
    use dema_core::event::{Event, NodeId};
    use dema_core::shared::SharedRun;
    use dema_core::slice::Slice;
    use dema_core::DemaError;
    use dema_metrics::NetworkCounters;
    use dema_net::mem::link;
    use dema_net::MsgReceiver;
    use std::collections::HashMap;

    fn close_times() -> CloseTimes {
        crate::local::new_close_times()
    }

    fn events(vals: &[i64]) -> Vec<Event> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| Event::new(v, 0, i as u64))
            .collect()
    }

    #[test]
    fn centralized_root_sorts_and_answers() {
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::Centralized,
            2,
            1,
            vec![],
            close_times(),
        );
        root.handle(Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: false,
            events: events(&[9, 1, 5]),
        })
        .unwrap();
        assert_eq!(root.completed_windows(), 0);
        root.handle(Message::EventBatch {
            node: NodeId(1),
            window: WindowId(0),
            sorted: false,
            events: events(&[2, 8]),
        })
        .unwrap();
        root.handle(Message::StreamEnd {
            node: NodeId(0),
            late_events: 0,
        })
        .unwrap();
        root.handle(Message::StreamEnd {
            node: NodeId(1),
            late_events: 3,
        })
        .unwrap();
        assert_eq!(root.late_events(), 3);
        assert!(root.finished());
        let (outcomes, _) = root.into_results();
        assert_eq!(outcomes[0].value, Some(5)); // rank 3 of [1,2,5,8,9]
        assert_eq!(outcomes[0].total_events, 5);
    }

    #[test]
    fn decsort_root_merges_sorted_runs() {
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::DecSort,
            2,
            1,
            vec![],
            close_times(),
        );
        root.handle(Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: true,
            events: events(&[1, 5, 9]),
        })
        .unwrap();
        root.handle(Message::EventBatch {
            node: NodeId(1),
            window: WindowId(0),
            sorted: true,
            events: events(&[2, 8]),
        })
        .unwrap();
        let (outcomes, _) = root.into_results();
        assert_eq!(outcomes[0].value, Some(5));
    }

    #[test]
    fn dema_root_full_protocol() {
        // Control link to one local; we play the local manually.
        let (ctl_tx, mut ctl_rx) = link(NetworkCounters::new_shared());
        let (ctl_tx2, mut ctl_rx2) = link(NetworkCounters::new_shared());
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::Dema {
                gamma: GammaMode::Fixed(2),
                strategy: dema_core::selector::SelectionStrategy::WindowCut,
            },
            2,
            1,
            vec![Box::new(ctl_tx), Box::new(ctl_tx2)],
            close_times(),
        );
        // Build local windows: node 0 has [0..10), node 1 has [10..20).
        let node0 = dema_core::slice::cut_into_slices(
            NodeId(0),
            WindowId(0),
            events(&(0..10).collect::<Vec<i64>>()),
            5,
        )
        .unwrap();
        let node1 = dema_core::slice::cut_into_slices(
            NodeId(1),
            WindowId(0),
            events(&(10..20).collect::<Vec<i64>>()),
            5,
        )
        .unwrap();
        let syn = |slices: &[dema_core::slice::Slice]| {
            slices
                .iter()
                .map(|s| s.synopsis(slices.len() as u32).unwrap())
                .collect::<Vec<_>>()
        };
        root.handle(Message::SynopsisBatch {
            node: NodeId(0),
            window: WindowId(0),
            synopses: syn(&node0),
        })
        .unwrap();
        root.handle(Message::SynopsisBatch {
            node: NodeId(1),
            window: WindowId(0),
            synopses: syn(&node1),
        })
        .unwrap();
        // Median rank 10 lies in node 0's second slice [5..10).
        let req = ctl_rx.try_recv().unwrap().unwrap();
        let Message::CandidateRequest { window, slices } = req else {
            panic!("expected request, got {req:?}");
        };
        assert_eq!(window, WindowId(0));
        assert_eq!(slices, vec![1]);
        assert!(
            ctl_rx2.try_recv().unwrap().is_none(),
            "node 1 owns no candidates"
        );
        root.handle(Message::CandidateReply {
            node: NodeId(0),
            window: WindowId(0),
            slices: vec![(1, node0[1].events.clone())],
        })
        .unwrap();
        assert_eq!(root.completed_windows(), 1);
        let (outcomes, _) = root.into_results();
        assert_eq!(outcomes[0].value, Some(9)); // rank 10 of 0..20
        assert_eq!(outcomes[0].candidate_events, 5);
        assert_eq!(outcomes[0].candidate_slices, 1);
        assert_eq!(outcomes[0].synopses, 4);
        assert_eq!(outcomes[0].gamma, 2);
    }

    #[test]
    fn tdigest_central_root_is_approximate_but_close() {
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::TdigestCentral { compression: 100.0 },
            1,
            1,
            vec![],
            close_times(),
        );
        let vals: Vec<i64> = (0..10_000).collect();
        root.handle(Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: false,
            events: events(&vals),
        })
        .unwrap();
        let (outcomes, _) = root.into_results();
        let v = outcomes[0].value.unwrap();
        assert!((v - 5000).abs() < 150, "tdigest median {v}");
    }

    #[test]
    fn kll_root_unions_weighted_items() {
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::KllDistributed { k: 64 },
            2,
            1,
            vec![],
            close_times(),
        );
        // Two "sketches" of unit-weight items: [0..4) and [4..8).
        root.handle(Message::SketchBatch {
            node: NodeId(0),
            window: WindowId(0),
            count: 4,
            min: 0.0,
            max: 3.0,
            items: (0..4).map(|i| (i as f64, 1)).collect(),
        })
        .unwrap();
        assert_eq!(root.completed_windows(), 0);
        root.handle(Message::SketchBatch {
            node: NodeId(1),
            window: WindowId(0),
            count: 4,
            min: 4.0,
            max: 7.0,
            items: (4..8).map(|i| (i as f64, 1)).collect(),
        })
        .unwrap();
        let (outcomes, _) = root.into_results();
        // Rank 4 of 0..8 is value 3 (unit weights make the union exact).
        assert_eq!(outcomes[0].value, Some(3));
        assert_eq!(outcomes[0].total_events, 8);
    }

    #[test]
    fn kll_root_rejects_weight_drift() {
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::KllDistributed { k: 64 },
            1,
            1,
            vec![],
            close_times(),
        );
        let err = root
            .handle(Message::SketchBatch {
                node: NodeId(0),
                window: WindowId(0),
                count: 5,
                min: 0.0,
                max: 1.0,
                items: vec![(0.0, 1), (1.0, 1)],
            })
            .unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn corrupt_candidate_reply_is_rejected() {
        let (ctl_tx, mut ctl_rx) = link(NetworkCounters::new_shared());
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::Dema {
                gamma: GammaMode::Fixed(4),
                strategy: dema_core::selector::SelectionStrategy::WindowCut,
            },
            1,
            1,
            vec![Box::new(ctl_tx)],
            close_times(),
        );
        let slices = dema_core::slice::cut_into_slices(
            NodeId(0),
            WindowId(0),
            events(&(0..8).collect::<Vec<i64>>()),
            4,
        )
        .unwrap();
        root.handle(Message::SynopsisBatch {
            node: NodeId(0),
            window: WindowId(0),
            synopses: slices.iter().map(|s| s.synopsis(2).unwrap()).collect(),
        })
        .unwrap();
        let _ = ctl_rx.try_recv().unwrap().unwrap();
        // Tamper: send the wrong events for the requested slice.
        let err = root
            .handle(Message::CandidateReply {
                node: NodeId(0),
                window: WindowId(0),
                slices: vec![(0, events(&[42, 43, 44, 45]).into())],
            })
            .unwrap_err();
        assert!(
            matches!(err, ClusterError::Core(DemaError::CorruptCandidate(_))),
            "{err:?}"
        );
    }

    #[test]
    fn empty_global_window_finalizes_none() {
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::Dema {
                gamma: GammaMode::Fixed(4),
                strategy: dema_core::selector::SelectionStrategy::WindowCut,
            },
            1,
            1,
            vec![],
            close_times(),
        );
        root.handle(Message::SynopsisBatch {
            node: NodeId(0),
            window: WindowId(0),
            synopses: vec![],
        })
        .unwrap();
        let (outcomes, _) = root.into_results();
        assert_eq!(outcomes[0].value, None);
        assert_eq!(outcomes[0].total_events, 0);
    }

    #[test]
    fn pipeline_bounds_outstanding_candidate_requests() {
        // One local, four windows delivered all at once into an explicit
        // depth-2 pipeline: the root must fire requests for only two
        // windows, queue the rest (already ingested and ordered), and admit
        // them as replies free slots. An empty window (2) must pass through
        // without wedging a slot. Constructing with an explicit depth also
        // pins the configurability: the default is deeper (PIPELINE_DEPTH),
        // so this test would see a third request if the override leaked.
        let (ctl_tx, mut ctl_rx) = link(NetworkCounters::new_shared());
        const { assert!(PIPELINE_DEPTH > 2, "test relies on overriding the default") };
        let mut root = RootNode::with_extra_quantiles(
            Quantile::MEDIAN,
            Vec::new(),
            EngineKind::Dema {
                gamma: GammaMode::Fixed(2),
                strategy: dema_core::selector::SelectionStrategy::WindowCut,
            },
            1,
            4,
            vec![Box::new(ctl_tx)],
            close_times(),
            None,
            2,
        );
        let mut windows: HashMap<u64, Vec<Slice>> = HashMap::new();
        for w in 0u64..4 {
            if w == 2 {
                // Window 2 arrives empty.
                root.handle(Message::SynopsisBatch {
                    node: NodeId(0),
                    window: WindowId(2),
                    synopses: vec![],
                })
                .unwrap();
                continue;
            }
            let vals: Vec<i64> = (0..6).map(|i| w as i64 * 10 + i).collect();
            let slices =
                dema_core::slice::cut_into_slices(NodeId(0), WindowId(w), events(&vals), 2)
                    .unwrap();
            let synopses = slices
                .iter()
                .map(|s| s.synopsis(slices.len() as u32).unwrap())
                .collect();
            windows.insert(w, slices);
            root.handle(Message::SynopsisBatch {
                node: NodeId(0),
                window: WindowId(w),
                synopses,
            })
            .unwrap();
        }
        // Slots are full: nothing finalized yet, windows 2 and 3 queued.
        assert_eq!(root.completed_windows(), 0);

        let next_request =
            |rx: &mut dema_net::mem::MemReceiver| match rx.try_recv().unwrap().unwrap() {
                Message::CandidateRequest { window, slices } => (window.0, slices),
                other => panic!("expected request, got {other:?}"),
            };
        let reply =
            |root: &mut RootNode, windows: &HashMap<u64, Vec<Slice>>, w: u64, req: &[u32]| {
                let slices = req
                    .iter()
                    .map(|&i| (i, windows[&w][i as usize].events.clone()))
                    .collect();
                root.handle(Message::CandidateReply {
                    node: NodeId(0),
                    window: WindowId(w),
                    slices,
                })
                .unwrap();
            };

        // Only the first two windows hold stage-2 slots.
        let (w0, req0) = next_request(&mut ctl_rx);
        let (w1, req1) = next_request(&mut ctl_rx);
        assert_eq!((w0, w1), (0, 1));
        assert!(
            ctl_rx.try_recv().unwrap().is_none(),
            "window 3 must wait for a free slot"
        );
        // Resolving window 0 admits window 2 — empty, finalized on the spot
        // without taking a slot — and then window 3 into the freed slot.
        reply(&mut root, &windows, 0, &req0);
        assert_eq!(root.completed_windows(), 2);
        let (w3, req3) = next_request(&mut ctl_rx);
        assert_eq!(w3, 3);
        reply(&mut root, &windows, 1, &req1);
        reply(&mut root, &windows, 3, &req3);
        assert_eq!(root.completed_windows(), 4);
        let (outcomes, _) = root.into_results();
        // Median rank 3 of w*10 + [0..6) is w*10 + 2.
        assert_eq!(
            outcomes.iter().map(|o| o.value).collect::<Vec<_>>(),
            vec![Some(2), Some(12), None, Some(32)]
        );
    }

    #[test]
    fn adaptive_gamma_broadcasts_updates() {
        let (ctl_tx, mut ctl_rx) = link(NetworkCounters::new_shared());
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::Dema {
                gamma: GammaMode::Adaptive { initial: 4 },
                strategy: dema_core::selector::SelectionStrategy::WindowCut,
            },
            1,
            1,
            vec![Box::new(ctl_tx)],
            close_times(),
        );
        let slices = dema_core::slice::cut_into_slices(
            NodeId(0),
            WindowId(0),
            events(&(0..1000).collect::<Vec<i64>>()),
            4,
        )
        .unwrap();
        root.handle(Message::SynopsisBatch {
            node: NodeId(0),
            window: WindowId(0),
            synopses: slices
                .iter()
                .map(|s| s.synopsis(slices.len() as u32).unwrap())
                .collect(),
        })
        .unwrap();
        let Message::CandidateRequest { slices: req, .. } = ctl_rx.try_recv().unwrap().unwrap()
        else {
            panic!()
        };
        let reply: Vec<(u32, SharedRun)> = req
            .iter()
            .map(|&i| (i, slices[i as usize].events.clone()))
            .collect();
        root.handle(Message::CandidateReply {
            node: NodeId(0),
            window: WindowId(0),
            slices: reply,
        })
        .unwrap();
        // γ* = sqrt(2*1000/1) ≈ 45 ≠ 4 → update broadcast.
        match ctl_rx.try_recv().unwrap().unwrap() {
            Message::GammaUpdate { gamma } => {
                assert_eq!(gamma, dema_core::gamma::optimal_gamma(1000, 1))
            }
            other => panic!("{other:?}"),
        }
    }

    fn centralized_root(n_locals: usize, windows: u64) -> RootNode {
        RootNode::new(
            Quantile::MEDIAN,
            EngineKind::Centralized,
            n_locals,
            windows,
            vec![],
            close_times(),
        )
    }

    fn batch(node: u32, window: u64) -> Message {
        Message::EventBatch {
            node: NodeId(node),
            window: WindowId(window),
            sorted: false,
            events: events(&[i64::from(node)]),
        }
    }

    fn stream_end(node: u32, late_events: u64) -> Message {
        Message::StreamEnd {
            node: NodeId(node),
            late_events,
        }
    }

    #[test]
    fn finished_needs_every_window_and_every_local() {
        // Locals settle first, windows last…
        let mut root = centralized_root(2, 1);
        root.handle(stream_end(0, 0)).unwrap();
        root.handle(stream_end(1, 0)).unwrap();
        assert!(!root.finished(), "window 0 is not finalized");
        root.handle(batch(0, 0)).unwrap();
        assert!(!root.finished());
        root.handle(batch(1, 0)).unwrap();
        assert!(root.finished());
        // …and windows first, locals last.
        let mut root = centralized_root(2, 1);
        root.handle(batch(0, 0)).unwrap();
        root.handle(batch(1, 0)).unwrap();
        root.handle(stream_end(1, 0)).unwrap();
        assert!(!root.finished(), "local 0 has not ended");
        root.handle(stream_end(0, 0)).unwrap();
        assert!(root.finished());
    }

    #[test]
    fn duplicate_stream_end_counts_once() {
        let mut root = centralized_root(2, 1);
        root.handle(batch(0, 0)).unwrap();
        root.handle(batch(1, 0)).unwrap();
        root.handle(stream_end(0, 3)).unwrap();
        root.handle(stream_end(0, 3)).unwrap();
        assert_eq!(
            root.late_events(),
            3,
            "the duplicate's late events are dropped"
        );
        assert!(
            !root.finished(),
            "a duplicate must not stand in for local 1"
        );
        root.handle(stream_end(1, 0)).unwrap();
        assert!(root.finished());
    }

    #[test]
    fn out_of_range_stream_end_is_a_protocol_error() {
        let mut root = centralized_root(2, 1);
        for node in [2, u32::MAX] {
            let err = root.handle(stream_end(node, 1)).unwrap_err();
            assert!(matches!(err, ClusterError::Protocol(_)), "{err:?}");
        }
        assert_eq!(root.late_events(), 0);
        root.handle(batch(0, 0)).unwrap();
        root.handle(batch(1, 0)).unwrap();
        root.handle(stream_end(0, 0)).unwrap();
        assert!(
            !root.finished(),
            "stray ids must not count toward the locals"
        );
    }

    /// Two leavers drain (announcing out of id order), then send their
    /// `StreamEnd` sign-off: each is settled once, by the drain.
    #[test]
    fn drained_leaver_sign_off_counts_once() {
        use crate::config::{MembershipChange, MembershipPlan};
        let (control, mut ctl_rx): (Vec<Box<dyn MsgSender>>, Vec<_>) = (0..3)
            .map(|_| link(NetworkCounters::new_shared()))
            .map(|(tx, rx)| (Box::new(tx) as Box<dyn MsgSender>, rx))
            .unzip();
        let mut root = RootNode::new(
            Quantile::MEDIAN,
            EngineKind::Dema {
                gamma: GammaMode::Fixed(2),
                strategy: dema_core::selector::SelectionStrategy::WindowCut,
            },
            3,
            2,
            control,
            close_times(),
        )
        .with_membership(&MembershipPlan {
            changes: vec![MembershipChange {
                window: 1,
                joins: vec![],
                leaves: vec![1, 2],
            }],
        })
        .unwrap();
        let empty = |node: u32, window: u64| Message::SynopsisBatch {
            node: NodeId(node),
            window: WindowId(window),
            synopses: vec![],
        };
        for node in 0..3 {
            root.handle(empty(node, 0)).unwrap();
        }
        assert_eq!(root.completed_windows(), 1);
        for node in [2, 1] {
            root.handle(Message::LeaveAnnounce {
                node: NodeId(node),
                window: WindowId(1),
            })
            .unwrap();
        }
        assert_eq!(
            root.drained_nodes(),
            vec![1, 2],
            "ascending, not arrival order"
        );
        for rx in &mut ctl_rx[1..] {
            assert!(matches!(
                rx.try_recv().unwrap().unwrap(),
                Message::DrainComplete { .. }
            ));
        }
        root.handle(stream_end(2, 0)).unwrap();
        root.handle(stream_end(1, 0)).unwrap();
        root.handle(empty(0, 1)).unwrap();
        assert_eq!(root.completed_windows(), 2);
        assert!(
            !root.finished(),
            "the sign-offs must not stand in for local 0"
        );
        root.handle(stream_end(0, 0)).unwrap();
        assert!(root.finished());
        assert_eq!(root.dead_nodes(), Vec::<u32>::new());
    }

    /// Locals 0 and 2 go silent and are declared dead; local 2's
    /// `StreamEnd` then arrives late and must not count it a second time.
    #[test]
    fn dead_local_late_stream_end_counts_once() {
        use crate::config::Resilience;
        use dema_metrics::FaultCounters;
        let mut root = RootNode::with_extra_quantiles(
            Quantile::MEDIAN,
            Vec::new(),
            EngineKind::Centralized,
            3,
            1,
            vec![],
            close_times(),
            Some(ResilienceCtx {
                config: Resilience {
                    request_timeout_ms: 1,
                    max_retries: 0,
                    liveness_k: 1,
                    seed: 7,
                },
                counters: FaultCounters::new_shared(),
            }),
            PIPELINE_DEPTH,
        );
        root.handle(batch(1, 0)).unwrap();
        root.handle(stream_end(1, 0)).unwrap();
        // The first tick finds the run quiescent and arms deadlines one
        // timeout out; the second finds them expired. Sleeping past the
        // timeout fixes the outcome regardless of scheduling.
        for _ in 0..2 {
            std::thread::sleep(std::time::Duration::from_millis(2));
            root.tick().unwrap();
        }
        assert_eq!(root.dead_nodes(), vec![0, 2]);
        assert!(root.finished(), "window 0 completes from the survivor");
        root.handle(stream_end(2, 4)).unwrap();
        assert_eq!(root.late_events(), 4);
        assert!(root.finished(), "local 2 stays counted exactly once");
    }
}
