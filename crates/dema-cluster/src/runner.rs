//! Orchestration: build the topology, host the node roles on reactor
//! shards, drive the root on its own reactor, collect the report.
//!
//! Wiring is engine-agnostic: everything engine-specific the runner needs
//! (does the engine have a control plane? what γ do locals start with? is
//! the configuration valid?) comes from the engine registry in
//! [`crate::engines`]. The overlay between leaves and root is either the
//! flat star of the paper's experiments or a multi-level aggregation tree
//! of relay nodes ([`Topology::Tree`]), with per-tier traffic attribution
//! in [`crate::report::TierTraffic`].
//!
//! Concurrency model (DESIGN.md §13): instead of one thread per node, the
//! runner spawns `threads` reactor shards and hash-assigns each local node
//! (with its responder) and each relay to a shard by id. Every shard is a
//! single [`dema_net::reactor::Reactor`] event loop hosting its bucket of
//! [`crate::host`] roles; the caller's thread hosts the root the same way.
//! A run at `threads = 1000-node scale` therefore costs `threads + 1`
//! OS threads, not `2·nodes + relays`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dema_core::event::{Event, NodeId};
use dema_core::sync::{rank, Mutex};
use dema_metrics::{FaultCounters, NetworkCounters, NetworkSnapshot, ReactorStats};
use dema_net::fault::FaultPlan;
use dema_net::mem::{link, throttled_link, Throttle};
use dema_net::reactor::{spawn_shard, Handler, Reactor};
use dema_net::tcp::{accept, listen, TcpSender};
use dema_net::{MsgReceiver, MsgSender, NetError, SharedCounters};

use crate::config::{ClusterConfig, EngineKind, Topology, TransportKind};
use crate::engines::{self, ResilienceCtx};
use crate::host::{LocalRole, ResponderRole, RoleHost, RootRole, Stepper};
use crate::local::{stream_windows, CloseTimes, LocalShared, LocalStepper};
use crate::membership::EpochLedger;
use crate::relay::{RelayChild, RelayChildRoute, RelayRole, RoutedSender};
use crate::report::{RunReport, TierTraffic, WireStats};
use crate::root::RootNode;
use crate::ClusterError;

/// How long a TCP link gets to complete its loopback handshake before the
/// run aborts with the underlying I/O error.
const TCP_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// One unidirectional wired link.
type Link = (Box<dyn MsgSender>, Box<dyn MsgReceiver>);

/// Interpose a fault-injecting wrapper when the plan actually perturbs
/// anything; transparent plans (and no plan) keep the bare sender.
fn wrap_faulty(
    tx: Box<dyn MsgSender>,
    plan: Option<&FaultPlan>,
    counters: &SharedCounters,
) -> Box<dyn MsgSender> {
    match plan {
        Some(p) if !p.is_transparent() => {
            Box::new(p.clone().wrap(tx, SharedCounters::clone(counters)))
        }
        _ => tx,
    }
}

/// Build a link of the configured transport whose traffic lands in
/// `counters`. `throttle` carries the sending node's simulated link for
/// [`TransportKind::Throttled`].
fn make_link(
    kind: TransportKind,
    counters: SharedCounters,
    throttle: Option<&std::sync::Arc<Throttle>>,
) -> Result<Link, ClusterError> {
    match kind {
        TransportKind::Mem => {
            let (tx, rx) = link(counters);
            Ok((Box::new(tx), Box::new(rx)))
        }
        TransportKind::Throttled { .. } => {
            let throttle = throttle.ok_or_else(|| {
                ClusterError::Protocol("throttled transport needs a link throttle".into())
            })?;
            let (tx, rx) = throttled_link(counters, std::sync::Arc::clone(throttle));
            Ok((Box::new(tx), Box::new(rx)))
        }
        TransportKind::Tcp => {
            let addr = "127.0.0.1:0"
                .parse()
                .map_err(|e| ClusterError::Protocol(format!("loopback addr: {e}")))?;
            let listener = listen(addr)?;
            let addr = listener.local_addr().map_err(NetError::Io)?;
            // Loopback connects complete against the listener's backlog, so
            // connect-then-accept cannot deadlock; a bounded connect keeps a
            // broken environment from hanging the run and surfaces the real
            // I/O error instead of a thread panic.
            let tx = TcpSender::connect_timeout(addr, counters, TCP_CONNECT_TIMEOUT)?;
            let receiver = accept(&listener)?;
            // Reactor-hosted endpoints must never block the shard: convert
            // both sides to nonblocking mode up front. Partial writes park
            // in the sender's outbound buffer and drain on writability
            // retries (`MsgSender::flush_pending`).
            Ok((
                Box::new(tx.into_nonblocking()?),
                Box::new(receiver.into_nonblocking()?),
            ))
        }
    }
}

/// The per-node work a cluster run executes.
enum NodeWork {
    /// Pre-windowed inputs: element `w` is window `w`'s event set.
    Windowed(Vec<Vec<Event>>),
    /// Raw event-time stream, windowed on the node by watermarks.
    Streaming {
        /// This node's events (roughly time-ordered; out-of-orderness beyond
        /// the lateness bound is dropped and counted).
        events: Vec<Event>,
        /// Tumbling window length (ms).
        window_len: u64,
        /// Global `(first, last)` absolute window ids all nodes report.
        range: (u64, u64),
        /// Watermark slack (ms).
        lateness: u64,
    },
}

/// A wired subtree as seen by its parent-to-be: the uplink receivers the
/// parent drains, the downlink sender the parent feeds (if the engine has a
/// control plane), and the leaf id range the subtree covers.
struct ChildHandle {
    ups: Vec<Box<dyn MsgReceiver>>,
    ctl: Option<Box<dyn MsgSender>>,
    range: (u32, u32),
    leaf: bool,
}

/// Run one cluster experiment over pre-windowed inputs.
///
/// `inputs[n][w]` holds the events of local node `n` for window `w`; every
/// node must provide the same number of windows (align with
/// `take_windows`). Returns the full [`RunReport`].
///
/// # Errors
/// Any protocol, transport, or algorithm failure aborts the run.
pub fn run_cluster(
    config: &ClusterConfig,
    inputs: Vec<Vec<Vec<Event>>>,
) -> Result<RunReport, ClusterError> {
    let n_locals = inputs.len();
    assert!(n_locals > 0, "need at least one local node");
    let windows = inputs[0].len();
    assert!(
        inputs.iter().all(|w| w.len() == windows),
        "all local nodes must cover the same window range"
    );
    let total_events: u64 = inputs.iter().flatten().map(|w| w.len() as u64).sum();
    run_cluster_inner(
        config,
        inputs.into_iter().map(NodeWork::Windowed).collect(),
        windows as u64,
        total_events,
    )
}

/// Run one cluster experiment over raw event-time streams: each local node
/// derives tumbling windows of `window_len` ms from event timestamps and
/// closes them as its watermark (max event time − `allowed_lateness_ms`)
/// advances. Events arriving behind the watermark are dropped and counted
/// in [`RunReport::late_events`].
///
/// # Errors
/// Any protocol, transport, or algorithm failure aborts the run; an input
/// with no events at all is rejected.
pub fn run_cluster_streaming(
    config: &ClusterConfig,
    streams: Vec<Vec<Event>>,
    window_len: u64,
    allowed_lateness_ms: u64,
) -> Result<RunReport, ClusterError> {
    let n_locals = streams.len();
    assert!(n_locals > 0, "need at least one local node");
    assert!(window_len > 0, "window length must be positive");
    let total_events: u64 = streams.iter().map(|s| s.len() as u64).sum();
    let (mut first, mut last) = (u64::MAX, 0u64);
    for e in streams.iter().flatten() {
        first = first.min(e.ts / window_len);
        last = last.max(e.ts / window_len);
    }
    if total_events == 0 {
        return Err(ClusterError::Core(dema_core::DemaError::EmptyWindow));
    }
    let windows = last - first + 1;
    run_cluster_inner(
        config,
        streams
            .into_iter()
            .map(|events| NodeWork::Streaming {
                events,
                window_len,
                range: (first, last),
                lateness: allowed_lateness_ms,
            })
            .collect(),
        windows,
        total_events,
    )
}

/// Reject topologies the wiring cannot realize.
fn validate_topology(topology: Topology) -> Result<(), ClusterError> {
    if let Topology::Tree { fanout, depth } = topology {
        if fanout < 2 {
            return Err(ClusterError::Protocol(format!(
                "tree topology needs fanout ≥ 2, got {fanout}"
            )));
        }
        if depth < 2 {
            return Err(ClusterError::Protocol(format!(
                "tree topology needs depth ≥ 2 (depth 1 is the star), got {depth}"
            )));
        }
    }
    Ok(())
}

/// Reject a link capacity the throttle cannot model: a zero-bandwidth link
/// never finishes transmitting a frame.
fn validate_transport(transport: TransportKind) -> Result<(), ClusterError> {
    if let TransportKind::Throttled { mbits_per_sec: 0 } = transport {
        return Err(ClusterError::Protocol(
            "throttled transport needs a positive bandwidth, got 0 Mbit/s".into(),
        ));
    }
    Ok(())
}

/// Reject membership plans the runtime cannot honor, and build the epoch
/// ledger for a staged plan (`None` for fixed membership). Churn is a
/// Dema-engine, star-topology feature: the drain handshake needs the
/// engine's control plane and per-leaf control links (README's per-engine
/// matrix documents the restriction).
fn validate_membership(
    config: &ClusterConfig,
    windows: u64,
    n_locals: usize,
) -> Result<Option<EpochLedger>, ClusterError> {
    if config.membership.is_empty() {
        return Ok(None);
    }
    if !matches!(config.engine, EngineKind::Dema { .. }) {
        return Err(ClusterError::Protocol(
            "membership churn requires the Dema engine".into(),
        ));
    }
    if !matches!(config.topology, Topology::Star) {
        return Err(ClusterError::Protocol(
            "membership churn requires the star topology".into(),
        ));
    }
    for change in &config.membership.changes {
        if change.window >= windows {
            return Err(ClusterError::Protocol(format!(
                "membership boundary {} is not below the run's {} windows",
                change.window, windows
            )));
        }
    }
    EpochLedger::from_plan(n_locals, &config.membership).map(Some)
}

/// Shared orchestration: wire links, spawn node threads, drive the root.
fn run_cluster_inner(
    config: &ClusterConfig,
    work: Vec<NodeWork>,
    windows: u64,
    total_events: u64,
) -> Result<RunReport, ClusterError> {
    let n_locals = work.len();

    engines::validate(config.engine)?;
    validate_topology(config.topology)?;
    validate_transport(config.transport)?;
    let ledger = validate_membership(config, windows, n_locals)?;
    // A churn plan restricts each node's contribution to its membership
    // span: input rows outside `[join, leave)` are dropped here, so callers
    // hand every node the same full-length window table regardless of the
    // plan, and the per-node steppers see exactly the windows they owe.
    let (work, total_events) = match &ledger {
        None => (work, total_events),
        Some(ledger) => {
            let mut sliced = Vec::with_capacity(work.len());
            let mut total = 0u64;
            for (n, node_work) in work.into_iter().enumerate() {
                let NodeWork::Windowed(ws) = node_work else {
                    return Err(ClusterError::Protocol(
                        "membership churn requires pre-windowed inputs".into(),
                    ));
                };
                let first = ledger.join_window(n as u32) as usize;
                let last = ledger
                    .leave_window(n as u32)
                    .map_or(ws.len(), |w| w as usize);
                let span: Vec<Vec<Event>> = ws
                    .into_iter()
                    .enumerate()
                    .filter(|(w, _)| (first..last).contains(w))
                    .map(|(_, events)| events)
                    .collect();
                total += span.iter().map(|w| w.len() as u64).sum::<u64>();
                sliced.push(NodeWork::Windowed(span));
            }
            (sliced, total)
        }
    };

    let close_times: CloseTimes = crate::local::new_close_times();
    let resilient = config.resilience.is_some();
    // Resilience promotes every engine to a control plane: the root needs a
    // root→local path for its retry NACKs, and each local a responder to
    // serve them from its sent-message cache.
    let control_plane = engines::descriptor(config.engine).control_plane || resilient;
    let initial_gamma = engines::initial_gamma(config.engine);
    let fault_counters = FaultCounters::new_shared();
    // Frames the fault wrappers attempted (including dropped ones) — kept
    // separate so the report's per-node traffic stays what the wire saw.
    let injected_counters = NetworkCounters::new_shared();

    // Wire tier 0: one data link per local (leaf → parent), and for engines
    // with a control plane one control link per local (parent → leaf) plus a
    // second uplink for the responder, accounted in the same counters.
    let mut data_counters = Vec::with_capacity(n_locals);
    let control_counters = NetworkCounters::new_shared();
    let mut data_tx: Vec<Box<dyn MsgSender>> = Vec::with_capacity(n_locals);
    let mut control_rx: Vec<Box<dyn MsgReceiver>> = Vec::with_capacity(n_locals);
    let mut responder_tx: Vec<Box<dyn MsgSender>> = Vec::with_capacity(n_locals);
    let mut children: Vec<ChildHandle> = Vec::with_capacity(n_locals);
    // Simulated full-duplex per-node links for the throttled transport: the
    // data path and the responder share the node's uplink; the control path
    // uses the downlink.
    let throttle_mbits = match config.transport {
        TransportKind::Throttled { mbits_per_sec } => Some(mbits_per_sec),
        _ => None,
    };
    for n in 0..n_locals {
        let uplink = throttle_mbits.map(Throttle::new_shared);
        let downlink = throttle_mbits.map(Throttle::new_shared);
        let counters = NetworkCounters::new_shared();
        let node_faults = config.faults.iter().find(|f| f.node == n as u32);
        let (tx, rx) = make_link(
            config.transport,
            SharedCounters::clone(&counters),
            uplink.as_ref(),
        )?;
        let tx = wrap_faulty(
            tx,
            node_faults.and_then(|f| f.uplink.as_ref()),
            &injected_counters,
        );
        let mut ups = vec![rx];
        let mut ctl = None;
        if control_plane {
            let (ctl_tx, ctl_rx) = make_link(
                config.transport,
                SharedCounters::clone(&control_counters),
                downlink.as_ref(),
            )?;
            ctl = Some(wrap_faulty(
                ctl_tx,
                node_faults.and_then(|f| f.control.as_ref()),
                &injected_counters,
            ));
            control_rx.push(ctl_rx);
            let (resp_tx, resp_rx) = make_link(
                config.transport,
                SharedCounters::clone(&counters),
                uplink.as_ref(),
            )?;
            responder_tx.push(wrap_faulty(
                resp_tx,
                node_faults.and_then(|f| f.responder.as_ref()),
                &injected_counters,
            ));
            ups.push(resp_rx);
        }
        data_counters.push(counters);
        data_tx.push(tx);
        children.push(ChildHandle {
            ups,
            ctl,
            range: (n as u32, n as u32),
            leaf: true,
        });
    }

    // Wire the relay tiers (none for the star): each pass groups up to
    // `fanout` children under a fresh relay until only the root's direct
    // children remain. Every relay gets its own uplink counters (and
    // downlink counters when the engine has a control plane) so the report
    // can attribute traffic per tier.
    let mut relay_specs = Vec::new(); // deferred spawns: (ups, up_tx, down_rx, relay_children)
    let mut relay_tier_counters: Vec<Vec<(SharedCounters, Option<SharedCounters>)>> = Vec::new();
    if let Topology::Tree { fanout, depth } = config.topology {
        for _tier in 1..depth {
            let mut next: Vec<ChildHandle> = Vec::new();
            let mut tier_counters = Vec::new();
            let mut iter = children.into_iter().peekable();
            while iter.peek().is_some() {
                let group: Vec<ChildHandle> = iter.by_ref().take(fanout).collect();
                let up_counters = NetworkCounters::new_shared();
                let up_throttle = throttle_mbits.map(Throttle::new_shared);
                let (up_tx, up_rx) = make_link(
                    config.transport,
                    SharedCounters::clone(&up_counters),
                    up_throttle.as_ref(),
                )?;
                let mut down_counters = None;
                let mut parent_ctl = None;
                let mut relay_down_rx = None;
                if control_plane {
                    let c = NetworkCounters::new_shared();
                    let down_throttle = throttle_mbits.map(Throttle::new_shared);
                    let (tx, rx) = make_link(
                        config.transport,
                        SharedCounters::clone(&c),
                        down_throttle.as_ref(),
                    )?;
                    down_counters = Some(c);
                    parent_ctl = Some(tx);
                    relay_down_rx = Some(rx);
                }
                tier_counters.push((up_counters, down_counters));

                let mut ups = Vec::new();
                let mut relay_children = Vec::new();
                let mut range = (u32::MAX, 0u32);
                for ch in group {
                    range.0 = range.0.min(ch.range.0);
                    range.1 = range.1.max(ch.range.1);
                    ups.extend(ch.ups);
                    if let Some(sender) = ch.ctl {
                        relay_children.push(RelayChild {
                            range: ch.range,
                            sender,
                            leaf: ch.leaf,
                        });
                    }
                }
                relay_specs.push((ups, up_tx, relay_down_rx, relay_children));
                next.push(ChildHandle {
                    ups: vec![up_rx],
                    ctl: parent_ctl,
                    range,
                    leaf: false,
                });
            }
            children = next;
            relay_tier_counters.push(tier_counters);
        }
    }

    // The root's per-leaf control senders: direct links in the star, routed
    // envelopes over each top child's shared downlink in a tree. Children
    // arrive in leaf order, so pushing per range keeps index == node id.
    let mut control_tx: Vec<Box<dyn MsgSender>> = Vec::with_capacity(n_locals);
    let mut root_rx: Vec<Box<dyn MsgReceiver>> = Vec::new();
    for ch in children {
        root_rx.extend(ch.ups);
        let Some(ctl) = ch.ctl else { continue };
        if ch.leaf {
            control_tx.push(ctl);
        } else {
            let shared: Arc<Mutex<Box<dyn MsgSender>>> =
                Arc::new(Mutex::new(rank::ROUTED_DOWNLINK, ctl));
            for leaf in ch.range.0..=ch.range.1 {
                control_tx.push(Box::new(RoutedSender::new(
                    NodeId(leaf),
                    Arc::clone(&shared),
                )));
            }
        }
    }

    let started = Instant::now();
    let alloc_before = dema_core::alloc::snapshot();
    let reactor_stats = ReactorStats::new_shared();

    // Shard the node roles over `threads` reactors: each shard hosts its
    // bucket of locals (with their responders) and relays on ONE event
    // loop, and every window is sorted inline on its leaf's shard.
    let engine = config.engine;
    let pace = config.pace_window_ms;
    let sort_threads = config
        .threads
        .unwrap_or_else(dema_core::par::default_threads);
    let shards = sort_threads.max(1);

    let mut shard_locals: Vec<Vec<LocalNodeSpec>> = (0..shards).map(|_| Vec::new()).collect();
    for (n, node_work) in work.into_iter().enumerate() {
        let responder = control_plane.then(|| (control_rx.remove(0), responder_tx.remove(0)));
        let (first_window, leave_window) = match &ledger {
            Some(l) => (l.join_window(n as u32), l.leave_window(n as u32)),
            None => (0, None),
        };
        shard_locals[n % shards].push(LocalNodeSpec {
            node: NodeId(n as u32),
            work: node_work,
            up: data_tx.remove(0),
            responder,
            first_window,
            leave_window,
        });
    }
    let mut shard_relays: Vec<Vec<RelaySpec>> = (0..shards).map(|_| Vec::new()).collect();
    for (i, (ups, parent_up, parent_down, children)) in relay_specs.into_iter().enumerate() {
        shard_relays[i % shards].push(RelaySpec {
            ups,
            parent_up,
            parent_down,
            children,
        });
    }

    let mut handles = Vec::new();
    for (i, (locals, relays)) in shard_locals.into_iter().zip(shard_relays).enumerate() {
        if locals.is_empty() && relays.is_empty() {
            continue;
        }
        let ct = Arc::clone(&close_times);
        let stats = Arc::clone(&reactor_stats);
        handles.push(
            spawn_shard(format!("dema-shard-{i}"), move || {
                run_shard(
                    engine,
                    initial_gamma,
                    resilient,
                    sort_threads,
                    pace,
                    ct,
                    locals,
                    relays,
                    stats,
                )
            })
            .map_err(|e| ClusterError::Net(NetError::Io(e)))?,
        );
    }

    // Host the root on this thread's own reactor: every uplink receiver is
    // a source, and retry / liveness deadlines surface as reactor timers
    // ([`RootNode::next_deadline`]) instead of a tick per polling sweep.
    let mut root = RootNode::with_extra_quantiles(
        config.quantile,
        config.extra_quantiles.clone(),
        config.engine,
        n_locals,
        windows,
        control_tx,
        Arc::clone(&close_times),
        config.resilience.map(|r| ResilienceCtx {
            config: r,
            counters: Arc::clone(&fault_counters),
        }),
        config.pipeline_depth,
    );
    if ledger.is_some() {
        root = root.with_membership(&config.membership)?;
    }
    let mut root_reactor = Reactor::new(Arc::clone(&reactor_stats));
    let mut root_host = RoleHost::new(RootRole::new(root), Vec::new());
    for (i, rx) in root_rx.into_iter().enumerate() {
        root_reactor.register(0, i, rx);
    }
    {
        let mut handlers: Vec<&mut dyn Handler<ClusterError>> = vec![&mut root_host];
        // The host absorbs role errors, so the loop itself cannot fail.
        root_reactor.run(&mut handlers)?;
    }
    let wall_time = started.elapsed();

    let (root_role, root_err) = root_host.into_parts();
    let mut result: Result<(), ClusterError> = root_err.map_or(Ok(()), Err);
    let root = root_role.into_root();
    // Dropping the root's control senders (inside `into_results`) cascades
    // the shutdown: responder roles retire on control-link disconnect,
    // relay roles cascade the close downward and retire as both of their
    // directions drain, and each shard's reactor exits once every hosted
    // role is done. The uplink receivers (owned by `root_reactor`) must
    // stay alive until the shards are reaped: a drained responder may
    // still be emitting its post-`DrainComplete` `StreamEnd` sign-off
    // after the root has already accounted it, and dropping the receiver
    // first would turn that clean handshake into a spurious Disconnected.
    let late_events = root.late_events();
    let epochs = root.epoch_stats();
    let drained_nodes = root.drained_nodes();
    let dead_nodes = root.dead_nodes();
    let (outcomes, latency) = root.into_results();
    let faulty_run = !config.faults.is_empty();
    for h in handles {
        match h.join() {
            Ok(errors) => {
                for e in errors {
                    match e {
                        // Fault-injected runs sever links by design; a node
                        // seeing its own link die is the scenario, not a
                        // failure.
                        ClusterError::Net(NetError::Disconnected) if faulty_run => {}
                        e => result = result.and(Err(e)),
                    }
                }
            }
            Err(_) => result = result.and(Err(ClusterError::NodePanic("reactor shard".into()))),
        }
    }
    drop(root_reactor);
    result?;

    // Per-tier attribution: tier 0 is the leaf links (per-leaf data
    // counters up, the shared control counter down), each relay pass adds a
    // tier of per-relay-edge counters. The star reports no tiers — its only
    // tier is already `per_node_traffic` / `control_traffic`.
    let mut tier_traffic = Vec::new();
    if !relay_tier_counters.is_empty() {
        let mut tier0 = TierTraffic {
            up: data_counters.iter().map(|c| c.snapshot()).collect(),
            down: Vec::new(),
        };
        if control_plane {
            tier0.down.push(control_counters.snapshot());
        }
        tier_traffic.push(tier0);
        for tier in &relay_tier_counters {
            let mut t = TierTraffic::default();
            for (up, down) in tier {
                t.up.push(up.snapshot());
                if let Some(down) = down {
                    t.down.push(down.snapshot());
                }
            }
            tier_traffic.push(t);
        }
    }

    Ok(RunReport {
        outcomes,
        per_node_traffic: data_counters.iter().map(|c| c.snapshot()).collect(),
        control_traffic: control_counters.snapshot(),
        wall_time,
        total_events,
        latency,
        late_events,
        tier_traffic,
        fault_stats: fault_counters.snapshot(),
        reactor: reactor_stats.snapshot(),
        epochs,
        drained_nodes,
        dead_nodes,
        alloc: dema_core::alloc::snapshot().since(&alloc_before),
        wire: WireStats::default(),
    })
}

/// Everything a shard needs to host one local node: its input, its data
/// uplink, and (for control-plane engines) the responder's pair of links.
struct LocalNodeSpec {
    node: NodeId,
    work: NodeWork,
    up: Box<dyn MsgSender>,
    /// Control-plane engines: the root→local control receiver paired with
    /// the responder's uplink. One option, so a half-wired responder is
    /// unrepresentable.
    responder: Option<(Box<dyn MsgReceiver>, Box<dyn MsgSender>)>,
    /// First window this node produces (0 unless it is a planned joiner).
    first_window: u64,
    /// Epoch boundary this node leaves at (`None` for members that stay).
    leave_window: Option<u64>,
}

/// Everything a shard needs to host one relay node.
struct RelaySpec {
    ups: Vec<Box<dyn MsgReceiver>>,
    parent_up: Box<dyn MsgSender>,
    parent_down: Option<Box<dyn MsgReceiver>>,
    children: Vec<RelayChild>,
}

/// Host one shard's bucket of locals, responders, and relays on a single
/// reactor event loop, and return every error the hosted roles recorded
/// (a failing role retires — dropping its links — without stopping the
/// shard). A local's two roles borrow one `!Sync` [`LocalShared`], so they
/// must share this shard.
#[allow(clippy::too_many_arguments)] // one-shot plumbing from run_cluster_inner
fn run_shard(
    engine: EngineKind,
    initial_gamma: u64,
    resilient: bool,
    sort_threads: usize,
    pace: Option<u64>,
    close_times: CloseTimes,
    locals: Vec<LocalNodeSpec>,
    relays: Vec<RelaySpec>,
    stats: Arc<ReactorStats>,
) -> Vec<ClusterError> {
    // The shared per-node state outlives the roles borrowing it below.
    let shareds: Vec<Arc<LocalShared>> = locals
        .iter()
        .map(|_| LocalShared::configured(initial_gamma, resilient, sort_threads))
        .collect();
    let mut reactor = Reactor::new(stats);
    let mut hosts: Vec<RoleHost<Box<dyn Stepper + '_>>> = Vec::new();
    for (spec, shared) in locals.into_iter().zip(&shareds) {
        let node = spec.node;
        let (stepper, node_pace) = match spec.work {
            NodeWork::Windowed(node_windows) => {
                let mut stepper = LocalStepper::new(node, node_windows, engine, shared)
                    .with_first_window(spec.first_window);
                if let Some(boundary) = spec.leave_window {
                    stepper = stepper.with_leave_window(boundary);
                }
                (stepper, pace)
            }
            NodeWork::Streaming {
                events,
                window_len,
                range,
                lateness,
            } => {
                let (node_windows, late) =
                    stream_windows(node, events, window_len, range, lateness);
                (
                    LocalStepper::new(node, node_windows, engine, shared).with_late_events(late),
                    // Streaming inputs carry their own event-time cadence.
                    None,
                )
            }
        };
        let role = LocalRole::new(node, stepper, Arc::clone(&close_times), node_pace);
        hosts.push(RoleHost::new(
            Box::new(role) as Box<dyn Stepper + '_>,
            vec![spec.up],
        ));
        if let Some((ctl_rx, resp_up)) = spec.responder {
            reactor.register(hosts.len(), 0, ctl_rx);
            hosts.push(RoleHost::new(
                Box::new(ResponderRole::new(node, shared)) as Box<dyn Stepper + '_>,
                vec![resp_up],
            ));
        }
    }
    for spec in relays {
        let handler = hosts.len();
        let n_ups = spec.ups.len();
        let mut senders: Vec<Box<dyn MsgSender>> = vec![spec.parent_up];
        let mut routes = Vec::with_capacity(spec.children.len());
        for child in spec.children {
            routes.push(RelayChildRoute {
                range: child.range,
                via: senders.len(),
                leaf: child.leaf,
            });
            senders.push(child.sender);
        }
        for (i, rx) in spec.ups.into_iter().enumerate() {
            reactor.register(handler, i, rx);
        }
        let has_down = spec.parent_down.is_some();
        if let Some(down) = spec.parent_down {
            reactor.register(handler, n_ups, down);
        }
        hosts.push(RoleHost::new(
            Box::new(RelayRole::new(n_ups, routes, has_down)) as Box<dyn Stepper + '_>,
            senders,
        ));
    }
    let mut handlers: Vec<&mut dyn Handler<ClusterError>> = hosts
        .iter_mut()
        .map(|h| h as &mut dyn Handler<ClusterError>)
        .collect();
    if let Err(e) = reactor.run(&mut handlers) {
        // Unreachable — hosts absorb role errors — but keep it visible.
        return vec![e];
    }
    hosts.iter_mut().filter_map(RoleHost::take_error).collect()
}

/// Convenience: run the same inputs through a second engine and return both
/// reports (used by accuracy experiments that need identical inputs).
pub fn run_pair(
    a: &ClusterConfig,
    b: &ClusterConfig,
    inputs: &[Vec<Vec<Event>>],
) -> Result<(RunReport, RunReport), ClusterError> {
    let ra = run_cluster(a, inputs.to_vec())?;
    let rb = run_cluster(b, inputs.to_vec())?;
    Ok((ra, rb))
}

/// Aggregate helper: total data-plane traffic of a report.
pub fn data_traffic(report: &RunReport) -> NetworkSnapshot {
    report
        .per_node_traffic
        .iter()
        .fold(NetworkSnapshot::default(), |acc, s| acc.plus(s))
}
