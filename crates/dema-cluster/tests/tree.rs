//! Multi-level aggregation trees: the tree topology must be invisible to
//! the protocol (identical answers *and* identical leaf-tier wire bytes as
//! the star) while attributing traffic per tier.

use dema_cluster::config::{ClusterConfig, EngineKind, GammaMode, Topology, TransportKind};
use dema_cluster::engines::REGISTRY;
use dema_cluster::runner::run_cluster;
use dema_cluster::ClusterError;
use dema_core::coordinator::quantile_ground_truth;
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_core::selector::SelectionStrategy;
use dema_gen::SoccerGenerator;

fn soccer_inputs(n: usize, windows: usize, rate: u64) -> Vec<Vec<Vec<Event>>> {
    (0..n)
        .map(|i| SoccerGenerator::new(42 + i as u64, 1, rate, 0).take_windows(windows, 1000))
        .collect()
}

fn truths(inputs: &[Vec<Vec<Event>>], q: Quantile) -> Vec<Option<i64>> {
    let windows = inputs[0].len();
    (0..windows)
        .map(|w| {
            let per_node: Vec<Vec<Event>> = inputs.iter().map(|n| n[w].clone()).collect();
            quantile_ground_truth(&per_node, q).ok().map(|e| e.value)
        })
        .collect()
}

/// The size in bytes a [`dema_wire::Message::Routed`] envelope adds on the
/// wire: 1 tag byte + 4 destination bytes.
const ROUTED_OVERHEAD: u64 = 5;

#[test]
fn depth_two_dema_tree_is_bit_identical_to_star() {
    let inputs = soccer_inputs(8, 3, 1_500);
    let star_cfg = ClusterConfig::dema_fixed(100, Quantile::MEDIAN);
    let mut tree_cfg = star_cfg.clone();
    tree_cfg.topology = Topology::Tree {
        fanout: 4,
        depth: 2,
    };

    let star = run_cluster(&star_cfg, inputs.clone()).unwrap();
    let tree = run_cluster(&tree_cfg, inputs.clone()).unwrap();

    // Same exact answers as the star (and as ground truth).
    assert_eq!(tree.values(), truths(&inputs, Quantile::MEDIAN));
    assert_eq!(tree.values(), star.values());

    // Leaf-tier traffic is bit-identical: the relays change *where* bytes
    // flow, not *what* the leaves send or what control traffic reaches them.
    assert_eq!(tree.per_node_traffic, star.per_node_traffic);
    assert_eq!(tree.control_traffic, star.control_traffic);

    // The star reports no tiers; the depth-2 tree reports both of them.
    assert!(star.tier_traffic.is_empty());
    assert_eq!(tree.tier_traffic.len(), 2);
    let (tier0, tier1) = (&tree.tier_traffic[0], &tree.tier_traffic[1]);

    // Tier 0 is exactly the leaf links (8 data links + the shared control
    // accounting), tier 1 one link per relay (8 leaves / fanout 4 = 2).
    assert_eq!(tier0.up, tree.per_node_traffic);
    assert_eq!(tier0.down, vec![tree.control_traffic]);
    assert_eq!(tier1.up.len(), 2);
    assert_eq!(tier1.down.len(), 2);

    // Relays forward upward messages verbatim, so the upper tier re-ships
    // exactly the leaf tier's bytes/messages/events.
    assert_eq!(tier1.up_total(), tier0.up_total());

    // Downward every control message crosses tier 1 wrapped in a Routed
    // envelope (tag + destination), then reaches the leaf unwrapped.
    let (d0, d1) = (tier0.down_total(), tier1.down_total());
    assert_eq!(d1.messages, d0.messages);
    assert_eq!(d1.bytes, d0.bytes + ROUTED_OVERHEAD * d0.messages);
}

#[test]
fn depth_three_tree_chains_relays_and_stays_exact() {
    // 4 leaves, fanout 2, depth 3: 2 relays at tier 1, one relay at tier 2.
    let inputs = soccer_inputs(4, 3, 800);
    let mut cfg = ClusterConfig::dema_fixed(64, Quantile::P75);
    cfg.topology = Topology::Tree {
        fanout: 2,
        depth: 3,
    };
    let report = run_cluster(&cfg, inputs.clone()).unwrap();
    assert_eq!(report.values(), truths(&inputs, Quantile::P75));
    assert_eq!(report.tier_traffic.len(), 3);
    assert_eq!(report.tier_traffic[1].up.len(), 2);
    assert_eq!(report.tier_traffic[2].up.len(), 1);
    // Verbatim forwarding holds across every tier.
    let t0 = report.tier_traffic[0].up_total();
    assert_eq!(report.tier_traffic[1].up_total(), t0);
    assert_eq!(report.tier_traffic[2].up_total(), t0);
    // Downward, the envelope is added once at the root and forwarded
    // verbatim between relay tiers; only the last hop to the leaves unwraps.
    let d0 = report.tier_traffic[0].down_total();
    let d1 = report.tier_traffic[1].down_total();
    let d2 = report.tier_traffic[2].down_total();
    assert_eq!(d1.bytes, d0.bytes + ROUTED_OVERHEAD * d0.messages);
    assert_eq!(d2, d1);
}

#[test]
fn adaptive_gamma_feedback_flows_down_through_relays() {
    let inputs = soccer_inputs(4, 12, 2_000);
    let mut cfg = ClusterConfig::baseline(
        EngineKind::Dema {
            gamma: GammaMode::Adaptive { initial: 2 },
            strategy: SelectionStrategy::WindowCut,
        },
        Quantile::MEDIAN,
    );
    cfg.pace_window_ms = Some(40);
    cfg.topology = Topology::Tree {
        fanout: 2,
        depth: 2,
    };
    let report = run_cluster(&cfg, inputs.clone()).unwrap();
    // Still exact, and the routed γ updates actually reached the leaves.
    assert_eq!(report.values(), truths(&inputs, Quantile::MEDIAN));
    assert!(report.outcomes.last().unwrap().gamma > 16);
}

#[test]
fn engines_without_a_control_plane_run_over_trees() {
    let inputs = soccer_inputs(6, 2, 1_000);
    let expect = truths(&inputs, Quantile::MEDIAN);
    for desc in REGISTRY.iter().filter(|d| !d.control_plane) {
        let engine = (desc.example)();
        let mut star_cfg = ClusterConfig::baseline(engine, Quantile::MEDIAN);
        let mut tree_cfg = star_cfg.clone();
        star_cfg.topology = Topology::Star;
        tree_cfg.topology = Topology::Tree {
            fanout: 3,
            depth: 2,
        };
        let star = run_cluster(&star_cfg, inputs.clone()).unwrap();
        let tree = run_cluster(&tree_cfg, inputs.clone()).unwrap();
        // Identical answers star vs tree: the relays change arrival order,
        // but a one-shot root answers from the parts in node order (and
        // KLL's per-node seeds make its sketches themselves deterministic)…
        assert_eq!(tree.values(), star.values(), "engine {}", engine.label());
        if engine.is_exact() {
            assert_eq!(tree.values(), expect, "engine {}", engine.label());
        }
        // …and no phantom control tier.
        assert_eq!(tree.tier_traffic.len(), 2);
        assert!(
            tree.tier_traffic[0].down.is_empty(),
            "engine {}",
            engine.label()
        );
        assert!(
            tree.tier_traffic[1].down.is_empty(),
            "engine {}",
            engine.label()
        );
        assert_eq!(
            tree.tier_traffic[1].up_total(),
            tree.tier_traffic[0].up_total(),
            "engine {}",
            engine.label()
        );
    }
}

#[test]
fn tree_runs_over_tcp_and_throttled_transports() {
    let inputs = soccer_inputs(4, 2, 500);
    let expect = truths(&inputs, Quantile::MEDIAN);
    for transport in [
        TransportKind::Tcp,
        TransportKind::Throttled { mbits_per_sec: 200 },
    ] {
        let mut cfg = ClusterConfig::dema_fixed(64, Quantile::MEDIAN);
        cfg.transport = transport;
        cfg.topology = Topology::Tree {
            fanout: 2,
            depth: 2,
        };
        let report = run_cluster(&cfg, inputs.clone()).unwrap();
        assert_eq!(report.values(), expect, "transport {transport:?}");
        assert_eq!(
            report.tier_traffic[1].up_total(),
            report.tier_traffic[0].up_total(),
            "transport {transport:?}"
        );
    }
}

#[test]
fn degenerate_trees_are_rejected() {
    let inputs = soccer_inputs(2, 1, 100);
    for topology in [
        Topology::Tree {
            fanout: 1,
            depth: 2,
        },
        Topology::Tree {
            fanout: 2,
            depth: 1,
        },
        Topology::Tree {
            fanout: 0,
            depth: 0,
        },
    ] {
        let mut cfg = ClusterConfig::dema_fixed(16, Quantile::MEDIAN);
        cfg.topology = topology;
        let err = run_cluster(&cfg, inputs.clone()).unwrap_err();
        assert!(
            matches!(err, ClusterError::Protocol(_)),
            "{topology:?}: {err}"
        );
    }
}

#[test]
fn tree_with_more_depth_than_leaves_degrades_to_a_chain() {
    // 2 leaves, fanout 4, depth 3: tier 1 groups both leaves under one
    // relay, tier 2 wraps that single relay again — a chain, still exact.
    let inputs = soccer_inputs(2, 2, 400);
    let mut cfg = ClusterConfig::dema_fixed(32, Quantile::MEDIAN);
    cfg.topology = Topology::Tree {
        fanout: 4,
        depth: 3,
    };
    let report = run_cluster(&cfg, inputs.clone()).unwrap();
    assert_eq!(report.values(), truths(&inputs, Quantile::MEDIAN));
    assert_eq!(report.tier_traffic.len(), 3);
    assert_eq!(report.tier_traffic[1].up.len(), 1);
    assert_eq!(report.tier_traffic[2].up.len(), 1);
}

#[test]
fn resilient_tree_survives_leaf_uplink_death() {
    use dema_cluster::config::{NodeFaults, Resilience};
    use dema_net::fault::FaultPlan;

    // 4 leaves under a fanout-2 depth-3 tree: leaf 0's data uplink dies
    // after two windows. The NACK/resend traffic must route down and back
    // up through two relay tiers: window 2 (sent-but-severed, so cached on
    // the leaf) is recovered exactly, later windows complete degraded from
    // the three surviving leaves, and the dead child uplink must not take
    // its relay — or the run — down with it.
    let inputs = soccer_inputs(4, 6, 150);
    let expect = truths(&inputs, Quantile::MEDIAN);
    let mut cfg = ClusterConfig::dema_fixed(16, Quantile::MEDIAN);
    cfg.topology = Topology::Tree {
        fanout: 2,
        depth: 3,
    };
    cfg.resilience = Some(Resilience {
        request_timeout_ms: 40,
        max_retries: 2,
        liveness_k: 100, // death by retry exhaustion, not the fast path
        seed: 9,
    });
    cfg.faults = vec![NodeFaults {
        node: 0,
        uplink: Some(FaultPlan::new(9).with_disconnect_after(2)),
        ..NodeFaults::default()
    }];
    let report = run_cluster(&cfg, inputs).expect("tree run must not hang");
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(report.fault_stats.nodes_declared_dead, 1);
    for (w, o) in report.outcomes.iter().enumerate().take(3) {
        assert!(o.degraded.is_none(), "window {w} must be exact");
        assert_eq!(o.value, expect[w], "window {w}");
    }
    let degraded: Vec<_> = report
        .outcomes
        .iter()
        .filter_map(|o| o.degraded.as_ref())
        .collect();
    assert!(!degraded.is_empty(), "later windows must degrade");
    assert!(degraded.iter().all(|d| d.missing_nodes == vec![0]));
}
