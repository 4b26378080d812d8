//! Seeded chaos suite: the retry/backoff layer must turn injected link
//! faults into either *recovered exactness* (loss without death → the same
//! bits as the clean run, with retry traffic visible in the counters) or
//! *graceful degradation* (a killed node → windows complete from the
//! survivors, carrying a verifiable rank-error bound where one is
//! derivable), never a hang and never a silently-wrong answer.
//!
//! Every fault schedule and every retry jitter draw derives from one seed,
//! taken from `CHAOS_SEED` (default 1) so CI can sweep seeds without code
//! changes. The resilience `request_timeout_ms` must exceed any injected
//! delay (and any configured window pacing) or healthy-but-slow runs read
//! as quiescent and NACK spuriously — harmless for correctness, noisy for
//! the counters.

use dema_cluster::config::TransportKind;
use dema_cluster::config::{ClusterConfig, EngineKind, GammaMode, NodeFaults, Resilience};
use dema_cluster::engines::REGISTRY;
use dema_cluster::report::RunReport;
use dema_cluster::runner::run_cluster;
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_core::selector::SelectionStrategy;
use dema_net::fault::FaultPlan;
use std::time::Duration;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Interleaved inputs: node `n`'s window `w` holds `w·stride + 3i + n`,
/// so every node owns values throughout each window's range and therefore
/// owns candidate slices near any quantile.
fn interleaved_inputs(nodes: usize, windows: usize, per_window: usize) -> Vec<Vec<Vec<Event>>> {
    (0..nodes)
        .map(|n| {
            (0..windows)
                .map(|w| {
                    (0..per_window)
                        .map(|i| {
                            Event::new(
                                (w * 10_000 + 3 * i + n) as i64,
                                w as u64,
                                (w * per_window + i) as u64,
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn dema_cfg(gamma: u64) -> ClusterConfig {
    ClusterConfig::dema_fixed(gamma, Quantile::MEDIAN)
}

/// Lossy-but-alive resilience: generous budgets so random drops never
/// escalate to a node death.
fn lossy_resilience(seed: u64) -> Resilience {
    Resilience {
        request_timeout_ms: 40,
        max_retries: 10,
        liveness_k: 10_000,
        seed,
    }
}

/// Death-detecting resilience: small budgets so a severed link is given up
/// on quickly.
fn deadly_resilience(seed: u64) -> Resilience {
    Resilience {
        request_timeout_ms: 40,
        max_retries: 2,
        liveness_k: 3,
        seed,
    }
}

/// Drop faults on all three of a node's links, seeds derived per link.
fn drop_everywhere(node: u32, seed: u64, p: f64) -> NodeFaults {
    NodeFaults {
        node,
        uplink: Some(FaultPlan::new(seed ^ 0x11).with_drop(p)),
        responder: Some(FaultPlan::new(seed ^ 0x22).with_drop(p)),
        control: Some(FaultPlan::new(seed ^ 0x33).with_drop(p)),
    }
}

fn run_clean(engine: EngineKind, inputs: &[Vec<Vec<Event>>]) -> RunReport {
    let cfg = ClusterConfig::baseline(engine, Quantile::MEDIAN);
    run_cluster(&cfg, inputs.to_vec()).expect("clean run")
}

/// Dema at a small γ, then every one-shot engine of the registry. A
/// one-shot root answers from the window's parts in node order and a resend
/// replays the identical part, so even the sketches recover bit-identically.
fn dema_and_one_shot_engines() -> Vec<EngineKind> {
    let dema = EngineKind::Dema {
        gamma: GammaMode::Fixed(8),
        strategy: SelectionStrategy::WindowCut,
    };
    let one_shot = REGISTRY.iter().filter(|d| !d.control_plane);
    std::iter::once(dema)
        .chain(one_shot.map(|d| (d.example)()))
        .collect()
}

/// Message loss below the death threshold must be invisible in the answers:
/// every engine without a control plane, and Dema, returns bit-identical
/// values to its fault-free run, no window degrades, and the retry counters show the recovery happened.
#[test]
fn drop_matrix_exact_engines_recover_bit_identically() {
    let seed = chaos_seed();
    let inputs = interleaved_inputs(3, 8, 60);
    let mut total_recoveries = 0u64;
    for engine in dema_and_one_shot_engines() {
        let clean = run_clean(engine, &inputs);
        let mut cfg = ClusterConfig::baseline(engine, Quantile::MEDIAN);
        cfg.resilience = Some(lossy_resilience(seed));
        cfg.faults = (0..3)
            .map(|n| drop_everywhere(n, seed.wrapping_add(u64::from(n) * 101), 0.12))
            .collect();
        let chaotic = run_cluster(&cfg, inputs.clone()).expect("chaotic run");
        assert_eq!(
            chaotic.values(),
            clean.values(),
            "{}: values must survive message loss bit-identically",
            engine.label()
        );
        assert!(
            chaotic.outcomes.iter().all(|o| o.degraded.is_none()),
            "{}: no window may degrade below the death threshold",
            engine.label()
        );
        assert_eq!(chaotic.fault_stats.nodes_declared_dead, 0);
        total_recoveries += chaotic.fault_stats.timeouts + chaotic.fault_stats.retries;
    }
    assert!(
        total_recoveries > 0,
        "a 12% drop matrix must exercise the retry path"
    );
}

/// Delay + duplication + reordering (no loss) must also be invisible:
/// exact values, no degradation, and the duplicate-suppression counter
/// proves the dups were caught rather than double-counted.
#[test]
fn delay_dup_reorder_is_exact_with_duplicates_suppressed() {
    let seed = chaos_seed();
    let inputs = interleaved_inputs(3, 8, 60);
    let noisy = |s: u64| {
        FaultPlan::new(s)
            .with_delay(Duration::from_millis(2), Duration::from_millis(5))
            .with_dup(0.25)
            .with_reorder(0.25, 3)
    };
    let mut total_dups = 0u64;
    for engine in dema_and_one_shot_engines() {
        let clean = run_clean(engine, &inputs);
        let mut cfg = ClusterConfig::baseline(engine, Quantile::MEDIAN);
        cfg.resilience = Some(lossy_resilience(seed));
        cfg.faults = (0..3)
            .map(|n| NodeFaults {
                node: n,
                uplink: Some(noisy(seed ^ (u64::from(n) + 7))),
                responder: Some(noisy(seed ^ (u64::from(n) + 77))),
                control: Some(noisy(seed ^ (u64::from(n) + 777))),
            })
            .collect();
        let chaotic = run_cluster(&cfg, inputs.clone()).expect("noisy run");
        assert_eq!(chaotic.values(), clean.values(), "{}", engine.label());
        assert!(chaotic.outcomes.iter().all(|o| o.degraded.is_none()));
        assert_eq!(chaotic.fault_stats.nodes_declared_dead, 0);
        total_dups += chaotic.fault_stats.duplicates_suppressed;
    }
    assert!(
        total_dups > 0,
        "25% duplication must hit the suppression path"
    );
}

/// The same recovery guarantee over real loopback TCP sockets.
#[test]
fn tcp_loopback_recovers_from_drops() {
    let seed = chaos_seed();
    let inputs = interleaved_inputs(2, 4, 40);
    let engine = EngineKind::Dema {
        gamma: GammaMode::Fixed(6),
        strategy: SelectionStrategy::WindowCut,
    };
    let clean = run_clean(engine, &inputs);
    let mut cfg = ClusterConfig::baseline(engine, Quantile::MEDIAN);
    cfg.transport = TransportKind::Tcp;
    cfg.resilience = Some(Resilience {
        request_timeout_ms: 80, // TCP loopback needs more slack than mem
        ..lossy_resilience(seed)
    });
    cfg.faults = vec![drop_everywhere(0, seed ^ 0x7C90, 0.1)];
    let chaotic = run_cluster(&cfg, inputs).expect("tcp chaos run");
    assert_eq!(chaotic.values(), clean.values());
    assert!(chaotic.outcomes.iter().all(|o| o.degraded.is_none()));
}

/// A Dema local whose responder uplink dies mid-run: its synopses keep
/// arriving but its candidate slices are unreachable. Affected windows
/// must complete as degraded with `rank_error_bound = Some(M)` — the exact
/// number of candidate events the root knows it lost — and the bound must
/// hold against a sort oracle over the full (pre-fault) input.
#[test]
fn dema_responder_death_degrades_with_verified_rank_bound() {
    let seed = chaos_seed();
    let (nodes, windows, per_window) = (3usize, 6usize, 100usize);
    let inputs = interleaved_inputs(nodes, windows, per_window);
    let mut cfg = dema_cfg(10);
    cfg.resilience = Some(deadly_resilience(seed));
    cfg.faults = vec![NodeFaults {
        node: 1,
        // First candidate reply delivered, everything after dies.
        responder: Some(FaultPlan::new(seed).with_disconnect_after(1)),
        ..NodeFaults::default()
    }];
    let report = run_cluster(&cfg, inputs.clone()).expect("run must not hang");
    assert_eq!(report.outcomes.len(), windows);
    assert_eq!(report.fault_stats.nodes_declared_dead, 1);
    let total = (nodes * per_window) as u64;
    let target = Quantile::MEDIAN.pos(total).unwrap();
    let mut saw_degraded = false;
    for (w, outcome) in report.outcomes.iter().enumerate() {
        let Some(d) = &outcome.degraded else { continue };
        saw_degraded = true;
        assert_eq!(d.missing_nodes, vec![1], "window {w}");
        // Synopses all arrived (the data uplink is healthy), so the lost
        // candidate mass — and with it the rank error — is exactly known.
        let bound = d
            .rank_error_bound
            .unwrap_or_else(|| panic!("window {w}: bound must be derivable"));
        assert_eq!(outcome.total_events, total, "window {w}");
        // Sort oracle: the degraded answer's true global rank may sit at
        // most `bound` positions from the requested rank.
        let mut sorted: Vec<i64> = inputs
            .iter()
            .flat_map(|node| node[w].iter().map(|e| e.value))
            .collect();
        sorted.sort_unstable();
        let v = outcome.value.expect("survivor runs are non-empty");
        let lo = sorted.iter().filter(|&&x| x < v).count() as u64 + 1;
        let hi = sorted.iter().filter(|&&x| x <= v).count() as u64;
        assert!(hi >= lo, "window {w}: value {v} must exist in the input");
        let distance = target.saturating_sub(hi).max(lo.saturating_sub(target));
        assert!(
            distance <= bound,
            "window {w}: rank distance {distance} exceeds claimed bound {bound}"
        );
    }
    assert!(saw_degraded, "the severed responder must degrade windows");
    assert!(report.fault_stats.degraded_windows > 0);
}

/// A centralized local whose *data* uplink dies: the window whose batch was
/// sent-but-severed is recovered through the responder's resend cache, the
/// rest complete degraded (no bound claimable — whole batches are unknown)
/// with the survivors' exact quantile, and the run still terminates.
#[test]
fn centralized_uplink_death_degrades_later_windows() {
    let seed = chaos_seed();
    let (nodes, windows, per_window) = (3usize, 6usize, 100usize);
    let inputs = interleaved_inputs(nodes, windows, per_window);
    let mut cfg = ClusterConfig::baseline(EngineKind::Centralized, Quantile::MEDIAN);
    // Liveness stays loose: several windows time out in the same sweep, and
    // the fast liveness path would declare the node dead before window 2's
    // resend could land. Retry-budget exhaustion is the death verdict here.
    cfg.resilience = Some(Resilience {
        liveness_k: 100,
        ..deadly_resilience(seed)
    });
    cfg.faults = vec![NodeFaults {
        node: 2,
        // Windows 0 and 1 reach the wire; window 2 is cached for resend but
        // severed in flight; the local thread dies there, so windows 3+
        // exist nowhere and cannot be recovered.
        uplink: Some(FaultPlan::new(seed).with_disconnect_after(2)),
        ..NodeFaults::default()
    }];
    let report = run_cluster(&cfg, inputs.clone()).expect("run must not hang");
    assert_eq!(report.outcomes.len(), windows);
    assert_eq!(report.fault_stats.nodes_declared_dead, 1);
    let full = (nodes * per_window) as u64;
    for (w, outcome) in report.outcomes.iter().enumerate() {
        // Exact-window oracle over whichever nodes contributed.
        let contributors: Vec<usize> = if w < 3 { (0..3).collect() } else { vec![0, 1] };
        let mut sorted: Vec<i64> = contributors
            .iter()
            .flat_map(|&n| inputs[n][w].iter().map(|e| e.value))
            .collect();
        sorted.sort_unstable();
        let expect = sorted[(Quantile::MEDIAN.pos(sorted.len() as u64).unwrap() - 1) as usize];
        assert_eq!(outcome.value, Some(expect), "window {w}");
        if w < 3 {
            // Windows 0–1 arrived normally; window 2 was replayed from the
            // node's sent-message cache over its healthy responder uplink.
            assert!(outcome.degraded.is_none(), "window {w} must be recovered");
            assert_eq!(outcome.total_events, full);
        } else {
            let d = outcome
                .degraded
                .as_ref()
                .unwrap_or_else(|| panic!("window {w} must degrade"));
            assert_eq!(d.missing_nodes, vec![2]);
            assert_eq!(
                d.rank_error_bound, None,
                "no bound claimable when whole batches are missing"
            );
            assert_eq!(outcome.total_events, full - per_window as u64);
        }
    }
    assert_eq!(report.fault_stats.degraded_windows, 3);
    assert!(report.fault_stats.timeouts > 0);
}
