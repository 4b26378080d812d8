//! End-to-end cluster runs: all engines over identical inputs.

use dema_cluster::config::{ClusterConfig, EngineKind, GammaMode, TransportKind};
use dema_cluster::runner::{data_traffic, run_cluster};
use dema_cluster::ClusterError;
use dema_core::coordinator::quantile_ground_truth;
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_core::selector::SelectionStrategy;
use dema_gen::{EventStream, SoccerGenerator, StreamConfig, ValueDistribution};

/// Generate aligned per-window inputs for `n` nodes.
fn soccer_inputs(n: usize, windows: usize, rate: u64, scales: &[i64]) -> Vec<Vec<Vec<Event>>> {
    (0..n)
        .map(|i| {
            let scale = scales.get(i).copied().unwrap_or(1);
            SoccerGenerator::new(42 + i as u64, scale, rate, 0).take_windows(windows, 1000)
        })
        .collect()
}

/// Ground truth per window from the same inputs.
fn truths(inputs: &[Vec<Vec<Event>>], q: Quantile) -> Vec<Option<i64>> {
    let windows = inputs[0].len();
    (0..windows)
        .map(|w| {
            let per_node: Vec<Vec<Event>> = inputs.iter().map(|n| n[w].clone()).collect();
            quantile_ground_truth(&per_node, q).ok().map(|e| e.value)
        })
        .collect()
}

#[test]
fn all_exact_engines_agree_with_ground_truth() {
    let inputs = soccer_inputs(3, 4, 2_000, &[1, 1, 1]);
    let expect = truths(&inputs, Quantile::MEDIAN);
    for engine in [
        EngineKind::Dema {
            gamma: GammaMode::Fixed(128),
            strategy: SelectionStrategy::WindowCut,
        },
        EngineKind::Dema {
            gamma: GammaMode::Fixed(128),
            strategy: SelectionStrategy::ClassifiedScan,
        },
        EngineKind::Dema {
            gamma: GammaMode::Fixed(128),
            strategy: SelectionStrategy::NoCut,
        },
        EngineKind::Centralized,
        EngineKind::DecSort,
    ] {
        let config = ClusterConfig::baseline(engine, Quantile::MEDIAN);
        let report = run_cluster(&config, inputs.clone()).unwrap();
        assert_eq!(report.values(), expect, "engine {}", engine.label());
        assert_eq!(report.total_events, 3 * 4 * 2_000);
        assert_eq!(report.outcomes.len(), 4);
    }
}

#[test]
fn tdigest_engines_are_close_to_truth() {
    let inputs = soccer_inputs(2, 3, 3_000, &[1, 1]);
    let expect = truths(&inputs, Quantile::MEDIAN);
    for engine in [
        EngineKind::TdigestCentral { compression: 100.0 },
        EngineKind::TdigestDistributed { compression: 100.0 },
    ] {
        let config = ClusterConfig::baseline(engine, Quantile::MEDIAN);
        let report = run_cluster(&config, inputs.clone()).unwrap();
        for (got, want) in report.values().iter().zip(&expect) {
            let (got, want) = (got.unwrap() as f64, want.unwrap() as f64);
            let rel = (got - want).abs() / want.abs().max(1.0);
            assert!(rel < 0.05, "{}: got {got}, want {want}", engine.label());
        }
    }
}

#[test]
fn dema_ships_far_fewer_events_than_baselines() {
    let inputs = soccer_inputs(2, 3, 5_000, &[1, 1]);
    let dema = run_cluster(
        &ClusterConfig::dema_fixed(200, Quantile::MEDIAN),
        inputs.clone(),
    )
    .unwrap();
    let central = run_cluster(
        &ClusterConfig::baseline(EngineKind::Centralized, Quantile::MEDIAN),
        inputs,
    )
    .unwrap();
    let dema_traffic = data_traffic(&dema).plus(&dema.control_traffic);
    let central_traffic = data_traffic(&central);
    assert!(
        dema_traffic.bytes * 5 < central_traffic.bytes,
        "dema {} B vs centralized {} B",
        dema_traffic.bytes,
        central_traffic.bytes
    );
    assert!(dema_traffic.events * 5 < central_traffic.events);
    // And the answers still match.
    assert_eq!(dema.values(), central.values());
}

#[test]
fn adaptive_gamma_improves_over_terrible_fixed_gamma() {
    let inputs = soccer_inputs(2, 24, 3_000, &[1, 1]);
    let mut adaptive_cfg = ClusterConfig::baseline(
        EngineKind::Dema {
            gamma: GammaMode::Adaptive { initial: 2 },
            strategy: SelectionStrategy::WindowCut,
        },
        Quantile::MEDIAN,
    );
    // Pace windows (compressed real time) so γ feedback reaches the locals
    // before they slice the next window. Generous pacing: debug builds
    // resolve windows slowly and the feedback must land deterministically.
    adaptive_cfg.pace_window_ms = Some(40);
    let adaptive = run_cluster(&adaptive_cfg, inputs.clone()).unwrap();
    let fixed_bad = run_cluster(&ClusterConfig::dema_fixed(2, Quantile::MEDIAN), inputs).unwrap();
    // Same exact answers…
    assert_eq!(adaptive.values(), fixed_bad.values());
    // …but γ adapted away from 2 and total traffic dropped.
    let last = adaptive.outcomes.last().unwrap();
    assert!(last.gamma > 16, "γ stayed at {}", last.gamma);
    let a = data_traffic(&adaptive).bytes;
    let b = data_traffic(&fixed_bad).bytes;
    assert!(a * 2 < b, "adaptive {a} B vs fixed-2 {b} B");
}

#[test]
fn skewed_scale_rates_remain_exact() {
    // The paper's Dema #10 configuration: one node's values 10× the other's,
    // 30 % quantile on the dense side.
    let q = Quantile::new(0.3).unwrap();
    let inputs = soccer_inputs(2, 4, 2_000, &[1, 10]);
    let expect = truths(&inputs, q);
    let report = run_cluster(&ClusterConfig::dema_fixed(256, q), inputs).unwrap();
    assert_eq!(report.values(), expect);
}

#[test]
fn uniform_and_clustered_distributions() {
    let mk = |dist: ValueDistribution, seed: u64| -> Vec<Vec<Event>> {
        EventStream::new(
            dist,
            StreamConfig {
                seed,
                events_per_second: 2_000,
                ..Default::default()
            },
        )
        .take_windows(3, 1000)
    };
    let inputs = vec![
        mk(
            ValueDistribution::Uniform {
                lo: 0,
                hi: 1_000_000,
            },
            1,
        ),
        mk(
            ValueDistribution::Clustered {
                centers: vec![100, 500_000],
                spread: 50,
            },
            2,
        ),
        mk(ValueDistribution::Zipf { n: 10_000, s: 1.1 }, 3),
    ];
    let expect = truths(&inputs, Quantile::P75);
    let report = run_cluster(&ClusterConfig::dema_fixed(200, Quantile::P75), inputs).unwrap();
    assert_eq!(report.values(), expect);
}

#[test]
fn empty_windows_produce_none_results() {
    let inputs: Vec<Vec<Vec<Event>>> = vec![
        vec![vec![], vec![Event::new(5, 1500, 0)], vec![]],
        vec![vec![], vec![Event::new(7, 1600, 1)], vec![]],
    ];
    let report = run_cluster(&ClusterConfig::dema_fixed(10, Quantile::MEDIAN), inputs).unwrap();
    assert_eq!(report.values(), vec![None, Some(5), None]);
}

#[test]
fn single_local_node_cluster() {
    let inputs = soccer_inputs(1, 2, 1_000, &[1]);
    let expect = truths(&inputs, Quantile::MEDIAN);
    let report = run_cluster(&ClusterConfig::dema_fixed(64, Quantile::MEDIAN), inputs).unwrap();
    assert_eq!(report.values(), expect);
}

#[test]
fn many_local_nodes() {
    let inputs = soccer_inputs(8, 2, 500, &[1; 8]);
    let expect = truths(&inputs, Quantile::MEDIAN);
    let report = run_cluster(&ClusterConfig::dema_fixed(50, Quantile::MEDIAN), inputs).unwrap();
    assert_eq!(report.values(), expect);
    assert_eq!(report.per_node_traffic.len(), 8);
}

#[test]
fn registry_matrix_runs_every_engine_end_to_end() {
    // Driven by the engine registry, so adding an engine automatically adds
    // it to this matrix (and forgetting to register one fails the registry
    // unit tests).
    let inputs = soccer_inputs(3, 3, 2_000, &[1, 1, 1]);
    let expect = truths(&inputs, Quantile::MEDIAN);
    for desc in &dema_cluster::engines::REGISTRY {
        let engine = (desc.example)();
        assert_eq!(engine.label(), desc.label);
        let config = ClusterConfig::baseline(engine, Quantile::MEDIAN);
        let report = run_cluster(&config, inputs.clone()).unwrap();
        assert_eq!(report.outcomes.len(), 3, "engine {}", desc.label);
        if desc.exact {
            assert_eq!(report.values(), expect, "engine {}", desc.label);
        } else {
            for (got, want) in report.values().iter().zip(&expect) {
                let (got, want) = (got.unwrap() as f64, want.unwrap() as f64);
                let rel = (got - want).abs() / want.abs().max(1.0);
                assert!(rel < 0.05, "{}: got {got}, want {want}", desc.label);
            }
        }
    }
}

#[test]
fn kll_distributed_tracks_truth_and_ships_sublinearly() {
    let inputs = soccer_inputs(3, 3, 5_000, &[1, 1, 1]);
    let expect = truths(&inputs, Quantile::P75);
    let config = ClusterConfig::baseline(EngineKind::KllDistributed { k: 512 }, Quantile::P75);
    let report = run_cluster(&config, inputs.clone()).unwrap();
    for (got, want) in report.values().iter().zip(&expect) {
        let (got, want) = (got.unwrap() as f64, want.unwrap() as f64);
        let rel = (got - want).abs() / want.abs().max(1.0);
        assert!(rel < 0.05, "got {got}, want {want}");
    }
    // The sketch summary must undercut shipping the raw windows.
    let central = run_cluster(
        &ClusterConfig::baseline(EngineKind::Centralized, Quantile::P75),
        inputs,
    )
    .unwrap();
    assert!(data_traffic(&report).bytes * 2 < data_traffic(&central).bytes);
}

#[test]
fn tcp_and_throttled_transports_cover_dema_and_centralized() {
    // Loopback TCP and the bandwidth-capped links against the sort oracle,
    // for both the protocol with a control plane and the plain baseline.
    let inputs = soccer_inputs(2, 2, 1_000, &[1, 1]);
    let expect = truths(&inputs, Quantile::MEDIAN);
    let engines = [
        EngineKind::Dema {
            gamma: GammaMode::Fixed(100),
            strategy: SelectionStrategy::WindowCut,
        },
        EngineKind::Centralized,
    ];
    for engine in engines {
        for transport in [
            TransportKind::Tcp,
            TransportKind::Throttled { mbits_per_sec: 500 },
        ] {
            let mut cfg = ClusterConfig::baseline(engine, Quantile::MEDIAN);
            cfg.transport = transport;
            let report = run_cluster(&cfg, inputs.clone()).unwrap();
            assert_eq!(
                report.values(),
                expect,
                "engine {} over {transport:?}",
                engine.label()
            );
            assert!(data_traffic(&report).bytes > 0);
        }
    }
}

#[test]
fn zero_bandwidth_throttle_is_rejected() {
    // A zero-capacity link never finishes a frame: the runner refuses the
    // config with an error before it wires a single link.
    let inputs = soccer_inputs(2, 1, 100, &[1, 1]);
    for engine in [
        EngineKind::Dema {
            gamma: GammaMode::Fixed(100),
            strategy: SelectionStrategy::WindowCut,
        },
        EngineKind::Centralized,
    ] {
        let mut cfg = ClusterConfig::baseline(engine, Quantile::MEDIAN);
        cfg.transport = TransportKind::Throttled { mbits_per_sec: 0 };
        let err = run_cluster(&cfg, inputs.clone()).unwrap_err();
        assert!(
            matches!(&err, ClusterError::Protocol(msg) if msg.contains("bandwidth")),
            "engine {}: {err}",
            engine.label()
        );
    }
}

#[test]
fn tcp_transport_matches_mem_transport() {
    let inputs = soccer_inputs(2, 2, 1_000, &[1, 1]);
    let mut mem_cfg = ClusterConfig::dema_fixed(100, Quantile::MEDIAN);
    mem_cfg.transport = TransportKind::Mem;
    let mut tcp_cfg = mem_cfg.clone();
    tcp_cfg.transport = TransportKind::Tcp;
    let mem = run_cluster(&mem_cfg, inputs.clone()).unwrap();
    let tcp = run_cluster(&tcp_cfg, inputs).unwrap();
    assert_eq!(mem.values(), tcp.values());
    // Byte accounting parity between transports.
    assert_eq!(data_traffic(&mem).bytes, data_traffic(&tcp).bytes);
    assert_eq!(data_traffic(&mem).events, data_traffic(&tcp).events);
}

#[test]
fn latency_is_recorded_per_window() {
    let inputs = soccer_inputs(2, 5, 1_000, &[1, 1]);
    let report = run_cluster(&ClusterConfig::dema_fixed(100, Quantile::MEDIAN), inputs).unwrap();
    assert_eq!(report.latency.count(), 5);
    assert!(report.mean_latency_us().unwrap() >= 0.0);
    assert!(
        report.outcomes.iter().all(|o| o.latency_us < 10_000_000),
        "latency sane"
    );
}

#[test]
fn quantile_extremes_q01_and_q100() {
    let inputs = soccer_inputs(2, 2, 1_000, &[1, 1]);
    for q in [Quantile::new(0.01).unwrap(), Quantile::new(1.0).unwrap()] {
        let expect = truths(&inputs, q);
        let report = run_cluster(&ClusterConfig::dema_fixed(64, q), inputs.clone()).unwrap();
        assert_eq!(report.values(), expect, "q={q}");
    }
}

#[test]
fn per_node_gamma_stays_exact_and_beats_global_on_heterogeneous_nodes() {
    // Node 0: slow (1k events/s); node 1: fast (20k events/s) and value-
    // disjoint (scale 50) — its slices never hold the global 25% quantile,
    // so its γ should grow towards "one slice per window".
    let q = Quantile::new(0.25).unwrap();
    let inputs: Vec<Vec<Vec<dema_core::event::Event>>> = vec![
        dema_gen::SoccerGenerator::new(1, 1, 1_000, 0).take_windows(16, 1000),
        dema_gen::SoccerGenerator::new(2, 50, 20_000, 0).take_windows(16, 1000),
    ];
    let expect = truths(&inputs, q);

    let mut per_node_cfg = ClusterConfig::baseline(
        EngineKind::Dema {
            gamma: GammaMode::AdaptivePerNode { initial: 64 },
            strategy: SelectionStrategy::WindowCut,
        },
        q,
    );
    // The γ feedback is asynchronous: the pace must leave it time to reach
    // the leaf before the next window even on a loaded two-core box (8 ms
    // failed the traffic comparison below 2 times in 15 under load).
    per_node_cfg.pace_window_ms = Some(25);
    let mut global_cfg = ClusterConfig::baseline(
        EngineKind::Dema {
            gamma: GammaMode::Adaptive { initial: 64 },
            strategy: SelectionStrategy::WindowCut,
        },
        q,
    );
    global_cfg.pace_window_ms = Some(25);

    let per_node = run_cluster(&per_node_cfg, inputs.clone()).unwrap();
    let global = run_cluster(&global_cfg, inputs).unwrap();

    // Exactness is non-negotiable under any γ policy.
    assert_eq!(per_node.values(), expect);
    assert_eq!(global.values(), expect);

    // The fast, never-a-candidate node should end up with far fewer
    // synopses under per-node γ, cutting identification traffic.
    let pn = data_traffic(&per_node);
    let gl = data_traffic(&global);
    assert!(
        pn.events < gl.events,
        "per-node γ should reduce traffic: {} vs {}",
        pn.events,
        gl.events
    );
}

#[test]
fn extra_quantiles_answered_from_one_calculation_step() {
    let inputs = soccer_inputs(3, 3, 2_000, &[1, 1, 1]);
    let mut cfg = ClusterConfig::dema_fixed(128, Quantile::MEDIAN);
    cfg.extra_quantiles = vec![Quantile::P25, Quantile::P75, Quantile::new(0.99).unwrap()];
    let report = run_cluster(&cfg, inputs.clone()).unwrap();
    for (w, outcome) in report.outcomes.iter().enumerate() {
        let per_node: Vec<Vec<dema_core::event::Event>> =
            inputs.iter().map(|n| n[w].clone()).collect();
        let truth = |q| quantile_ground_truth(&per_node, q).unwrap().value;
        assert_eq!(
            outcome.value,
            Some(truth(Quantile::MEDIAN)),
            "window {w} median"
        );
        assert_eq!(outcome.extra_values.len(), 3);
        assert_eq!(
            outcome.extra_values[0],
            truth(Quantile::P25),
            "window {w} p25"
        );
        assert_eq!(
            outcome.extra_values[1],
            truth(Quantile::P75),
            "window {w} p75"
        );
        assert_eq!(
            outcome.extra_values[2],
            truth(Quantile::new(0.99).unwrap()),
            "window {w} p99"
        );
    }

    // The shared run must cost less than four separate single-quantile runs.
    let shared = data_traffic(&report).plus(&report.control_traffic);
    let mut separate = dema_metrics::NetworkSnapshot::default();
    for q in [
        Quantile::MEDIAN,
        Quantile::P25,
        Quantile::P75,
        Quantile::new(0.99).unwrap(),
    ] {
        let r = run_cluster(&ClusterConfig::dema_fixed(128, q), inputs.clone()).unwrap();
        separate = separate.plus(&data_traffic(&r)).plus(&r.control_traffic);
    }
    assert!(
        shared.events < separate.events,
        "shared {} vs separate {}",
        shared.events,
        separate.events
    );
}
