//! Thread-count determinism: how many shards host the leaves must be
//! invisible on the wire. A run on one shard and a run on four must
//! produce byte-identical results AND byte-identical traffic counters —
//! values, outcomes, per-node/control/tier bytes, messages, and event
//! counts all equal.

use dema_cluster::config::{ClusterConfig, EngineKind, GammaMode};
use dema_cluster::engines::REGISTRY;
use dema_cluster::report::RunReport;
use dema_cluster::runner::run_cluster;
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_core::selector::SelectionStrategy;
use dema_gen::SoccerGenerator;

/// Aligned per-window inputs, long enough for the radix path of the
/// window sort.
fn big_inputs(n: usize, windows: usize) -> Vec<Vec<Vec<Event>>> {
    (0..n)
        .map(|i| SoccerGenerator::new(42 + i as u64, 1, 9_192, 0).take_windows(windows, 1000))
        .collect()
}

/// Run one config at an explicit shard count.
fn run_at(mut config: ClusterConfig, threads: usize, inputs: &[Vec<Vec<Event>>]) -> RunReport {
    config.threads = Some(threads);
    run_cluster(&config, inputs.to_vec()).unwrap()
}

/// Every observable the report exposes that the protocol fixes
/// deterministically. (Wall-clock and latency are excluded — those are
/// exactly what threading is allowed to change.)
fn assert_reports_identical(a: &RunReport, b: &RunReport, label: &str) {
    assert_eq!(a.values(), b.values(), "{label}: window values diverged");
    assert_eq!(
        a.outcomes.len(),
        b.outcomes.len(),
        "{label}: outcome counts diverged"
    );
    for (w, (oa, ob)) in a.outcomes.iter().zip(&b.outcomes).enumerate() {
        assert_eq!(oa.value, ob.value, "{label}: window {w} value");
        assert_eq!(
            oa.extra_values, ob.extra_values,
            "{label}: window {w} extra quantiles"
        );
        assert_eq!(
            oa.total_events, ob.total_events,
            "{label}: window {w} event count"
        );
    }
    assert_eq!(a.total_events, b.total_events, "{label}: total events");
    assert_eq!(
        a.per_node_traffic, b.per_node_traffic,
        "{label}: per-node traffic counters diverged — the sort leaked onto the wire"
    );
    assert_eq!(
        a.control_traffic, b.control_traffic,
        "{label}: control-plane traffic diverged"
    );
    assert_eq!(
        a.tier_traffic, b.tier_traffic,
        "{label}: tier traffic diverged"
    );
}

#[test]
fn dema_traffic_is_bit_identical_across_thread_counts() {
    let inputs = big_inputs(2, 3);
    let config = ClusterConfig::dema_fixed(512, Quantile::MEDIAN);
    let serial = run_at(config.clone(), 1, &inputs);
    let parallel = run_at(config, 4, &inputs);
    assert_reports_identical(&serial, &parallel, "dema");
    // Sanity: the run actually did work at this scale.
    assert!(serial.total_events > 2 * 8_192);
}

#[test]
fn dec_sort_batches_are_bit_identical_across_thread_counts() {
    // DecSort ships the *sorted run itself*, so any instability in the
    // sort would change wire bytes, not just ordering in memory. The other
    // one-shot engines ride along: their roots answer from the window's
    // parts in node order, so the shard count (which decides arrival
    // order) must not move a value — not even the order-sensitive
    // t-digest merge.
    let inputs = big_inputs(2, 2);
    for desc in REGISTRY.iter().filter(|d| !d.control_plane) {
        let config = ClusterConfig::baseline((desc.example)(), Quantile::P75);
        let serial = run_at(config.clone(), 1, &inputs);
        let parallel = run_at(config, 4, &inputs);
        assert_reports_identical(&serial, &parallel, desc.label);
    }
}

#[test]
fn adaptive_gamma_stays_exact_across_thread_counts() {
    // Adaptive γ feeds observed l_G back into later windows' slicing, but
    // the update is delivered asynchronously on the control plane: which
    // window first slices with the new factor depends on arrival timing,
    // not on the shard count, so traffic counters are legitimately
    // run-dependent here (the paced example in examples/adaptive_gamma.rs
    // is what makes the trajectory visible deterministically). What IS
    // invariant — for every γ trajectory — is exactness: Dema's answer
    // per window must be bit-identical no matter how the windows were
    // sliced or sorted. Pin that, at a window size on the radix path.
    let inputs = big_inputs(2, 3);
    let mut config = ClusterConfig::dema_fixed(256, Quantile::MEDIAN);
    config.engine = EngineKind::Dema {
        gamma: GammaMode::Adaptive { initial: 256 },
        strategy: SelectionStrategy::WindowCut,
    };
    let serial = run_at(config.clone(), 1, &inputs);
    let parallel = run_at(config, 4, &inputs);
    assert_eq!(
        serial.values(),
        parallel.values(),
        "adaptive: window values diverged"
    );
    assert_eq!(serial.total_events, parallel.total_events);
    for (w, (oa, ob)) in serial.outcomes.iter().zip(&parallel.outcomes).enumerate() {
        assert_eq!(oa.value, ob.value, "adaptive: window {w} value");
        assert_eq!(
            oa.total_events, ob.total_events,
            "adaptive: window {w} event count"
        );
    }
}
