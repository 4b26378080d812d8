//! Repeatability and lock-order gates over the cluster runtime.
//!
//! Two halves. (1) Repeated `ClusterConfig { threads: 4 }` runs in one
//! process are bit-identical: no run leaves state behind (thread-local
//! sort and merge scratch, the wire buffer pool, latched defaults) that
//! changes the next one. (2) The runtime lock-order tracker
//! (`dema_core::sync`): a full cluster run completes with the tracker
//! armed (debug / `--features strict`), and an intentionally *inverted*
//! acquisition — taking a low-ranked cluster lock while a high-ranked one
//! is held — fires `DemaError::LockOrderViolation` naming both sites,
//! mirroring the chaos suite's pattern of proving the detector detects.

use dema_cluster::config::ClusterConfig;
use dema_cluster::runner::run_cluster;
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_gen::SoccerGenerator;

/// Windows long enough for the radix path of the window sort.
fn big_inputs(nodes: usize, windows: usize) -> Vec<Vec<Vec<Event>>> {
    (0..nodes)
        .map(|i| SoccerGenerator::new(7 + i as u64, 1, 9_192, 0).take_windows(windows, 1000))
        .collect()
}

#[test]
fn repeated_threaded_runs_are_bit_identical() {
    let mut config = ClusterConfig::dema_fixed(150, Quantile::MEDIAN);
    config.threads = Some(4);
    let inputs = big_inputs(2, 2);

    let first = run_cluster(&config, inputs.clone()).expect("first run");
    for round in 0..2 {
        let again = run_cluster(&config, inputs.clone()).expect("repeat run");
        assert_eq!(again.values(), first.values(), "round {round}: values");
        assert_eq!(
            again.per_node_traffic, first.per_node_traffic,
            "round {round}: per-node traffic"
        );
        assert_eq!(
            again.control_traffic, first.control_traffic,
            "round {round}: control traffic"
        );
    }
}

/// A whole windowed run under the armed tracker: every ranked lock the
/// runtime takes (downlinks, throttle, close times) respects the global
/// order, or the run panics here.
#[test]
fn full_run_respects_the_lock_ranking_under_the_tracker() {
    let mut config = ClusterConfig::dema_fixed(64, Quantile::MEDIAN);
    config.threads = Some(4);
    let report = run_cluster(&config, big_inputs(3, 2)).expect("run");
    assert_eq!(report.values().len(), 2);
}

/// The intentionally-inverted self-test: the tracker must *fire* when
/// ranks are acquired out of order, or the gate above proves nothing.
#[cfg(any(debug_assertions, feature = "strict"))]
#[test]
fn inverted_cluster_ranks_fire_the_tracker() {
    use dema_core::sync::{rank, Mutex};
    use dema_core::DemaError;

    // cluster.close_times (rank 54) is ranked above relay.downlink
    // (rank 20): holding the close-time map while taking a downlink is the
    // inversion the static rule R10 and this tracker both exist to catch.
    let close_times = Mutex::new(rank::CLOSE_TIMES, ());
    let downlink = Mutex::new(rank::ROUTED_DOWNLINK, ());
    let _held = close_times.lock();
    let err = downlink.lock_checked().err();
    match err {
        Some(DemaError::LockOrderViolation { held, acquiring }) => {
            assert_eq!(held, "cluster.close_times(rank 54)");
            assert_eq!(acquiring, "relay.downlink(rank 20)");
        }
        Some(other) => panic!("wrong error: {other}"),
        None => panic!("tracker failed to fire on an inverted acquisition"),
    }
}
