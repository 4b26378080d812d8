//! Constant-space steady state: the dynamic twin of lint rules R15–R17.
//!
//! With the counting allocator armed (debug builds, or `--features strict`
//! in release), a Dema star run over the in-memory transport is measured
//! *differentially*: after one warm-up on the longer input (one-time costs:
//! lazy statics, the wire buffer pool, pool threads), a `W`-window run and a
//! `2W`-window run differ only in `W` extra windows per leaf, so
//! `(allocs(2W) − allocs(W)) / (W · leaves)` is what one more leaf-window
//! costs. The hot-path phases whose scratch is reused must cost nothing;
//! the rest is pinned at its measured count so it can only shrink.
//!
//! `RunReport.alloc` reads the process-wide counters, which is why this
//! file holds a single test: nothing else may allocate in its process.

use dema_cluster::config::ClusterConfig;
use dema_cluster::runner::run_cluster;
use dema_core::alloc::{phase_name, Phase, PHASES};
use dema_core::event::Event;
use dema_core::quantile::Quantile;
use dema_gen::SoccerGenerator;

const LEAVES: usize = 4;
/// Windows in the short run; the long run has twice as many.
const W: usize = 6;

/// Allowed allocations per additional leaf-window, by phase. Slice is the
/// shared run's 40-byte header (the sorted buffer itself is held, not
/// copied) plus the slice vector, measured exactly 2; Other (reports,
/// synopsis vectors, queue nodes, …) measures ≈ 24 and is not pooled yet.
const CEILING: [u64; PHASES] = {
    let mut c = [0; PHASES];
    c[Phase::Slice as usize] = 2;
    c[Phase::Other as usize] = 32;
    c
};

fn inputs(windows: usize) -> Vec<Vec<Vec<Event>>> {
    (0..LEAVES)
        .map(|i| SoccerGenerator::new(7 + i as u64, 1, 2_000, 0).take_windows(windows, 1000))
        .collect()
}

#[test]
fn dema_star_marginal_window_allocations_are_pinned() {
    if !dema_core::alloc::armed() {
        // Disarmed (plain release) builds have no counters to gate on.
        return;
    }
    let config = ClusterConfig::dema_fixed(64, Quantile::MEDIAN);
    let (short_in, long_in) = (inputs(W), inputs(2 * W));

    let warm = run_cluster(&config, long_in.clone()).expect("warm-up run");
    let short = run_cluster(&config, short_in).expect("W-window run");
    let long = run_cluster(&config, long_in).expect("2W-window run");

    assert_eq!(warm.values(), long.values(), "runs must stay bit-identical");
    assert_eq!(short.values(), long.values()[..W], "W is a prefix of 2W");
    assert!(
        short.alloc.fresh_total() > 0,
        "an armed run must observe allocator traffic, got {:?}",
        short.alloc
    );

    let leaf_windows = (W * LEAVES) as u64;
    let marginal = long.alloc.since(&short.alloc).fresh;
    let per_leaf_window: Vec<String> = (0..PHASES)
        .map(|p| {
            let rate = marginal[p] as f64 / leaf_windows as f64;
            format!("{} {rate:.2} (≤ {})", phase_name(p), CEILING[p])
        })
        .collect();
    assert!(
        (0..PHASES).all(|p| marginal[p] <= CEILING[p] * leaf_windows),
        "allocations per additional leaf-window: {}\nW-window run {:?}\n2W-window run {:?}",
        per_leaf_window.join(", "),
        short.alloc,
        long.alloc,
    );
}
