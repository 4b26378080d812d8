//! Reactor fan-out: wall cost of leaf count at fixed global load.
//!
//! The reactor runtime makes node count a wiring parameter — every leaf
//! (and its responder) is a stepper on a shard event loop, not a thread.
//! This group holds the per-window global dataset fixed and scales only
//! how many leaves it is dealt across, so the reported rate isolates the
//! per-node hosting overhead: registration-order source sweeps, per-role
//! outbound queues, and the root's fan-in. A thread-per-node runtime
//! could not run the 1000-leaf point at all on CI hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use dema_cluster::config::ClusterConfig;
use dema_cluster::runner::run_cluster;
use dema_core::event::Event;
use dema_core::quantile::Quantile;

const WINDOWS: u64 = 3;
const EVENTS_PER_WINDOW: usize = 8_000;

/// One global dataset per window dealt round-robin over `leaves` nodes —
/// the same multiset at every scale, so the answers (and the root's
/// candidate work) stay constant while only the fan-out varies.
fn dealt_inputs(leaves: usize) -> Vec<Vec<Vec<Event>>> {
    (0..leaves)
        .map(|n| {
            (0..WINDOWS)
                .map(|w| {
                    (0..EVENTS_PER_WINDOW)
                        .filter(|j| j % leaves == n)
                        .map(|j| {
                            Event::new(
                                w as i64 * 1_000_000 + j as i64,
                                w,
                                w * EVENTS_PER_WINDOW as u64 + j as u64,
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn bench_leaf_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("reactor_scale");
    group.sample_size(10);
    for leaves in [8usize, 64, 256, 1000, 4000] {
        let inputs = dealt_inputs(leaves);
        group.throughput(Throughput::Elements(
            (WINDOWS as usize * EVENTS_PER_WINDOW) as u64,
        ));
        let config = ClusterConfig::dema_fixed(64, Quantile::MEDIAN);
        group.bench_with_input(
            BenchmarkId::new("dema_leaves", leaves),
            &config,
            |b, config| b.iter(|| black_box(run_cluster(config, inputs.clone()).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_leaf_scaling);
criterion_main!(benches);
