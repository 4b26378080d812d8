//! Run the same small Dema workload over the in-memory and the real TCP
//! loopback transport and show that the answers — and the accounted wire
//! bytes — are identical.
//!
//! ```sh
//! cargo run --release -p dema-cluster --example tcp_run
//! ```

use dema_cluster::config::{ClusterConfig, TransportKind};
use dema_cluster::runner::{data_traffic, run_cluster};
use dema_core::event::Event;
use dema_core::quantile::Quantile;

fn inputs() -> Vec<Vec<Vec<Event>>> {
    // 2 locals × 3 windows; a fixed LCG keeps the run reproducible.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as i64 % 10_000
    };
    (0..2)
        .map(|n| {
            (0..3)
                .map(|w| {
                    (0..2_000)
                        .map(|i| Event::new(next(), w, n * 1_000_000 + w * 10_000 + i))
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn main() {
    let inputs = inputs();
    let mut config = ClusterConfig::dema_fixed(100, Quantile::MEDIAN);

    config.transport = TransportKind::Mem;
    let mem = run_cluster(&config, inputs.clone()).expect("mem run");

    config.transport = TransportKind::Tcp;
    let tcp = run_cluster(&config, inputs).expect("tcp run");

    println!("window  mem_median  tcp_median");
    for (m, t) in mem.outcomes.iter().zip(&tcp.outcomes) {
        println!("{:>6}  {:>10?}  {:>10?}", m.window.0, m.value, t.value);
    }
    let (mb, tb) = (data_traffic(&mem), data_traffic(&tcp));
    println!("data bytes: mem={} tcp={}", mb.bytes, tb.bytes);
    assert_eq!(
        mem.values(),
        tcp.values(),
        "transports must agree on every quantile"
    );
    assert_eq!(
        mb.bytes, tb.bytes,
        "byte accounting must be transport-independent"
    );
    assert_eq!(mb.events, tb.events);
    println!("ok: identical answers and identical accounted traffic");
}
