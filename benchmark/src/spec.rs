//! What the benchmark measures: the four workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics. `BENCHMARK.json`
//! at the repo root is generated from these tables (`dema-benchmark spec`)
//! and a unit test keeps the two identical, so the bounds `repeat` enforces
//! are the bounds the file states.

use dema_cluster::{ClusterConfig, TransportKind};
use dema_core::quantile::Quantile;

/// Windows per unpaced run. An unpaced run with more windows per leaf than
/// the leaves' slice store holds (`STORE_WINDOW_CAP = 64` in
/// `dema-cluster`) stalls: leaves evict slices the root has not asked for
/// yet. 48 stays under it; the watchdog catches it if that ever changes.
pub const RUN_WINDOWS: usize = 48;

/// Most windows in one paced run, and most bytes of input events one paced
/// run is given: `run_cluster` takes its inputs by value, so every window of
/// a run is in memory before the run starts. 96 MiB is about what one
/// saturate run of the largest workload is given.
pub const PACED_RUN_MAX: usize = 250;
pub const PACED_INPUT_BYTES: usize = 96 << 20;

/// Latency samples per block of `latency_p95_us` (the median over blocks of
/// each block's p95): the fewest that leave ten samples beyond a p95.
pub const P95_BLOCK: usize = 200;

/// Leading windows of every paced run left out of the latency sample.
pub const PACED_DISCARD: usize = 10;

/// Reactor shards and sort budget of every run. The box has two cores and
/// the whole cluster is driven from this one process.
pub const THREADS: usize = 2;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 26;

/// One workload: seeded `SoccerGenerator` values, uniform scale rates, the
/// median, star topology, window-cut selection.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub why: &'static str,
    pub leaves: usize,
    pub events_per_leaf: u64,
    pub gamma: u64,
    pub transport: TransportKind,
    /// Window period of the paced phase. Fixed here, about 2.5 times the
    /// saturate phase's per-window time on the seed commit (README.md has
    /// the numbers); never derived from a measurement at run time, so the
    /// offered load is the same on both sides of a comparison.
    pub period_ms: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bulk-mem",
        why: "8 leaves x 10,000 events, gamma 512, mem links: the per-leaf sort (radix + pool) and slicing dominate; reactor and codec do almost nothing",
        leaves: 8,
        events_per_leaf: 10_000,
        gamma: 512,
        transport: TransportKind::Mem,
        period_ms: 4,
    },
    Workload {
        name: "fanout-mem",
        why: "512 leaves x 32 events, gamma 64, mem links: reactor sweeps, per-role queues and root fan-in dominate; the sort does nothing",
        leaves: 512,
        events_per_leaf: 32,
        gamma: 64,
        transport: TransportKind::Mem,
        period_ms: 19,
    },
    Workload {
        name: "coarse-tcp",
        why: "8 leaves x 2,500 events, gamma 1,250, loopback TCP: most slices are candidates, so frame encode/decode, socket I/O and select_kth over long runs are on the critical path",
        leaves: 8,
        events_per_leaf: 2_500,
        gamma: 1_250,
        transport: TransportKind::Tcp,
        period_ms: 3,
    },
    Workload {
        name: "finegamma-mem",
        why: "bulk-mem's data with gamma 8, mem links: 10,000 synopses per window, so root synopsis ordering, window-cut and per-message dispatch dominate instead of the sort",
        leaves: 8,
        events_per_leaf: 10_000,
        gamma: 8,
        transport: TransportKind::Mem,
        period_ms: 11,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The cluster configuration of this workload; `pace` selects the phase.
    pub fn config(&self, pace: Option<u64>) -> ClusterConfig {
        let mut config = ClusterConfig::dema_fixed(self.gamma, Quantile::MEDIAN);
        config.transport = self.transport;
        config.threads = Some(THREADS);
        config.pace_window_ms = pace;
        config
    }

    /// Global window size `l_G`.
    pub fn global_events(&self) -> u64 {
        self.leaves as u64 * self.events_per_leaf
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload. `failed_share` is
/// reported by every run but is not listed here: the driver's contract
/// wants metrics that are never 0 and carries failures in the result
/// line's `attempted` / `failed` instead.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "windows_per_s", unit: "windows/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_p95_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wire_bytes_per_window", unit: "bytes", better: Better::Lower, bound: 0.05 },
    EndToEnd { name: "cpu_s_per_kwindow", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics (layer = crate), all per window unless the name
/// says otherwise. README.md states which end-to-end metric each should
/// move, on which workload.
pub const PER_LAYER: [PerLayer; 35] = [
    layer("gen.events_per_s", "events/s", Better::Higher),
    layer("core.sort_us", "us", Better::Lower),
    layer("core.slice_us", "us", Better::Lower),
    layer("core.select_us", "us", Better::Lower),
    layer("core.merge_us", "us", Better::Lower),
    layer("wire.encode_us", "us", Better::Lower),
    layer("wire.decode_us", "us", Better::Lower),
    layer("wire.ident_bytes", "bytes", Better::Lower),
    layer("wire.calc_bytes", "bytes", Better::Lower),
    layer("wire.control_bytes", "bytes", Better::Lower),
    layer("wire.pool_reuse_ratio", "ratio", Better::Higher),
    layer("net.send_us", "us", Better::Lower),
    layer("net.recv_us", "us", Better::Lower),
    layer("net.messages", "count", Better::Lower),
    layer("net.reactor_sweeps", "count", Better::Lower),
    layer("net.reactor_events_per_sweep", "ratio", Better::Higher),
    layer("net.reactor_max_ready_depth", "count", Better::Lower),
    layer("net.reactor_max_timer_lag_us", "us", Better::Lower),
    layer("cluster.local_step_us", "us", Better::Lower),
    layer("cluster.root_ident_us", "us", Better::Lower),
    layer("cluster.responder_us", "us", Better::Lower),
    layer("cluster.root_calc_us", "us", Better::Lower),
    layer("cluster.walk_us", "us", Better::Lower),
    layer("cluster.hosting_ratio", "ratio", Better::Lower),
    layer("cluster.synopses", "count", Better::Lower),
    layer("cluster.candidate_slices", "count", Better::Lower),
    layer("cluster.candidate_events", "count", Better::Lower),
    layer("cluster.gamma", "count", Better::Higher),
    layer("cluster.cost_model_ratio", "ratio", Better::Lower),
    layer("cluster.backlog_latency_p50_us", "us", Better::Lower),
    layer("cluster.paced_over_period_share", "ratio", Better::Lower),
    layer("cluster.retries", "count", Better::Lower),
    layer("cluster.degraded_windows", "count", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
    layer("trace.self_sum_ratio", "ratio", Better::Lower),
];

/// The unit a metric is reported in.
pub fn unit_of(name: &str) -> &'static str {
    let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
    let per_layer = PER_LAYER.iter().map(|m| (m.name, m.unit));
    end_to_end.chain(per_layer).find(|m| m.0 == name).map(|m| m.1).expect("a metric of the tables above")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads =
        WORKLOADS.iter().map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        let (name, unit, better, bound) = (m.name, m.unit, m.better.as_str(), m.bound);
        format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}")
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        let (name, unit, better) = (m.name, m.unit, m.better.as_str());
        format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
    });
    s.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", rows(workloads.collect())));
    s.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", rows(end_to_end.collect())));
    s.push_str(&format!("  \"per_layer\": [\n{}\n", rows(per_layer.collect())));
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16, "unit {u} too long");
            assert!(
                u.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit {u}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_at_the_repo_root_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `dema-benchmark spec`");
        assert!(on_disk.len() <= 64 * 1024);
    }
}
