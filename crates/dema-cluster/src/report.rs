//! Run reports: what the harness reads after a cluster run.

use std::time::Duration;

use dema_core::event::WindowId;
use dema_metrics::{FaultSnapshot, LatencyHistogram, NetworkSnapshot, ReactorSnapshot};

/// How a window's answer lost exactness when some locals' data never
/// arrived (dead nodes, exhausted retries). Produced only by resilient runs
/// ([`crate::ClusterConfig::resilience`]); a clean run never degrades.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// Locals whose contribution is missing from this window, ascending.
    pub missing_nodes: Vec<u32>,
    /// Dema only: an upper bound on how far the answer's global rank can
    /// sit from the requested one, in events. Derivable when every local's
    /// synopses arrived but some candidate slices were lost (the bound is
    /// the lost slices' synopsis counts summed); `None` when a whole node's
    /// synopses are missing (its window contribution is unknown) and for
    /// the non-Dema engines.
    pub rank_error_bound: Option<u64>,
    /// Retry messages the root sent for this window before completing it.
    pub retries: u32,
}

/// The outcome of one global window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// Which window.
    pub window: WindowId,
    /// The aggregate value (`None` for an empty window).
    pub value: Option<i64>,
    /// Values of the configured extra quantiles, in configuration order
    /// (empty unless `extra_quantiles` was set; Dema engine only).
    pub extra_values: Vec<i64>,
    /// Global window size `l_G`.
    pub total_events: u64,
    /// Window-close → result latency in microseconds.
    pub latency_us: u64,
    /// Dema only: candidate events fetched in the calculation step.
    pub candidate_events: u64,
    /// Dema only: number of candidate slices (the cost model's `m`).
    pub candidate_slices: u64,
    /// Dema only: synopses received for this window.
    pub synopses: u64,
    /// γ in effect when the window was sliced (Dema), 0 otherwise.
    pub gamma: u64,
    /// The membership epoch this window was computed under (0 for the whole
    /// run when no membership changes were staged; DESIGN.md §14).
    pub epoch: u64,
    /// `Some` when the window completed without every node's data
    /// (resilient runs only); `None` for an exact answer.
    pub degraded: Option<Degraded>,
}

/// Data-plane traffic one member contributed to one epoch, measured at the
/// root as its window messages arrive (receive-side accounting, so the
/// numbers are identical across transports and thread counts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochNodeTraffic {
    /// The contributing local node.
    pub node: u32,
    /// Window-keyed data-plane messages received (synopses, candidate
    /// replies, batches — membership and stream-end control excluded).
    pub messages: u64,
    /// Events carried by those messages ([`dema_wire::Message::event_units`]).
    pub events: u64,
}

/// Per-epoch accounting of a run with membership churn (a fixed-membership
/// run reports exactly one of these).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Epoch number (dense from 0).
    pub epoch: u64,
    /// First window computed under this epoch.
    pub first_window: u64,
    /// Member node ids, ascending.
    pub members: Vec<u32>,
    /// Nodes that joined at this epoch's boundary.
    pub joined: Vec<u32>,
    /// Nodes that drained away at this epoch's boundary.
    pub left: Vec<u32>,
    /// Membership handoffs at this boundary (joins + drains).
    pub handoffs: u64,
    /// Windows of this epoch finalized by the end of the run.
    pub windows_completed: u64,
    /// How many of them completed degraded.
    pub degraded_windows: u64,
    /// `EpochSwitch` broadcast → first finalized window of the epoch, in
    /// microseconds (0 for epoch 0 and for epochs whose first window
    /// resolved before the boundary broadcast went out).
    pub switch_latency_us: u64,
    /// Per-member data-plane traffic of this epoch, node-ascending.
    pub per_node: Vec<EpochNodeTraffic>,
}

/// Traffic attributed to one tier of the aggregation topology. Tier 0 is
/// the set of leaf links (local → first aggregator); the last tier is the
/// set of links into the root. For the star topology the report leaves
/// [`RunReport::tier_traffic`] empty — there is only one tier and it equals
/// `per_node_traffic` + `control_traffic`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierTraffic {
    /// Upward (data-plane) traffic per link of this tier, in link order.
    pub up: Vec<NetworkSnapshot>,
    /// Downward (control-plane) traffic per link of this tier (empty for
    /// engines with no control plane).
    pub down: Vec<NetworkSnapshot>,
}

impl TierTraffic {
    /// Total upward traffic across this tier's links.
    pub fn up_total(&self) -> NetworkSnapshot {
        self.up
            .iter()
            .fold(NetworkSnapshot::default(), |acc, s| acc.plus(s))
    }

    /// Total downward traffic across this tier's links.
    pub fn down_total(&self) -> NetworkSnapshot {
        self.down
            .iter()
            .fold(NetworkSnapshot::default(), |acc, s| acc.plus(s))
    }
}

/// Frame-buffer pool counters of a run. Always zero: no pool exists, and
/// each TCP connection frames into its own reused buffer. The struct is
/// kept because the benchmark's `wire.pool_reuse_ratio` still reads it; it
/// goes with that metric, which a benchmark-only change removes first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frame buffers handed out (always 0).
    pub acquires: u64,
    /// Of those, buffers recycled rather than allocated (always 0).
    pub reuses: u64,
}

/// Aggregated results of a cluster run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-window outcomes in window order.
    pub outcomes: Vec<WindowOutcome>,
    /// Data-plane traffic per local node (local → root link).
    pub per_node_traffic: Vec<NetworkSnapshot>,
    /// Control-plane traffic (root → locals: candidate requests, γ updates).
    pub control_traffic: NetworkSnapshot,
    /// Wall-clock duration of the whole run.
    pub wall_time: Duration,
    /// Total events ingested across all locals.
    pub total_events: u64,
    /// Latency distribution across windows (µs).
    pub latency: LatencyHistogram,
    /// Events dropped as late across all locals (streaming mode only).
    pub late_events: u64,
    /// Per-tier traffic attribution for tree topologies, tier 0 = leaf
    /// links, last tier = links into the root. Empty for the star topology.
    pub tier_traffic: Vec<TierTraffic>,
    /// Retry / degradation work the fault-tolerance layer did
    /// ([`FaultSnapshot::is_clean`] for an undisturbed run).
    pub fault_stats: FaultSnapshot,
    /// Reactor loop health aggregated over every shard plus the root loop:
    /// sweeps, delivered events, timer lag, ready-queue depth.
    pub reactor: ReactorSnapshot,
    /// Per-epoch accounting, epoch order (one entry for fixed-membership
    /// runs; DESIGN.md §14).
    pub epochs: Vec<EpochStats>,
    /// Locals that drained away cleanly (`DrainComplete` handshake), node
    /// order. Distinct from `dead_nodes`: a drained node is not a failure.
    pub drained_nodes: Vec<u32>,
    /// Locals declared dead by the liveness/retry budget, node order.
    pub dead_nodes: Vec<u32>,
    /// Process-wide allocator activity during the run (allocations and
    /// bytes per phase, reallocs), from the armed counting allocator
    /// ([`dema_core::alloc`]). All-zero when the allocator is disarmed
    /// (release builds without the `strict` feature).
    pub alloc: dema_core::alloc::AllocSnapshot,
    /// Frame-buffer pool counters; always zero (see [`WireStats`]).
    pub wire: WireStats,
}

impl RunReport {
    /// Events processed per wall-clock second.
    pub fn throughput_eps(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.total_events as f64 / secs
    }

    /// All traffic (data + control) summed across links.
    pub fn total_traffic(&self) -> NetworkSnapshot {
        self.per_node_traffic
            .iter()
            .fold(self.control_traffic, |acc, s| acc.plus(s))
    }

    /// The per-window quantile values, in window order.
    pub fn values(&self) -> Vec<Option<i64>> {
        self.outcomes.iter().map(|o| o.value).collect()
    }

    /// Mean latency in microseconds (`None` if no windows completed).
    pub fn mean_latency_us(&self) -> Option<f64> {
        self.latency.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RunReport {
        let mut latency = LatencyHistogram::new();
        latency.record(100);
        latency.record(300);
        RunReport {
            outcomes: vec![WindowOutcome {
                window: WindowId(0),
                value: Some(5),
                extra_values: vec![],
                total_events: 1000,
                latency_us: 100,
                candidate_events: 10,
                candidate_slices: 1,
                synopses: 4,
                gamma: 100,
                epoch: 0,
                degraded: None,
            }],
            per_node_traffic: vec![
                NetworkSnapshot {
                    bytes: 100,
                    messages: 2,
                    events: 8,
                },
                NetworkSnapshot {
                    bytes: 50,
                    messages: 1,
                    events: 4,
                },
            ],
            control_traffic: NetworkSnapshot {
                bytes: 10,
                messages: 1,
                events: 0,
            },
            wall_time: Duration::from_millis(500),
            total_events: 1000,
            latency,
            late_events: 0,
            tier_traffic: Vec::new(),
            fault_stats: FaultSnapshot::default(),
            reactor: ReactorSnapshot::default(),
            epochs: Vec::new(),
            drained_nodes: Vec::new(),
            dead_nodes: Vec::new(),
            alloc: dema_core::alloc::AllocSnapshot::default(),
            wire: WireStats::default(),
        }
    }

    #[test]
    fn throughput_is_events_over_wall_time() {
        assert_eq!(report().throughput_eps(), 2000.0);
    }

    #[test]
    fn traffic_sums_links() {
        let t = report().total_traffic();
        assert_eq!(
            t,
            NetworkSnapshot {
                bytes: 160,
                messages: 4,
                events: 12
            }
        );
    }

    #[test]
    fn values_and_latency() {
        let r = report();
        assert_eq!(r.values(), vec![Some(5)]);
        assert_eq!(r.mean_latency_us(), Some(200.0));
    }

    #[test]
    fn tier_traffic_totals() {
        let tier = TierTraffic {
            up: vec![
                NetworkSnapshot {
                    bytes: 100,
                    messages: 2,
                    events: 8,
                },
                NetworkSnapshot {
                    bytes: 50,
                    messages: 1,
                    events: 4,
                },
            ],
            down: vec![NetworkSnapshot {
                bytes: 10,
                messages: 1,
                events: 0,
            }],
        };
        assert_eq!(
            tier.up_total(),
            NetworkSnapshot {
                bytes: 150,
                messages: 3,
                events: 12
            }
        );
        assert_eq!(
            tier.down_total(),
            NetworkSnapshot {
                bytes: 10,
                messages: 1,
                events: 0
            }
        );
    }
}
