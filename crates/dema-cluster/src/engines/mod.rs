//! The engine plugin layer: one module per aggregation engine behind the
//! [`RootEngine`] / [`LocalEngine`] traits, plus the registry that owns
//! labels, exactness flags, and config validation.
//!
//! The shells in `root.rs` / `local.rs` are engine-agnostic: the root shell
//! counts stream ends, records latencies, and turns the engine's
//! [`ResolvedWindow`]s into report outcomes; the local shell paces windows
//! and stamps close times. Everything protocol-specific — which wire
//! messages an engine sends, how the root combines them, when a window is
//! done — lives in this directory. Adding an engine means adding one module
//! here and one row to [`REGISTRY`]; no `match` arm elsewhere grows.

pub mod centralized;
pub mod dec_sort;
pub mod dema;
pub mod kll_distributed;
pub mod retry;
pub mod tdigest_central;
pub mod tdigest_distributed;

pub use retry::ResilienceCtx;

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::quantile::Quantile;
use dema_net::MsgSender;
use dema_wire::Message;

use crate::config::EngineKind;
use crate::ClusterError;

/// Everything the root shell records when an engine finishes a window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResolvedWindow {
    /// The aggregate value (`None` for an empty window).
    pub value: Option<i64>,
    /// Extra quantile answers in configuration order (Dema engine only).
    pub extra_values: Vec<i64>,
    /// Global window size `l_G`.
    pub total_events: u64,
    /// Candidate events fetched in the calculation step (Dema only).
    pub candidate_events: u64,
    /// Candidate slice count `m` (Dema only).
    pub candidate_slices: u64,
    /// Synopses received for the window (Dema only).
    pub synopses: u64,
    /// γ in effect when the window was sliced (Dema), 0 otherwise.
    pub gamma: u64,
    /// `Some` when the window completed without every node's data
    /// (resilient runs only).
    pub degraded: Option<crate::report::Degraded>,
}

/// Root-side half of an engine: a per-window protocol state machine.
///
/// The shell feeds it every data-plane message except `StreamEnd` (which is
/// topology bookkeeping, not engine protocol). Finished windows are pushed
/// onto `resolved` — possibly several per call, e.g. when resolving one
/// window unblocks queued ones in a pipelined engine.
pub trait RootEngine: Send {
    /// Process one message from the locals.
    fn on_message(
        &mut self,
        msg: Message,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError>;

    /// Periodic fault-tolerance pass (resilient runs; the default is a
    /// no-op). `expected_windows` is the run's full window count,
    /// `quiescent` is `true` when nothing has reached the root for a full
    /// request timeout, and `missing_enders` lists locals that neither sent
    /// `StreamEnd` nor were declared dead. The engine checks deadlines,
    /// NACKs stragglers, and completes windows coverable from survivors.
    /// Returns nodes newly declared dead for the shell's accounting.
    fn on_tick(
        &mut self,
        expected_windows: u64,
        quiescent: bool,
        missing_enders: &[u32],
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<Vec<NodeId>, ClusterError> {
        let _ = (expected_windows, quiescent, missing_enders, resolved);
        Ok(Vec::new())
    }

    /// Earliest instant the engine's retry supervisor wants a tick —
    /// `None` when nothing is armed (and always on seed runs). The
    /// reactor runtime arms a timer here instead of ticking every sweep
    /// (DESIGN.md §13); an early or stale fire is harmless because
    /// `on_tick` re-checks real deadlines itself.
    fn next_deadline(&self) -> Option<std::time::Instant> {
        None
    }

    /// Install the run's membership epoch table (DESIGN.md §14). Engines
    /// without churn support ignore it; the root shell installs it before
    /// the first message and the runner rejects churn plans for such
    /// engines, so ignoring is safe.
    fn set_membership(&mut self, ledger: std::sync::Arc<crate::membership::EpochLedger>) {
        let _ = ledger;
    }

    /// Send one shell-originated control message (membership handshake) on
    /// `node`'s control link. Returns `Ok(false)` when the engine has no
    /// control plane — the shell treats that as a wiring error on churn
    /// runs.
    fn send_control(&mut self, node: u32, msg: &Message) -> Result<bool, ClusterError> {
        let _ = (node, msg);
        Ok(false)
    }

    /// The γ currently in effect (0 for engines without γ control) — what
    /// a `JoinAccept` hands a joiner so it slices its first window with
    /// fresh feedback instead of the run's initial γ.
    fn current_gamma(&self) -> u64 {
        0
    }

    /// A local departed cleanly (drain handshake finished). The engine
    /// cancels its liveness accounting for the node so no deadline ever
    /// produces a false death verdict for a drained member.
    fn on_node_drained(&mut self, node: NodeId) {
        let _ = node;
    }

    /// The shell broadcast `EpochSwitch { epoch }`: the member count just
    /// changed, so the engine re-seeds any `l_G`-dependent state (Dema's
    /// adaptive γ controllers restart from their current value — the old
    /// membership's observation history no longer describes the cluster).
    fn on_epoch_switch(&mut self, epoch: u64) {
        let _ = epoch;
    }
}

/// Local-side half of an engine: the duty performed per closed window.
pub trait LocalEngine {
    /// Handle one closed window's events, sending whatever the engine's
    /// protocol requires to the root.
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError>;
}

/// Construction parameters for a root engine.
pub struct RootParams {
    /// The quantile every window computes.
    pub quantile: Quantile,
    /// Extra per-window quantiles (engines without a shared identification
    /// step ignore these).
    pub extra_quantiles: Vec<Quantile>,
    /// Number of local (leaf) nodes reporting.
    pub n_locals: usize,
    /// Root→local control links, one per local, in node order (empty for
    /// engines without a control plane when the run is not resilient).
    pub control: Vec<Box<dyn MsgSender>>,
    /// Retry / liveness parameters plus the fault-counter sink. `None`
    /// runs the seed protocol unchanged.
    pub resilience: Option<ResilienceCtx>,
    /// Max windows the root admits into its identification/calculation
    /// stage at once (engines without a window pipeline ignore this;
    /// clamped to at least 1). See [`dema::PIPELINE_DEPTH`] for the
    /// default and the trade-off.
    pub pipeline_depth: usize,
}

/// Static facts about one registered engine.
pub struct EngineDescriptor {
    /// Short label for reports and tables.
    pub label: &'static str,
    /// `true` if the engine computes exact quantiles.
    pub exact: bool,
    /// `true` if the engine needs root→local control links and a responder
    /// role per local (today: only Dema's calculation step).
    pub control_plane: bool,
    /// Human-readable wire-cost summary (README engine table).
    pub wire_cost: &'static str,
    /// A canonical instance for registry-driven matrix tests.
    pub example: fn() -> EngineKind,
    /// Protocol-spec roles this engine implements — names that must
    /// resolve in `dema-model`'s declarative protocol specification.
    /// The spec's conformance checkers (lint R6/R7, the interleaving
    /// explorer) pick the state machines to check from here, so an engine
    /// without roles fails the registry test, not in production.
    pub roles: &'static [&'static str],
}

/// All registered engines, in presentation order.
pub static REGISTRY: [EngineDescriptor; 6] = [
    EngineDescriptor {
        label: "dema",
        exact: true,
        control_plane: true,
        wire_cost: "2·l/γ + m·γ events per window",
        example: || EngineKind::Dema {
            gamma: crate::config::GammaMode::Fixed(128),
            strategy: dema_core::selector::SelectionStrategy::WindowCut,
        },
        roles: &["dema-root", "dema-local", "dema-responder"],
    },
    EngineDescriptor {
        label: "centralized",
        exact: true,
        control_plane: false,
        wire_cost: "l events per window (raw)",
        example: || EngineKind::Centralized,
        roles: &["centralized-root", "centralized-local"],
    },
    EngineDescriptor {
        label: "dec-sort",
        exact: true,
        control_plane: false,
        wire_cost: "l events per window (sorted runs)",
        example: || EngineKind::DecSort,
        roles: &["dec-sort-root", "dec-sort-local"],
    },
    EngineDescriptor {
        label: "tdigest",
        exact: false,
        control_plane: false,
        wire_cost: "l events per window (raw)",
        example: || EngineKind::TdigestCentral { compression: 100.0 },
        roles: &["tdigest-root", "tdigest-local"],
    },
    EngineDescriptor {
        label: "tdigest-dist",
        exact: false,
        control_plane: false,
        wire_cost: "O(δ) centroids per node per window",
        example: || EngineKind::TdigestDistributed { compression: 100.0 },
        roles: &["tdigest-dist-root", "tdigest-dist-local"],
    },
    EngineDescriptor {
        label: "kll-dist",
        exact: false,
        control_plane: false,
        wire_cost: "O(k) weighted items per node per window",
        example: || EngineKind::KllDistributed { k: 256 },
        roles: &["kll-root", "kll-local"],
    },
];

/// The registry row describing `kind`.
pub fn descriptor(kind: EngineKind) -> &'static EngineDescriptor {
    let idx = match kind {
        EngineKind::Dema { .. } => 0,
        EngineKind::Centralized => 1,
        EngineKind::DecSort => 2,
        EngineKind::TdigestCentral { .. } => 3,
        EngineKind::TdigestDistributed { .. } => 4,
        EngineKind::KllDistributed { .. } => 5,
    };
    &REGISTRY[idx]
}

/// Validate an engine configuration before wiring a cluster for it.
///
/// # Errors
/// [`ClusterError::Protocol`] describing the rejected parameter.
pub fn validate(kind: EngineKind) -> Result<(), ClusterError> {
    match kind {
        EngineKind::Dema { gamma, .. } if gamma.initial() < 2 => Err(ClusterError::Protocol(
            format!("dema: γ must be ≥ 2, got {}", gamma.initial()),
        )),
        EngineKind::TdigestCentral { compression }
        | EngineKind::TdigestDistributed { compression }
            if !(compression.is_finite() && compression > 0.0) =>
        {
            Err(ClusterError::Protocol(format!(
                "tdigest: compression must be finite and positive, got {compression}"
            )))
        }
        EngineKind::KllDistributed { k } if k < 8 => Err(ClusterError::Protocol(format!(
            "kll: k must be ≥ 8, got {k}"
        ))),
        _ => Ok(()),
    }
}

/// The γ the locals start with (2 — the no-op slice factor — for engines
/// without γ control).
pub fn initial_gamma(kind: EngineKind) -> u64 {
    match kind {
        EngineKind::Dema { gamma, .. } => gamma.initial(),
        _ => 2,
    }
}

/// Build the root-side engine for `kind`.
pub fn build_root(kind: EngineKind, params: RootParams) -> Box<dyn RootEngine> {
    match kind {
        EngineKind::Dema { gamma, strategy } => {
            Box::new(dema::DemaRoot::new(gamma, strategy, params))
        }
        EngineKind::Centralized => Box::new(centralized::CentralizedRoot::new(params)),
        EngineKind::DecSort => Box::new(dec_sort::DecSortRoot::new(params)),
        EngineKind::TdigestCentral { compression } => Box::new(
            tdigest_central::TdigestCentralRoot::new(compression, params),
        ),
        EngineKind::TdigestDistributed { .. } => {
            Box::new(tdigest_distributed::TdigestDistributedRoot::new(params))
        }
        EngineKind::KllDistributed { .. } => Box::new(kll_distributed::KllRoot::new(params)),
    }
}

/// Build the local-side engine for `kind`. `shared` carries the γ cell and
/// slice store; engines without a control plane ignore it.
pub fn build_local(kind: EngineKind, shared: &dema::LocalShared) -> Box<dyn LocalEngine + '_> {
    match kind {
        EngineKind::Dema { .. } => Box::new(dema::DemaLocal::new(shared)),
        EngineKind::Centralized => Box::new(centralized::CentralizedLocal),
        EngineKind::DecSort => Box::new(dec_sort::DecSortLocal::new(shared.threads)),
        EngineKind::TdigestCentral { .. } => Box::new(tdigest_central::TdigestCentralLocal),
        EngineKind::TdigestDistributed { compression } => Box::new(
            tdigest_distributed::TdigestDistributedLocal::new(compression),
        ),
        EngineKind::KllDistributed { k } => Box::new(kll_distributed::KllLocal::new(k)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_labels_are_unique_and_consistent() {
        let mut labels: Vec<&str> = REGISTRY.iter().map(|d| d.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), REGISTRY.len(), "duplicate engine label");
        for d in &REGISTRY {
            let kind = (d.example)();
            assert_eq!(descriptor(kind).label, d.label);
            assert_eq!(kind.label(), d.label);
            assert_eq!(kind.is_exact(), d.exact);
            assert!(
                validate(kind).is_ok(),
                "example config for {} must validate",
                d.label
            );
        }
    }

    #[test]
    fn every_engine_declares_protocol_roles() {
        // Each engine names the protocol-spec state machines it implements:
        // at least a root-side and a local-side role, with no duplicates
        // across engines. `dema-model`'s registry test closes the loop by
        // resolving every name against the declarative spec.
        let mut seen = std::collections::HashSet::new();
        for d in &REGISTRY {
            assert!(
                !d.roles.is_empty(),
                "engine {} declares no protocol-spec roles",
                d.label
            );
            assert!(
                d.roles.iter().any(|r| r.ends_with("-root")),
                "engine {} declares no root-side role",
                d.label
            );
            assert!(
                d.roles.iter().any(|r| r.ends_with("-local")),
                "engine {} declares no local-side role",
                d.label
            );
            assert_eq!(
                d.roles.iter().any(|r| r.ends_with("-responder")),
                d.control_plane,
                "engine {}: responder role must match the control-plane flag",
                d.label
            );
            for r in d.roles {
                assert!(seen.insert(*r), "role {r} declared by two engines");
            }
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(validate(EngineKind::KllDistributed { k: 2 }).is_err());
        assert!(validate(EngineKind::TdigestCentral { compression: 0.0 }).is_err());
        assert!(validate(EngineKind::TdigestDistributed {
            compression: f64::NAN
        })
        .is_err());
        assert!(validate(EngineKind::Dema {
            gamma: crate::config::GammaMode::Fixed(1),
            strategy: dema_core::selector::SelectionStrategy::WindowCut,
        })
        .is_err());
    }
}
