#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # dema-cluster
//!
//! The decentralized cluster runtime: local-node and root-node threads wired
//! by accounted transports, executing one of six pluggable engines (see
//! [`engines`]) over identical inputs:
//!
//! * **Dema** — the paper's contribution: local sort + slice, synopses to
//!   the root, window-cut candidate selection, candidate fetch, exact
//!   quantile. Fixed or adaptive γ.
//! * **Centralized** — the Scotty/Flink baseline: every raw event to the
//!   root, which sorts and picks the quantile.
//! * **DecSort** — the modified-Desis baseline: locals sort, ship sorted
//!   runs, the root k-way merges (never re-sorts).
//! * **TdigestCentral** — the paper's Tdigest baseline: raw events to the
//!   root, which feeds a t-digest and reports an approximate quantile.
//! * **TdigestDistributed** — the extension the paper predicts ("we expect
//!   Tdigest to outperform Dema also with a decentralized setup"): locals
//!   build digests, the root merges them.
//! * **KllDistributed** — locals build KLL sketches, weighted items are
//!   shipped and unioned at the root (approximate); added to prove the
//!   engine plugin surface.
//!
//! Engines implement the [`engines::RootEngine`] / [`engines::LocalEngine`]
//! trait pair and are registered in [`engines::REGISTRY`]; the shells in
//! [`root`] and [`local`] and the wiring in [`runner`] are engine-agnostic.
//!
//! The runner consumes pre-generated per-window inputs (see `dema-gen`),
//! hosts every node as a reactor role on `threads` shards (a Dema local is
//! two roles on one shard: its window stepper and its responder), and
//! produces a [`report::RunReport`] with per-window results, latencies, and
//! exact per-link traffic. Nodes are wired either as a flat star or as a
//! multi-level aggregation tree of relay nodes ([`config::Topology`]), with
//! per-tier traffic attribution in [`report::TierTraffic`].

pub mod config;
pub mod engines;
pub mod host;
pub mod local;
pub mod membership;
pub mod relay;
pub mod report;
pub mod root;
pub mod runner;

pub use config::{
    ClusterConfig, EngineKind, GammaMode, MembershipChange, MembershipPlan, Topology, TransportKind,
};
pub use membership::EpochLedger;
pub use report::{EpochStats, RunReport, TierTraffic, WindowOutcome, WireStats};
pub use runner::run_cluster;

/// Errors from a cluster run.
#[derive(Debug)]
pub enum ClusterError {
    /// The core algorithm rejected inputs (empty window asked for quantile…).
    Core(dema_core::DemaError),
    /// A transport failed mid-run.
    Net(dema_net::NetError),
    /// Protocol violation (unexpected message, missing reply).
    Protocol(String),
    /// A node thread panicked.
    NodePanic(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Core(e) => write!(f, "core error: {e}"),
            ClusterError::Net(e) => write!(f, "transport error: {e}"),
            ClusterError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClusterError::NodePanic(msg) => write!(f, "node thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<dema_core::DemaError> for ClusterError {
    fn from(e: dema_core::DemaError) -> ClusterError {
        ClusterError::Core(e)
    }
}

impl From<dema_net::NetError> for ClusterError {
    fn from(e: dema_net::NetError) -> ClusterError {
        ClusterError::Net(e)
    }
}
