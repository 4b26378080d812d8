// `deny` instead of `forbid`: the one sanctioned exception is the
// counting global allocator ([`alloc`]), whose `GlobalAlloc` contract is
// unsafe by nature. It carries a module-scoped `#[allow(unsafe_code)]`;
// everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # dema-core
//!
//! Core algorithm of **Dema** (EDBT 2025): exact, decentralized window
//! aggregation for non-decomposable quantile functions (median, arbitrary
//! quantiles) in edge topologies.
//!
//! Non-decomposable aggregates cannot be computed from partial results:
//! a median of medians is not the median. The classical decentralized
//! options are to ship every raw event to a root node (network-heavy) or to
//! use approximate sketches (inexact). Dema instead:
//!
//! 1. sorts events on each **local node** as they arrive into a time-based
//!    tumbling window ([`window::LocalWindow`]),
//! 2. cuts the sorted window into slices of roughly `γ` events and sends
//!    only a per-slice **synopsis** — first value, last value, count — to
//!    the root ([`slice::SliceSynopsis`]),
//! 3. on the root, computes rank intervals for every slice and selects the
//!    few **candidate slices** that can contain the target rank
//!    `Pos(q) = ⌈q·l_G⌉` ([`selector`], the *window-cut* algorithm),
//! 4. fetches only the candidate slices' events, merges the pre-sorted runs
//!    and picks the event at the target rank ([`merge`]),
//! 5. adapts `γ` per window to minimize network cost ([`gamma`]).
//!
//! The result is the *exact* quantile value with, typically, a ~99 %
//! reduction in network traffic versus centralized aggregation.
//!
//! This crate is pure: no I/O and no external effects, and every
//! algorithm is single-threaded ([`par`] holds the per-window sort, which
//! runs inline on the calling shard thread). The cluster runtime lives in
//! `dema-cluster`, transports in `dema-net`, and the wire format in
//! `dema-wire`.
//!
//! ## Quick example
//!
//! ```
//! use dema_core::coordinator::{exact_quantile_decentralized, DecentralizedRun};
//! use dema_core::event::Event;
//! use dema_core::quantile::Quantile;
//! use dema_core::selector::SelectionStrategy;
//!
//! // Two local nodes, each with its own events for the same window.
//! let node_a: Vec<Event> = (0..1000).map(|i| Event::new(i, 0, i as u64)).collect();
//! let node_b: Vec<Event> = (500..1500).map(|i| Event::new(i, 0, i as u64)).collect();
//!
//! let run: DecentralizedRun = exact_quantile_decentralized(
//!     &[node_a, node_b],
//!     Quantile::MEDIAN,
//!     150, // γ
//!     SelectionStrategy::WindowCut,
//! )
//! .unwrap();
//!
//! assert_eq!(run.result, 749); // exact global median
//! // ... at a fraction of the 2000 events a centralized approach ships:
//! assert!(run.stats.total_events_on_wire() < 500);
//! ```

pub mod alloc;
pub mod classify;
pub mod coordinator;
pub mod error;
pub mod event;
pub mod gamma;
pub mod invariant;
pub mod merge;
pub mod multi;
pub mod numeric;
pub mod par;
pub mod quantile;
pub mod rank;
pub mod runbuf;
pub mod selector;
pub mod shared;
pub mod slice;
pub mod sliding;
pub mod sync;
pub mod window;

pub use error::{DemaError, Result};
pub use event::{Event, NodeId, WindowId};
pub use quantile::Quantile;
pub use shared::SharedRun;
pub use slice::{Slice, SliceId, SliceSynopsis};
