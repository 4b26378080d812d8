#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # dema-wire
//!
//! Hand-rolled binary wire format for every message of the Dema cluster
//! protocol, plus length-prefixed framing for stream transports.
//!
//! A custom codec instead of a serialization framework for two reasons:
//! the network-cost experiments (Figure 6) need *exact*, deterministic
//! on-wire byte counts, and the protocol is small enough that an explicit
//! format is simpler than a dependency. All integers are little-endian and
//! fixed-width; every message starts with a one-byte tag.
//!
//! * [`message::Message`] — the protocol: synopsis batches, candidate
//!   requests/replies, raw event batches (centralized & decentralized-sort
//!   baselines), t-digest batches (Tdigest baseline), γ updates, window
//!   results, and stream-end markers.
//! * [`frame`] — `u32` length-prefixed framing for stream transports
//!   (the TCP transport in `dema-net`): [`frame::encode_frame_into`]
//!   appends a frame to a connection's reused outbound buffer, and
//!   [`frame::decode_frame`] parses one off the front of its inbound
//!   buffer.

pub mod frame;
pub mod message;

pub use message::{tag_by_name, tag_info, Message, TagInfo, WireError, TAGS};
