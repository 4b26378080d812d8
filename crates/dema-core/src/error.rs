//! Error types shared across the Dema core.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DemaError>;

/// Errors produced by the core algorithm.
///
/// The core is deliberately strict: malformed inputs (an empty window where a
/// quantile is requested, a `γ < 2`, synopses that disagree about the window
/// they describe) are surfaced as errors instead of being papered over,
/// because in a decentralized deployment they indicate protocol bugs or data
/// loss that would otherwise silently corrupt results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DemaError {
    /// A quantile was requested over a window that contains no events.
    EmptyWindow,
    /// Quantile fraction outside the half-open interval `(0, 1]`.
    InvalidQuantile(String),
    /// Slice factor γ must be at least 2 (a synopsis needs two endpoints).
    InvalidGamma(u64),
    /// An event's timestamp does not fall into the window it was routed to.
    EventOutOfWindow {
        /// Event time of the offending event.
        ts: u64,
        /// Inclusive start of the window.
        start: u64,
        /// Exclusive end of the window.
        end: u64,
    },
    /// Synopses claim a different global window size than the candidate
    /// events that were later delivered.
    InconsistentSynopses(String),
    /// The calculation step is missing events for a slice that was selected
    /// as a candidate (e.g. a local node failed to answer).
    MissingCandidate {
        /// Human-readable identifier of the missing slice.
        slice: String,
    },
    /// A candidate slice's delivered events disagree with its synopsis
    /// (count or min/max mismatch) — indicates corruption in transit.
    CorruptCandidate(String),
    /// The requested rank exceeds the global window size.
    RankOutOfRange {
        /// Requested 1-based rank.
        rank: u64,
        /// Total number of events in the global window.
        total: u64,
    },
    /// The runtime lock-order tracker ([`crate::sync`]) observed a lock
    /// acquisition whose static rank is not strictly greater than every
    /// rank already held by the acquiring thread. Both site labels are
    /// reported so the inversion pair can be read straight off the error.
    /// Only constructed under `debug_assertions` or `--features strict`.
    LockOrderViolation {
        /// Label of the highest-ranked lock already held.
        held: String,
        /// Label of the lock whose acquisition violated the ranking.
        acquiring: String,
    },
    /// The checked-invariant layer ([`crate::invariant`]) detected a
    /// violation of the rank-bound correctness model: synopses that do not
    /// partition their window, a candidate set that misses the target rank,
    /// a selected event whose true rank differs from `Pos(q)`, or a γ that
    /// fails the cost-model bracketing. Always a bug or corruption, never a
    /// user error.
    InvariantViolation(String),
}

impl fmt::Display for DemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemaError::EmptyWindow => write!(f, "quantile requested over an empty window"),
            DemaError::InvalidQuantile(msg) => write!(f, "invalid quantile: {msg}"),
            DemaError::InvalidGamma(g) => write!(f, "invalid slice factor γ={g}, must be >= 2"),
            DemaError::EventOutOfWindow { ts, start, end } => {
                write!(f, "event ts={ts} outside window [{start}, {end})")
            }
            DemaError::InconsistentSynopses(msg) => write!(f, "inconsistent synopses: {msg}"),
            DemaError::MissingCandidate { slice } => {
                write!(f, "candidate slice {slice} was never delivered")
            }
            DemaError::CorruptCandidate(msg) => write!(f, "corrupt candidate slice: {msg}"),
            DemaError::RankOutOfRange { rank, total } => {
                write!(f, "rank {rank} out of range for window of {total} events")
            }
            DemaError::LockOrderViolation { held, acquiring } => {
                write!(
                    f,
                    "lock-order violation: acquiring {acquiring} while holding {held}"
                )
            }
            DemaError::InvariantViolation(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for DemaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        let e = DemaError::EventOutOfWindow {
            ts: 5,
            start: 10,
            end: 20,
        };
        assert_eq!(e.to_string(), "event ts=5 outside window [10, 20)");
        assert_eq!(
            DemaError::InvalidGamma(1).to_string(),
            "invalid slice factor γ=1, must be >= 2"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DemaError::EmptyWindow);
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(DemaError::EmptyWindow, DemaError::EmptyWindow);
        assert_ne!(DemaError::EmptyWindow, DemaError::InvalidGamma(1));
    }

    #[test]
    fn lock_order_violation_names_both_sites() {
        let e = DemaError::LockOrderViolation {
            held: "local.store(rank 50)".into(),
            acquiring: "relay.downlink(rank 20)".into(),
        };
        match &e {
            DemaError::LockOrderViolation { held, acquiring } => {
                assert_eq!(held, "local.store(rank 50)");
                assert_eq!(acquiring, "relay.downlink(rank 20)");
            }
            other => panic!("unexpected variant: {other:?}"),
        }
        assert_eq!(
            e.to_string(),
            "lock-order violation: acquiring relay.downlink(rank 20) while holding local.store(rank 50)"
        );
    }

    #[test]
    fn invariant_violation_displays_detail() {
        let e = DemaError::InvariantViolation("counts sum to 9, window holds 10".into());
        assert_eq!(
            e.to_string(),
            "invariant violated: counts sum to 9, window holds 10"
        );
    }
}
