//! Fixture: the error type is renamed, so no `enum DemaError` is left for
//! R3 to read.

/// Errors.
pub enum ClusterError {
    /// A window had no events.
    EmptyWindow,
}
