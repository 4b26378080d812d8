//! Fixture: ad-hoc parallelism off the reactor shards (R9).

/// Sorts a chunk on a detached thread — outside the `DEMA_THREADS` budget.
pub fn sort_detached(mut chunk: Vec<u64>) -> std::thread::JoinHandle<Vec<u64>> {
    std::thread::spawn(move || {
        chunk.sort_unstable();
        chunk
    })
}
