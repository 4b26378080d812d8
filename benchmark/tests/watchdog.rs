//! The watchdog against the one stall the system is known to have: an
//! unpaced run with more windows per leaf than the leaves' slice store holds
//! (`STORE_WINDOW_CAP = 64`) never finishes when the root is the slower side,
//! because leaves evict slices the root has not asked for yet. `fanout-mem`
//! (512 leaves feeding one root) hits it on the first unpaced run. The
//! benchmark must kill that run, count its windows as failed and exit
//! non-zero, not hang. When the stall is fixed in `dema-cluster`, point this
//! test at another input that stalls.

use std::process::Command;
use std::time::{Duration, Instant};

#[test]
fn watchdog_fires_on_the_unpaced_stall_above_64_windows() {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_dema-benchmark"))
        .args(["run", "--workload", "fanout-mem", "--seed", "1", "--seconds", "1"])
        .args(["--windows-per-run", "256"])
        .output()
        .expect("the benchmark binary runs");
    // --seconds 1 puts the watchdog at 3 x 1 + 20 seconds.
    assert!(started.elapsed() < Duration::from_secs(40), "the stall hung the benchmark");
    assert!(!out.status.success(), "a stalled run must exit non-zero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The stall is a hang (256 windows: every time so far), or, when a
    // responder's error tears its link down first, a `peer disconnected` run.
    assert!(stderr.contains("watchdog") || stderr.contains("cluster run:"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    // Set-up and the paced phase get through (their runs are paced); the
    // first unpaced run of 256 windows is the one that never finishes.
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
    assert!(last.contains("\"failed\": 256,"), "every window of the killed run counts as failed: {last}");
}
