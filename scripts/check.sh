#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#
#   build (release)  — the experiment binary and benches must compile,
#                      and the build must print no `warning:` line
#   benchmark smoke  — `benchmark/` (a package of its own, path deps on
#                      crates/*) must compile against the crates as they
#                      are and pass its tenth-length run: every window
#                      equal to the sort oracle, walk bytes equal to run
#                      bytes, the layer walk's self times summing to the
#                      window. An API break against the layer walk shows
#                      here, not in the benchmark pipeline
#   fmt --check      — first-party crates stay rustfmt-clean (vendored
#                      crates are kept byte-identical to upstream and are
#                      deliberately not checked)
#   test             — unit + property + integration tests, all crates,
#                      run twice: DEMA_THREADS=1 and DEMA_THREADS=4.
#                      DEMA_THREADS is the shard count — how many reactor
#                      threads host the leaves; every window is sorted
#                      inline on its leaf's shard. The shard count must be
#                      invisible — both passes see identical results and
#                      wire traffic (tests/determinism.rs pins the
#                      counters; this matrix pins everything else)
#   test --strict    — same suite with the checked-invariant layer compiled
#                      into release-style gating (DESIGN.md §8), at both
#                      thread counts, plus an explicit engines-over-TCP
#                      pass so the socket transport is exercised with
#                      checked invariants
#   chaos sweep      — the seeded fault-injection suite under several
#                      CHAOS_SEED values (strict invariants on): recovery
#                      must stay bit-exact and degradation deterministic
#                      for every seed, not just the default. The same
#                      sweep drives the membership-churn scenario
#                      (tests/churn.rs): join/drain under random loss must
#                      recover bit-exact and keep the post-churn steady
#                      state pinned to a fresh final-membership run
#   dema-lint        — repo-specific static analysis (--spec
#                      --concurrency --alloc): R1 no panics in library
#                      code, R2 no lossy `as` casts in rank/gamma
#                      arithmetic, R3/R4 error & wire variants
#                      exercised, R5 no unbounded receives in cluster
#                      code, R6/R7 protocol-spec conformance (handled
#                      variants match the dema-model role spec; every
#                      transition has a test), R8 no stale allow-tags,
#                      R9 no ad-hoc thread::spawn in dema-core /
#                      dema-cluster (window work stays on the
#                      DEMA_THREADS reactor shards), R10 no
#                      lock-order inversions in the cross-crate
#                      acquisition graph, R11 no guard held across a
#                      blocking call, R12 no unbounded channels in
#                      hot-path crates, R13 all hot-path locks through
#                      the ranked dema_core::sync wrappers, R15 no raw
#                      allocation sites in marked hot-path regions, R16
#                      frame buffers drawn from dema-wire::pool, R17 no
#                      SharedRun payload copies on send paths.
#                      `dema-lint explain R<n>` decodes any rule id.
#                      Stale baseline entries fail too (baseline only
#                      shrinks; scripts/lint-baseline.txt)
#   alloc gate       — dema-cluster/tests/alloc_gate.rs under --features
#                      strict at DEMA_THREADS=1 and 4: with the counting
#                      allocator armed (a plain counter over `System`), a
#                      W-window and a 2W-window Dema star run over the mem
#                      transport are compared. The allocations one more
#                      leaf-window costs must be exactly 0 in the sort,
#                      encode, decode and merge phases and at most the
#                      pinned counts in slice and other, with values
#                      bit-identical across the runs (the dynamic twin of
#                      R15–R17)
#   lock-order gate  — dema-cluster/tests/lock_order.rs under --features
#                      strict at DEMA_THREADS=4: repeated runs are
#                      bit-identical, a full run holds the global lock
#                      ranking under the armed runtime tracker, and an
#                      intentionally inverted acquisition proves the
#                      tracker fires (the dynamic twin of R10)
#   model explorer   — bounded interleaving exploration of the real
#                      engines (dema-model): every schedule up to the
#                      budget must finish deadlock-free, spec-legal, with
#                      obligations met and bit-identical exact results.
#                      MODEL_BUDGET (default 1200) scales the smoke run.
#   dema-server gate — the reactor-runtime server binary boots 256 leaves
#                      over mem links and a small cluster over loopback
#                      TCP, both under --features strict (checked
#                      invariants + armed lock tracker): every window must
#                      verify against the binary's built-in sort oracle
#                      and the process must shut down cleanly (exit 0).
#                      The tcp_cluster example runs in the same breath so
#                      example rot fails the gate too (DESIGN.md §13).
#                      A plain-release 4,000-leaf run must also finish
#                      under `timeout 10`: the root's per-event bookkeeping
#                      must stay O(1) in the leaf count. A root that scans
#                      every leaf per event is quadratic here (~15 s on a
#                      2-core box); the O(1) completion check takes ~1 s.
#   bench --no-run   — criterion benches must keep compiling
#   clippy           — deny the two lints that reintroduce hot-path copies:
#                      redundant_clone (event buffers must be shared, not
#                      cloned) and needless_collect (no intermediate Vecs
#                      on the merge paths). R1's compiler-side twin — deny
#                      unwrap/expect in non-test library code — lives as
#                      in-crate attributes on the four protocol crates and
#                      fires during this same pass.
set -euo pipefail
cd "$(dirname "$0")/.."

build_log="$(cargo build --release 2>&1 | tee /dev/stderr)"
if grep -q 'warning:' <<<"$build_log"; then
    echo "check.sh: cargo build --release printed warnings" >&2
    exit 1
fi
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- smoke
# shellcheck disable=SC2046
cargo fmt --check $(for c in crates/*/; do printf -- '-p %s ' "$(basename "$c")"; done)
for threads in 1 4; do
    DEMA_THREADS="$threads" cargo test -q
    DEMA_THREADS="$threads" cargo test --features strict -q
done
cargo test -q -p dema-cluster --features strict --test engines --test tree tcp
CHAOS_SEEDS="${CHAOS_SEEDS:-1 2 3}"
for seed in $CHAOS_SEEDS; do
    CHAOS_SEED="$seed" cargo test -q -p dema-cluster --features strict --test chaos
    CHAOS_SEED="$seed" cargo test -q -p dema-cluster --features strict --test churn seeded_churn
done
cargo run -q -p dema-lint -- check . --spec --concurrency --alloc
DEMA_THREADS=4 cargo test -q -p dema-cluster --features strict --test lock_order
for threads in 1 4; do
    DEMA_THREADS="$threads" cargo test -q -p dema-cluster --features strict --test alloc_gate
done
MODEL_BUDGET="${MODEL_BUDGET:-1200}" cargo test -q -p dema-model --test explore
cargo run -q --release -p dema --features strict --bin dema-server -- --leaves 256 --quiet
cargo build -q --release -p dema --bin dema-server
timeout 10 target/release/dema-server --leaves 4000 --windows 48 --events 32 --threads 2 --quiet
cargo run -q --release -p dema --features strict --bin dema-server -- \
    --leaves 8 --windows 2 --events 50 --transport tcp --quiet
cargo run -q --release -p dema --example tcp_cluster > /dev/null
cargo bench --no-run
cargo clippy --workspace --all-targets -- \
    -D clippy::redundant_clone \
    -D clippy::needless_collect

echo "check.sh: all green"
