//! End-to-end checks of the `dema-lint` binary over the fixture trees:
//! per-rule diagnostics on the `violations` tree, exit 0 on the `clean`
//! tree (allow-tags honoured), baseline suppression, stale allow-tags
//! (R8), stale baseline entries, R3/R4 over a tree whose enums they cannot
//! read (`vacuous-enums`), `--spec` conformance (R6), the
//! `--concurrency` lock/channel pass (R10–R13) over the `conc-*` trees,
//! the reactor-runtime receive ban (R14), the `--alloc` allocation
//! discipline pass (R15–R17) over the `alloc-*` trees, and the `explain`
//! subcommand.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// Run `dema-lint check <root> [extra...]`, returning (exit code, stdout).
fn run_lint(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dema-lint"))
        .arg("check")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn dema-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn violations_tree_fails_with_file_line_diagnostics() {
    let (code, stdout) = run_lint(&fixture("violations"), &[]);
    assert_eq!(code, 1, "expected failure exit, got {code}\n{stdout}");
    // Every violation carries a file:line anchor.
    assert!(
        stdout.contains("crates/dema-core/src/lib.rs:5: R1:"),
        "missing R1 diagnostic (lib.rs)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-net/src/fault.rs:5: R1:"),
        "missing R1 diagnostic (fault.rs)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-cluster/src/engines/retry.rs:6: R1:"),
        "missing R1 diagnostic (retry.rs panic)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-wire/src/message.rs:23: R1:"),
        "missing R1 diagnostic (message.rs)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-core/src/gamma.rs:5: R2:"),
        "missing R2 diagnostic (gamma.rs)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-cluster/src/engines/kll_distributed.rs:5: R2:"),
        "missing R2 diagnostic (kll_distributed.rs)\n{stdout}"
    );
    assert!(
        stdout.contains("R3: DemaError::EmptyWindow is never matched in any test"),
        "missing R3 diagnostic\n{stdout}"
    );
    assert!(
        stdout.contains("R4: wire Message::Ping has no"),
        "missing R4 diagnostic\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-cluster/src/local.rs:5: R5:"),
        "missing R5 diagnostic (local.rs)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-cluster/src/engines/retry.rs:13: R5:"),
        "missing R5 diagnostic (retry.rs recv)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-cluster/src/relay.rs:5: R5:"),
        "missing R5 diagnostic (relay.rs)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-cluster/src/pool_breaker.rs:5: R9:"),
        "missing R9 diagnostic (pool_breaker.rs)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-cluster/src/host.rs:5: R14:"),
        "missing R14 diagnostic (host.rs recv_timeout)\n{stdout}"
    );
    assert!(
        stdout.contains("13 new violation(s) [R1: 4, R14: 1, R2: 2, R3: 1, R4: 1, R5: 3, R9: 1]"),
        "summary should count violations per rule\n{stdout}"
    );
}

#[test]
fn clean_tree_passes_with_allow_tags() {
    let (code, stdout) = run_lint(&fixture("clean"), &[]);
    assert_eq!(code, 0, "clean tree must pass\n{stdout}");
    assert!(stdout.contains("dema-lint: clean"), "{stdout}");
}

#[test]
fn baseline_suppresses_accepted_findings() {
    let baseline = fixture("violations-baseline.txt");
    let (code, stdout) = run_lint(
        &fixture("violations"),
        &["--baseline", baseline.to_str().expect("utf-8 path")],
    );
    assert_eq!(code, 0, "baselined tree must pass\n{stdout}");
    assert!(stdout.contains("13 baselined finding(s)"), "{stdout}");
}

/// Satellite: a baseline entry that no longer matches any finding is an
/// error on its own — the baseline may only ever shrink.
#[test]
fn stale_baseline_entry_fails_even_when_all_findings_are_suppressed() {
    let baseline = fixture("violations-stale-baseline.txt");
    let (code, stdout) = run_lint(
        &fixture("violations"),
        &["--baseline", baseline.to_str().expect("utf-8 path")],
    );
    assert_eq!(code, 1, "stale entry must fail the gate\n{stdout}");
    assert!(
        stdout.contains("stale baseline entry"),
        "missing stale-baseline diagnostic\n{stdout}"
    );
    assert!(
        stdout.contains("R1|crates/dema-core/src/phantom.rs|.unwrap()"),
        "stale diagnostic must name the dead key\n{stdout}"
    );
}

/// Satellite: a well-formed `// lint: allow(Rn)` tag that no longer
/// suppresses anything is itself an R8 violation.
#[test]
fn stale_allow_tag_is_an_r8_violation() {
    let (code, stdout) = run_lint(&fixture("stale-allow"), &[]);
    assert_eq!(code, 1, "stale allow tag must fail\n{stdout}");
    assert!(
        stdout.contains("crates/dema-core/src/lib.rs:5: R8:"),
        "missing R8 diagnostic\n{stdout}"
    );
    assert!(
        stdout.contains("allow(R1)"),
        "R8 diagnostic must name the dead tag\n{stdout}"
    );
}

/// R3/R4 read their enum lexically from its defining file. When that file
/// exists but holds no parsable `enum DemaError` / `enum Message` (here a
/// renamed enum and a macro-generated one), the rules must fail instead of
/// checking zero variants.
#[test]
fn missing_enums_fail_r3_and_r4() {
    let (code, stdout) = run_lint(&fixture("vacuous-enums"), &[]);
    assert_eq!(code, 1, "a vacuous R3/R4 must fail\n{stdout}");
    assert!(
        stdout.contains(
            "crates/dema-core/src/error.rs:0: R3: no variant of a hand-written `enum DemaError`"
        ),
        "missing R3 diagnostic\n{stdout}"
    );
    assert!(
        stdout.contains(
            "crates/dema-wire/src/message.rs:0: R4: no variant of a hand-written `enum Message`"
        ),
        "missing R4 diagnostic\n{stdout}"
    );
}

/// Acceptance: deleting a match arm the spec requires (here
/// `CandidateReply` in the Dema root file) is caught by R6, as is
/// handling a variant the spec forbids for that file (`EventBatch`).
#[test]
fn spec_mode_catches_deleted_and_forbidden_match_arms() {
    let (code, stdout) = run_lint(&fixture("spec-violations"), &["--spec"]);
    assert_eq!(code, 1, "spec violations must fail\n{stdout}");
    assert!(
        stdout.contains("R6:") && stdout.contains("CandidateReply"),
        "missing R6 unhandled-variant diagnostic\n{stdout}"
    );
    assert!(
        stdout.contains("Message::EventBatch"),
        "missing R6 forbidden-variant diagnostic\n{stdout}"
    );
}

/// Membership negatives: the fixture root shell handles stream ends and
/// leave announcements but its `JoinRequest` arm is deleted — R6 must
/// flag the unhandled variant. Its test region covers the tag pair of
/// every other root-shell edge (join handshake, stream end, leave, drain
/// completion), so R7 must flag exactly the untested `EpochSwitch`
/// transitions — the root shell's `@epoch` broadcast and the responder's
/// wire-triggered arm — and none of the covered ones.
#[test]
fn spec_mode_catches_membership_negatives() {
    let (code, stdout) = run_lint(&fixture("spec-violations"), &["--spec"]);
    assert_eq!(code, 1, "membership negatives must fail\n{stdout}");
    assert!(
        stdout.contains("crates/dema-cluster/src/root.rs")
            && stdout.contains("receive Message::JoinRequest"),
        "missing R6 unhandled-JoinRequest diagnostic\n{stdout}"
    );
    assert!(
        stdout.contains("(@epoch->EpochSwitch) of role root-shell"),
        "missing R7 diagnostic for the untested epoch broadcast\n{stdout}"
    );
    assert!(
        stdout.contains("(EpochSwitch) of role dema-responder"),
        "missing R7 diagnostic for the responder's untested arm\n{stdout}"
    );
    for covered in [
        "(StreamEnd) of role root-shell",
        "(JoinRequest->JoinAccept) of role root-shell",
        "(LeaveAnnounce) of role root-shell",
        "(@drained->DrainComplete) of role root-shell",
        "(@join->JoinRequest) of role local-shell",
    ] {
        assert!(
            !stdout.contains(covered),
            "edge {covered} has its tag pair tested and must not be \
             flagged\n{stdout}"
        );
    }
}

/// Without `--spec` the same tree is clean: R6/R7 only run on request, so
/// fixture trees (and downstream forks without the spec) are unaffected.
#[test]
fn spec_rules_are_opt_in() {
    let (code, stdout) = run_lint(&fixture("spec-violations"), &[]);
    assert_eq!(code, 0, "R6/R7 must not run without --spec\n{stdout}");
    assert!(stdout.contains("dema-lint: clean"), "{stdout}");
}

/// Tentpole: the `--concurrency` pass catches a seeded lock-order
/// inversion (R10, split across two files), guards held across blocking
/// calls (R11, mutex and rwlock), unbounded channels (R12), and raw
/// std/parking_lot locks (R13) — each with a file:line anchor.
#[test]
fn concurrency_tree_fails_with_per_rule_diagnostics() {
    let (code, stdout) = run_lint(&fixture("conc-violations"), &["--concurrency"]);
    assert_eq!(code, 1, "expected failure exit, got {code}\n{stdout}");
    assert!(
        stdout.contains("crates/dema-cluster/src/order_a.rs:11: R10:"),
        "missing R10 diagnostic at the inner acquisition\n{stdout}"
    );
    assert!(
        stdout.contains("lock-order inversion")
            && stdout.contains("opposite order at crates/dema-cluster/src/order_b.rs:11"),
        "R10 must name both sites of the cycle\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-core/src/hold.rs:11: R11:"),
        "missing R11 diagnostic (join under mutex guard)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-core/src/hold.rs:17: R11:"),
        "missing R11 diagnostic (window sort under rwlock read guard)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-net/src/chan.rs:4: R12:"),
        "missing R12 diagnostic (unbounded)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-net/src/chan.rs:8: R12:"),
        "missing R12 diagnostic (mpsc::channel)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-wire/src/raw.rs:3: R13:"),
        "missing R13 diagnostic (std::sync::Mutex import)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-wire/src/raw.rs:7: R13:"),
        "missing R13 diagnostic (parking_lot)\n{stdout}"
    );
    assert!(
        stdout.contains("7 new violation(s) [R10: 1, R11: 2, R12: 2, R13: 2]"),
        "summary should count concurrency violations per rule\n{stdout}"
    );
}

/// Consistent lock order, block-scoped guards, condvar waits, and tagged
/// sites all pass — and the consumed R10/R11/R12 tags are not stale.
#[test]
fn concurrency_clean_tree_passes_with_allow_tags() {
    let (code, stdout) = run_lint(&fixture("conc-clean"), &["--concurrency"]);
    assert_eq!(code, 0, "clean concurrency tree must pass\n{stdout}");
    assert!(stdout.contains("dema-lint: clean"), "{stdout}");
}

/// Without `--concurrency` the violating tree is clean: R10–R13 are
/// opt-in, and their allow tags are inert rather than stale.
#[test]
fn concurrency_rules_are_opt_in() {
    let (code, stdout) = run_lint(&fixture("conc-violations"), &[]);
    assert_eq!(
        code, 0,
        "R10–R13 must not run without --concurrency\n{stdout}"
    );
    assert!(stdout.contains("dema-lint: clean"), "{stdout}");
    let (code, stdout) = run_lint(&fixture("conc-clean"), &[]);
    assert_eq!(code, 0, "inert conc tags must not be stale (R8)\n{stdout}");
}

/// Tentpole: the `--alloc` pass catches every seeded allocation-discipline
/// finding — raw allocation sites inside a marked hot-path region (R15,
/// including the `.min(..)`-clamped capacity and a payload clone), a
/// deleted mandated marker, pool bypasses in the framing files (R16), and
/// a SharedRun payload copy on a send path (R17).
#[test]
fn alloc_tree_fails_with_per_rule_diagnostics() {
    let (code, stdout) = run_lint(&fixture("alloc-violations"), &["--alloc"]);
    assert_eq!(code, 1, "expected failure exit, got {code}\n{stdout}");
    for (line, what) in [
        (9, "Vec::new"),
        (10, "vec!"),
        (11, ".to_vec()"),
        (12, "Box::new"),
        (13, "String::from"),
        (14, "clamps a capacity"),
        (16, ".clone()"),
    ] {
        assert!(
            stdout.lines().any(|l| l
                .starts_with(&format!("crates/dema-core/src/merge.rs:{line}: R15:"))
                && l.contains(what)),
            "missing R15 diagnostic for {what} at merge.rs:{line}\n{stdout}"
        );
    }
    assert!(
        !stdout.contains("merge.rs:15"),
        "the SharedRun clone on line 15 is a refcount bump and exempt\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-core/src/slice.rs:0: R15:")
            && stdout.contains("`// hot-path: slicer` marker is gone"),
        "missing R15 deleted-marker diagnostic\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-wire/src/frame.rs:9: R16:"),
        "missing R16 diagnostic (vec! payload buffer)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-wire/src/frame.rs:14: R16:"),
        "missing R16 diagnostic (to_bytes bypass)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-wire/src/frame.rs:15: R16:"),
        "missing R16 diagnostic (min-clamped capacity)\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dema-cluster/src/sender.rs:8: R17:")
            && stdout.contains("SharedRun payload `events`"),
        "missing R17 diagnostic (events.to_vec on a send path)\n{stdout}"
    );
    assert!(
        stdout.contains("12 new violation(s) [R15: 8, R16: 3, R17: 1]"),
        "summary should count alloc violations per rule\n{stdout}"
    );
}

/// Exact capacities, pooled frame buffers, SharedRun clones, and tagged
/// cold paths all pass — and the consumed R15/R17 tags are not stale.
#[test]
fn alloc_clean_tree_passes_with_allow_tags() {
    let (code, stdout) = run_lint(&fixture("alloc-clean"), &["--alloc"]);
    assert_eq!(code, 0, "clean alloc tree must pass\n{stdout}");
    assert!(stdout.contains("dema-lint: clean"), "{stdout}");
}

/// Without `--alloc` both alloc trees are clean: R15–R17 are opt-in, and
/// their allow tags are inert rather than stale.
#[test]
fn alloc_rules_are_opt_in() {
    let (code, stdout) = run_lint(&fixture("alloc-violations"), &[]);
    assert_eq!(code, 0, "R15–R17 must not run without --alloc\n{stdout}");
    assert!(stdout.contains("dema-lint: clean"), "{stdout}");
    let (code, stdout) = run_lint(&fixture("alloc-clean"), &[]);
    assert_eq!(code, 0, "inert alloc tags must not be stale (R8)\n{stdout}");
}

/// `explain` prints the rule's rationale and allow syntax; unknown rules
/// are usage errors listing the catalogue.
#[test]
fn explain_prints_rationale_and_allow_syntax() {
    let out = Command::new(env!("CARGO_BIN_EXE_dema-lint"))
        .args(["explain", "R11"])
        .output()
        .expect("spawn dema-lint");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R11:"), "{stdout}");
    assert!(
        stdout.contains("allow: // lint: allow(R11): <reason>"),
        "{stdout}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_dema-lint"))
        .args(["explain", "R99"])
        .output()
        .expect("spawn dema-lint");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("R13"),
        "unknown-rule error lists the catalogue\n{stderr}"
    );
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_dema-lint"))
        .arg("lurk")
        .output()
        .expect("spawn dema-lint");
    assert_eq!(out.status.code(), Some(2));
}
