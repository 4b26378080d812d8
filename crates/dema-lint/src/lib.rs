#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # dema-lint
//!
//! Repo-specific static analysis for the Dema workspace. The compiler cannot
//! see the invariants Dema's exactness rests on, and generic clippy lints
//! cannot know which files hold rank arithmetic or which enums mirror the
//! wire protocol. This crate closes that gap with a family of lexical rules:
//!
//! * **R1** — no `unwrap()` / `expect()` / `panic!` / `todo!` /
//!   `unimplemented!` in non-test library code of `dema-core`, `dema-wire`,
//!   `dema-net`, `dema-cluster`. A panicking root drops every window in
//!   flight; library code must surface `DemaError` instead. Justified sites
//!   carry a `// lint: allow(R1): <reason>` tag.
//! * **R2** — no raw `as` numeric casts in the rank/gamma/merge arithmetic
//!   files of `dema-core`. A silent truncation there turns an exact quantile
//!   into a wrong one; conversions go through `dema_core::numeric` (the two
//!   deliberate float casts inside it are tagged).
//! * **R3** — every `DemaError` variant is constructed somewhere outside its
//!   defining file and exercised by some test. A variant nobody builds is a
//!   dead protocol error; one no test matches is unverified behaviour.
//! * **R4** — every wire `Message` variant is mentioned by some test
//!   (golden/property coverage of the protocol surface).
//! * **R5** — no bare blocking `.recv()` in non-test library code of
//!   `dema-cluster`. The fault-tolerance layer assumes every wait is
//!   bounded: an unbounded receive cannot observe retry deadlines or a
//!   severed peer and hangs the run the resilience layer exists to save.
//!   Use `.recv_timeout(..)` / `.try_recv()`, or tag a deliberate site
//!   with `// lint: allow(R5): <reason>`.
//! * **R6** *(spec mode)* — protocol conformance against
//!   `dema_model::spec`: every wire variant a file's roles can receive
//!   appears in that file's non-test code (a deleted match arm fails),
//!   and the file mentions no variant outside its roles'
//!   `receives ∪ sends` (handling a forbidden tag fails).
//! * **R7** *(spec mode)* — every spec transition is referenced by a
//!   test: some file's test code mentions the transition's tag pair
//!   (trigger and reply together; pseudo-triggers need only the reply).
//! * **R8** — no stale `// lint: allow(Rn)` tag: a well-formed tag in a
//!   file the rule scopes that suppresses nothing is an error, so
//!   justifications cannot outlive the code they excused.
//! * **R9** — no ad-hoc `thread::spawn` in non-test hot-path code of
//!   `dema-core` / `dema-cluster`. Window work runs on the reactor shard
//!   hosting its node; a stray spawn in the window path reorders work
//!   nondeterministically and escapes the `DEMA_THREADS` shard budget.
//!   Tag a deliberate long-lived thread (runner topology) with
//!   `// lint: allow(R9): <reason>` or a baseline entry.
//! * **R10** *(concurrency mode)* — no lock-order inversions. Every lock
//!   acquisition nested inside another guard's lexical scope becomes an
//!   edge in a workspace-wide acquisition graph; a cycle means two code
//!   paths can take the same locks in opposite orders and deadlock. The
//!   runtime twin is `dema_core::sync`'s rank tracker; this rule catches
//!   the inversion before the interleaving does.
//! * **R11** *(concurrency mode)* — no lock guard held across a blocking
//!   call (`.recv()`, `.recv_timeout(..)`, `.write_all(..)`, `.join()`,
//!   a whole-window `sort_events`). A blocked holder starves every other
//!   thread that needs the lock; drop the guard in an inner block first.
//!   `Condvar::wait` is the sanctioned block-while-locked primitive and
//!   is deliberately not a needle.
//! * **R12** *(concurrency mode)* — no unbounded channel construction
//!   (`unbounded(..)`, std `mpsc::channel(..)`) in hot-path crates: an
//!   unbounded queue turns backpressure into unbounded memory growth.
//!   Deliberately-unbounded links carry `// lint: allow(R12): <reason>`.
//! * **R13** *(concurrency mode)* — hot-path crates must take locks
//!   through the ranked `dema_core::sync::Mutex`: raw
//!   `std::sync::Mutex` / `RwLock` / `Condvar` or any `parking_lot`
//!   mention escapes the runtime lock-order tracker. The wrapper module
//!   itself (`dema-core/src/sync.rs`) is exempt.
//! * **R14** — no blocking `.recv()` / `.recv_timeout(..)` in the
//!   reactor-hosted runtime files (`dema-net/src/reactor.rs`,
//!   `dema-cluster/src/runner.rs`, `dema-cluster/src/host.rs`). The
//!   reactor's source sweep is the only legal wait point there: a role
//!   that blocks in a channel receive stalls every other role hosted on
//!   the same thread and starves the timer wheel. Deliver messages as
//!   `ReactorEvent::Readable`, deadlines as reactor timers; tag a
//!   justified site with `// lint: allow(R14): <reason>`.
//! * **R15** *(alloc mode)* — no raw allocation sites inside the marked
//!   hot-path regions of [`HOT_PATH_REGIONS`]. Each region is introduced
//!   by a `// hot-path: <name>` comment (the next brace block after it);
//!   `Vec::new(..)`, `vec![..]`, `.to_vec()`, `Box::new(..)`,
//!   `String::from(..)`, a `.min(..)`-clamped `with_capacity`, or a
//!   payload `.clone()` there pays an allocator round-trip on every
//!   window, which the per-leaf-window allocation gate counts
//!   (`dema-cluster/tests/alloc_gate.rs`). `SharedRun` clones are refcount
//!   bumps and exempt; deleting a mandated marker is itself a finding.
//! * **R16** *(alloc mode)* — frame encode/decode files append into the
//!   connection's reused buffer (`dema_wire::frame::encode_frame_into`):
//!   ad-hoc `vec![..]` payload buffers, buffer-bypassing `.to_bytes(..)`
//!   helpers, and min-clamped capacities in the framing files allocate per
//!   frame.
//! * **R17** *(alloc mode)* — channel/send paths in `dema-cluster` /
//!   `dema-net` must not copy `SharedRun` payload bytes: `.to_vec()` on a
//!   declared SharedRun name re-copies the window payload per hop; ship
//!   the `Arc`-backed view instead.
//!
//! The analysis is purely lexical over a *masked* view of each source file:
//! string and comment bytes are blanked (newlines kept) so tokens inside
//! them never match, and `#[cfg(test)]` regions plus `tests/`, `benches/`,
//! `examples/` trees count as test context. No registry dependencies, in
//! keeping with the workspace's vendored-offline setup.
//!
//! Known accepted violations live in a baseline file (`RULE|path|token`
//! lines); the gate fails only on *new* findings — and on *stale* baseline
//! entries: a key matching no current finding of the rules that ran must be
//! deleted, so the baseline can only shrink. See DESIGN.md §8 and §11.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose non-test library code must be panic-free (rule R1).
pub const R1_CRATES: [&str; 4] = ["dema-core", "dema-wire", "dema-net", "dema-cluster"];

/// Source files carrying rank/gamma/merge arithmetic (rule R2), as
/// path suffixes relative to the workspace root: the dema-core algorithm
/// files plus the engine modules that do quantile math at the cluster layer.
pub const R2_FILES: [&str; 11] = [
    "dema-core/src/gamma.rs",
    "dema-core/src/rank.rs",
    "dema-core/src/quantile.rs",
    "dema-core/src/selector.rs",
    "dema-core/src/multi.rs",
    "dema-core/src/merge.rs",
    "dema-core/src/slice.rs",
    "dema-core/src/numeric.rs",
    "dema-core/src/invariant.rs",
    "dema-cluster/src/engines/dema.rs",
    "dema-cluster/src/engines/kll_distributed.rs",
];

/// Numeric primitive types whose `as` casts R2 rejects.
const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// One finding of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier: `R1`..`R17`.
    pub rule: &'static str,
    /// Path of the offending file, relative to the checked root.
    pub path: String,
    /// 1-based line of the finding (0 for whole-file findings like R3/R4).
    pub line: usize,
    /// The offending token (panic call, cast, or enum variant).
    pub token: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// The `RULE|path|token` key used by the baseline file.
    pub fn baseline_key(&self) -> String {
        format!("{}|{}|{}", self.rule, self.path, self.token)
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A source file loaded for analysis.
struct SourceFile {
    /// Path relative to the checked root, with `/` separators.
    rel: String,
    /// Original text (for allow-tag lookup).
    text: String,
    /// Text with string/comment bytes blanked, newlines preserved.
    masked: String,
    /// Byte ranges of `#[cfg(test)]`-gated items in `masked`.
    test_regions: Vec<(usize, usize)>,
    /// `true` if the whole file is test context by path.
    test_by_path: bool,
    /// `(0-based tag line, rule)` of allow tags consulted successfully —
    /// rule R8 flags the well-formed tags that never appear here.
    used_allows: RefCell<BTreeSet<(usize, String)>>,
}

impl SourceFile {
    fn load(root: &Path, path: &Path) -> Option<SourceFile> {
        let text = std::fs::read_to_string(path).ok()?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let masked = mask_source(&text);
        let test_regions = find_test_regions(&masked);
        let test_by_path = rel.split('/').any(|seg| {
            seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures"
        });
        Some(SourceFile {
            rel,
            text,
            masked,
            test_regions,
            test_by_path,
            used_allows: RefCell::new(BTreeSet::new()),
        })
    }

    fn in_test_region(&self, offset: usize) -> bool {
        self.test_by_path
            || self
                .test_regions
                .iter()
                .any(|&(start, end)| (start..end).contains(&offset))
    }

    fn line_of(&self, offset: usize) -> usize {
        self.masked.as_bytes()[..offset]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    }

    /// `true` if line `line` or the one above carries a well-formed
    /// `// lint: allow(<rule>): <reason>` tag in the original source.
    fn allowed(&self, rule: &str, line: usize) -> bool {
        let lines: Vec<&str> = self.text.lines().collect();
        let needle = format!("lint: allow({rule})");
        for candidate in [line.checked_sub(1), line.checked_sub(2)]
            .into_iter()
            .flatten()
        {
            if let Some(l) = lines.get(candidate) {
                if let Some(pos) = l.find(&needle) {
                    let rest = &l[pos + needle.len()..];
                    // A tag needs a reason: "): " followed by real text.
                    if rest.trim_start().starts_with(':')
                        && rest.trim_start()[1..].trim().len() >= 3
                    {
                        self.used_allows
                            .borrow_mut()
                            .insert((candidate, rule.to_string()));
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// Blank out string literals and comments, preserving length and newlines,
/// so lexical rules never match inside them.
fn mask_source(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string r"..." / r#"..."#
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    j += 1;
                    let closer: Vec<u8> = std::iter::once(b'"')
                        .chain(std::iter::repeat_n(b'#', hashes))
                        .collect();
                    while j < bytes.len() && !bytes[j..].starts_with(&closer) {
                        j += 1;
                    }
                    j = (j + closer.len()).min(bytes.len());
                    for k in start..j {
                        if bytes[k] != b'\n' {
                            out[k] = b' ';
                        }
                    }
                    i = j;
                } else {
                    i += 1;
                }
            }
            b'"' => {
                out[i] = b' ';
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out[i] = b' ';
                        if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                            out[i + 1] = b' ';
                        }
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out[i] = b' ';
                        i += 1;
                        break;
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal vs. lifetime: a literal closes with ' within
                // a few bytes ('x', '\n', '\u{1F600}').
                let mut j = i + 1;
                if bytes.get(j) == Some(&b'\\') {
                    j += 2;
                    while j < bytes.len() && bytes[j] != b'\'' && j - i < 12 {
                        j += 1;
                    }
                } else {
                    // One UTF-8 scalar, up to 4 bytes.
                    j += 1;
                    while j < bytes.len() && (bytes[j] & 0xC0) == 0x80 {
                        j += 1;
                    }
                }
                if bytes.get(j) == Some(&b'\'') && j > i + 1 {
                    out[i..=j].fill(b' ');
                    i = j + 1;
                } else {
                    i += 1; // lifetime, leave it
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Byte ranges of items gated behind `#[cfg(test)]`-style attributes in
/// already-masked source.
fn find_test_regions(masked: &str) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut regions = Vec::new();
    let mut i = 0;
    while let Some(found) = masked[i..].find("#[cfg(") {
        let attr_start = i + found;
        let paren_start = attr_start + "#[cfg".len();
        let Some(paren_end) = matching(bytes, paren_start, b'(', b')') else {
            i = attr_start + 1;
            continue;
        };
        let content = &masked[paren_start + 1..paren_end];
        if !contains_word(content, "test") {
            i = paren_end;
            continue;
        }
        // The gated item: the next brace block (mod/fn/impl), or a single
        // `;`-terminated item.
        let mut j = paren_end + 1;
        let end = loop {
            match bytes.get(j) {
                Some(b'{') => match matching(bytes, j, b'{', b'}') {
                    Some(close) => break close + 1,
                    None => break bytes.len(),
                },
                Some(b';') => break j + 1,
                Some(_) => j += 1,
                None => break bytes.len(),
            }
        };
        regions.push((attr_start, end));
        i = end;
    }
    regions
}

/// Offset of the delimiter matching `open` at `start` (which must hold one).
fn matching(bytes: &[u8], start: usize, open: u8, close: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (k, &b) in bytes.iter().enumerate().skip(start) {
        if b == open {
            depth += 1;
        } else if b == close {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// `true` if `word` occurs in `text` with non-identifier neighbours.
fn contains_word(text: &str, word: &str) -> bool {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(found) = text[i..].find(word) {
        let at = i + found;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        i = at + word.len();
    }
    false
}

/// All word-boundary occurrences of `word` in `text`, as byte offsets.
fn word_occurrences(text: &str, word: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut found = Vec::new();
    let mut i = 0;
    while let Some(pos) = text[i..].find(word) {
        let at = i + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            found.push(at);
        }
        i = at + word.len();
    }
    found
}

/// Recursively collect `.rs` files under `dir`, skipping build/VCS trees and
/// lint fixtures.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(
                name,
                "target" | ".git" | "vendor" | "fixtures" | "node_modules"
            ) {
                continue;
            }
            walk(&path, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// R1: panic-capable calls in non-test library code of the core crates.
fn check_r1(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !in_crate_src(file, &R1_CRATES) || file.test_by_path {
        return;
    }
    let patterns: [(&str, &str); 5] = [
        (".unwrap()", ".unwrap()"),
        (".expect(", ".expect(...)"),
        ("panic!", "panic!"),
        ("todo!", "todo!"),
        ("unimplemented!", "unimplemented!"),
    ];
    for (needle, token) in patterns {
        let mut i = 0;
        while let Some(pos) = file.masked[i..].find(needle) {
            let at = i + pos;
            i = at + needle.len();
            // Macros need a word boundary before them (`core::panic!` still
            // has `:` before, which is fine; `no_panic!` must not match).
            if !needle.starts_with('.') {
                let before = file.masked.as_bytes()[..at].last().copied().unwrap_or(b' ');
                if is_ident_byte(before) {
                    continue;
                }
                if file.masked.as_bytes().get(at + needle.len()) != Some(&b'(') {
                    continue;
                }
            }
            if file.in_test_region(at) {
                continue;
            }
            let line = file.line_of(at);
            if file.allowed("R1", line) {
                continue;
            }
            violations.push(Violation {
                rule: "R1",
                path: file.rel.clone(),
                line,
                token: token.to_string(),
                message: format!(
                    "`{token}` can panic a library node; return a DemaError (or tag the site \
                     with `// lint: allow(R1): <reason>`)"
                ),
            });
        }
    }
}

/// R2: raw `as` numeric casts in rank/gamma/merge arithmetic files.
fn check_r2(file: &SourceFile, violations: &mut Vec<Violation>) {
    let in_scope = R2_FILES.iter().any(|f| file.rel.ends_with(f));
    if !in_scope {
        return;
    }
    for at in word_occurrences(&file.masked, "as") {
        if file.in_test_region(at) {
            continue;
        }
        let rest = &file.masked[at + 2..];
        let trimmed = rest.trim_start();
        let Some(ty) = NUMERIC_TYPES.iter().find(|t| {
            trimmed.starts_with(**t)
                && !is_ident_byte(trimmed.as_bytes().get(t.len()).copied().unwrap_or(b' '))
        }) else {
            continue;
        };
        let line = file.line_of(at);
        if file.allowed("R2", line) {
            continue;
        }
        violations.push(Violation {
            rule: "R2",
            path: file.rel.clone(),
            line,
            token: format!("as {ty}"),
            message: format!(
                "lossy `as {ty}` cast in rank/gamma arithmetic; use dema_core::numeric helpers \
                 or try_from (or tag with `// lint: allow(R2): <reason>`)"
            ),
        });
    }
}

/// R5: bare blocking `.recv()` in non-test dema-cluster library code. The
/// needle is exactly `.recv()`: `.recv_timeout(` and `.try_recv()` do not
/// match it.
fn check_r5(file: &SourceFile, violations: &mut Vec<Violation>) {
    let in_scope =
        file.rel.contains("crates/dema-cluster/src/") || file.rel.starts_with("dema-cluster/src/");
    if !in_scope || file.test_by_path {
        return;
    }
    let needle = ".recv()";
    let mut i = 0;
    while let Some(pos) = file.masked[i..].find(needle) {
        let at = i + pos;
        i = at + needle.len();
        if file.in_test_region(at) {
            continue;
        }
        let line = file.line_of(at);
        if file.allowed("R5", line) {
            continue;
        }
        violations.push(Violation {
            rule: "R5",
            path: file.rel.clone(),
            line,
            token: ".recv()".to_string(),
            message: "bare blocking `.recv()` cannot observe retry deadlines or a dead peer; \
                      use `.recv_timeout(..)` / `.try_recv()` (or tag with \
                      `// lint: allow(R5): <reason>`)"
                .to_string(),
        });
    }
}

/// Files the reactor runtime owns (rule R14): the event loop itself and
/// the cluster layer that hosts roles on it. Every wait in these files
/// must go through the reactor's source sweep or timer wheel.
pub const R14_FILES: [&str; 3] = [
    "dema-net/src/reactor.rs",
    "dema-cluster/src/runner.rs",
    "dema-cluster/src/host.rs",
];

/// R14: blocking channel receives in reactor-hosted runtime files. Both
/// `.recv()` and `.recv_timeout(` are needles — a bounded block still
/// stalls every role sharing the thread and starves the timer wheel; the
/// reactor's own sweep is the only legal wait point.
fn check_r14(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !R14_FILES.iter().any(|f| file.rel.ends_with(f)) || file.test_by_path {
        return;
    }
    for (needle, token) in [
        (".recv()", ".recv()"),
        (".recv_timeout(", ".recv_timeout(..)"),
    ] {
        let mut i = 0;
        while let Some(pos) = file.masked[i..].find(needle) {
            let at = i + pos;
            i = at + needle.len();
            if file.in_test_region(at) {
                continue;
            }
            let line = file.line_of(at);
            if file.allowed("R14", line) {
                continue;
            }
            violations.push(Violation {
                rule: "R14",
                path: file.rel.clone(),
                line,
                token: token.to_string(),
                message: format!(
                    "blocking `{token}` in reactor-hosted runtime code stalls every role on \
                     the thread and starves the timer wheel; deliver messages as reactor \
                     events and deadlines as reactor timers (or tag with \
                     `// lint: allow(R14): <reason>`)"
                ),
            });
        }
    }
}

/// Crates whose non-test code must not spawn threads of its own (rule R9).
pub const R9_CRATES: [&str; 2] = ["dema-core", "dema-cluster"];

/// R9: ad-hoc `thread::spawn` in non-test hot-path code. The needle is the
/// qualified call `thread::spawn(` — `std::thread::spawn(..)` and a
/// `use std::thread;` + `thread::spawn(..)` both match; `pool.spawn(..)`
/// and identifiers merely ending in `thread` do not.
fn check_r9(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !in_crate_src(file, &R9_CRATES) || file.test_by_path {
        return;
    }
    let needle = "thread::spawn";
    let bytes = file.masked.as_bytes();
    let mut i = 0;
    while let Some(pos) = file.masked[i..].find(needle) {
        let at = i + pos;
        i = at + needle.len();
        // `thread` must start its own path segment (`:` and whitespace are
        // fine; `my_thread::spawn` is some other module), and the match must
        // be a call, not a mention of the path.
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        if bytes.get(at + needle.len()) != Some(&b'(') {
            continue;
        }
        if file.in_test_region(at) {
            continue;
        }
        let line = file.line_of(at);
        if file.allowed("R9", line) {
            continue;
        }
        violations.push(Violation {
            rule: "R9",
            path: file.rel.clone(),
            line,
            token: "thread::spawn".to_string(),
            message: "ad-hoc `thread::spawn` escapes the DEMA_THREADS shard budget; run \
                      the work on the reactor shard hosting the node, or tag a long-lived \
                      topology thread with `// lint: allow(R9): <reason>`"
                .to_string(),
        });
    }
}

/// Crates the concurrency pass (R10–R13) covers: the hot path from event
/// ingest to the aggregated answer, where a deadlock or unbounded queue
/// stalls every window in flight.
pub const CONC_CRATES: [&str; 4] = ["dema-core", "dema-wire", "dema-net", "dema-cluster"];

/// The instrumented sync layer itself — the one file allowed to name raw
/// std locks, because it is the wrapper the rest of the tree must use.
pub const CONC_EXEMPT: &str = "dema-core/src/sync.rs";

/// `true` if `file` is non-test source of one of `crates`.
fn in_crate_src(file: &SourceFile, crates: &[&str]) -> bool {
    crates.iter().any(|c| {
        file.rel.contains(&format!("crates/{c}/src/")) || file.rel.starts_with(&format!("{c}/src/"))
    })
}

/// Scope shared by all four concurrency rules.
fn conc_in_scope(file: &SourceFile) -> bool {
    !file.test_by_path && !file.rel.ends_with(CONC_EXEMPT) && in_crate_src(file, &CONC_CRATES)
}

/// One lock acquisition in non-test code: the guard's receiver name and
/// the byte range over which the guard is lexically held.
struct LockSite {
    /// Receiver identifier (`store` in `self.store.lock()`).
    name: String,
    /// Offset of the method-call dot.
    offset: usize,
    /// End of the guard's lexical scope (exclusive).
    scope_end: usize,
}

/// One nested acquisition: while `from`'s guard is lexically live, `to`
/// is acquired at `path:line`. These are the edges of the workspace-wide
/// acquisition graph R10 searches for cycles.
struct LockEdge {
    from: String,
    to: String,
    path: String,
    line: usize,
}

/// Names declared with an `RwLock<..>` type or bound via `RwLock::new`,
/// collected across the whole workspace so `.read()` / `.write()`
/// receivers can be told apart from same-named io or accessor methods.
fn declared_rwlocks(files: &[SourceFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in files {
        for line in file.masked.lines() {
            if contains_word(line, "RwLock") {
                collect_decl_name(line, "RwLock", &mut names);
            }
        }
    }
    names
}

/// If `line` declares a binding or field of type `ty` — `name: ..Ty<..>`
/// (field, param, static) or `let [mut] name = Ty::new(..)` — record the
/// name. Purely lexical: wrappers like `Arc<Ty<..>>` still resolve to the
/// field name left of the single `:`.
fn collect_decl_name(line: &str, ty: &str, names: &mut BTreeSet<String>) {
    if line.contains(&format!("{ty}::new(")) {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("let ") {
            let rest = rest.trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                names.insert(name);
                return;
            }
        }
    }
    let Some(ty_at) = line.find(&format!("{ty}<")) else {
        return;
    };
    // The identifier left of the last single `:` (not `::`) before the type.
    let head = &line.as_bytes()[..ty_at];
    let mut colon = None;
    let mut k = 0;
    while k < head.len() {
        if head[k] == b':' {
            if head.get(k + 1) == Some(&b':') {
                k += 2;
                continue;
            }
            colon = Some(k);
        }
        k += 1;
    }
    let Some(colon) = colon else { return };
    let mut end = colon;
    while end > 0 && head[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident_byte(head[start - 1]) {
        start -= 1;
    }
    if start < end {
        names.insert(line[start..end].to_string());
    }
}

/// Lexical end of the guard produced by the lock call at `at`. A
/// `let`-bound guard (including `if let` / `while let` / `match` heads,
/// whose temporaries live for the whole expression) lives to the end of
/// the enclosing block; a plain temporary dies with its statement.
fn guard_scope_end(masked: &str, at: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut b = at;
    while b > 0 && !matches!(bytes[b - 1], b';' | b'{' | b'}') {
        b -= 1;
    }
    let head = masked[b..at].trim_start();
    let let_bound = head.starts_with("let ")
        || head.starts_with("if let ")
        || head.starts_with("while let ")
        || head.starts_with("match ")
        || head.starts_with("for ");
    if let_bound {
        enclosing_block_end(masked, at)
    } else {
        statement_end(masked, at)
    }
}

/// Offset of the `}` closing the innermost block containing `at`.
fn enclosing_block_end(masked: &str, at: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut depth = 0usize;
    let mut k = at;
    while k > 0 {
        k -= 1;
        match bytes[k] {
            b'}' => depth += 1,
            b'{' => {
                if depth == 0 {
                    return matching(bytes, k, b'{', b'}').unwrap_or(masked.len());
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    masked.len()
}

/// Offset where the statement containing `at` ends: its `;` at bracket
/// depth zero, or the `}` that closes the surrounding block (tail
/// expression).
fn statement_end(masked: &str, at: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut depth = 0i32;
    for (k, &b) in bytes.iter().enumerate().skip(at) {
        match b {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' => depth -= 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return k;
                }
            }
            b';' if depth <= 0 => return k,
            _ => {}
        }
    }
    masked.len()
}

/// Every named lock acquisition in `file`'s non-test code. `.lock()` (and
/// `.lock_checked()`) always counts — only mutexes have it; `.read()` /
/// `.write()` count only when the receiver is a declared `RwLock` name,
/// so io methods never match.
fn lock_sites(file: &SourceFile, rwlock_names: &BTreeSet<String>) -> Vec<LockSite> {
    let bytes = file.masked.as_bytes();
    let mut sites = Vec::new();
    let needles = [
        (".lock()", false),
        (".lock_checked()", false),
        (".read()", true),
        (".write()", true),
        (".read_checked()", true),
        (".write_checked()", true),
    ];
    for (needle, rwlock_only) in needles {
        let mut i = 0;
        while let Some(pos) = file.masked[i..].find(needle) {
            let at = i + pos;
            i = at + needle.len();
            if file.in_test_region(at) {
                continue;
            }
            let mut s = at;
            while s > 0 && is_ident_byte(bytes[s - 1]) {
                s -= 1;
            }
            if s == at {
                continue; // unnamed receiver, e.g. `).lock()`
            }
            let name = file.masked[s..at].to_string();
            if rwlock_only && !rwlock_names.contains(&name) {
                continue;
            }
            sites.push(LockSite {
                name,
                offset: at,
                scope_end: guard_scope_end(&file.masked, at),
            });
        }
    }
    sites.sort_by_key(|s| s.offset);
    sites
}

/// Blocking calls a guard must not span (rule R11). `Condvar::wait` is
/// deliberately absent: it releases the mutex while blocked.
const BLOCKING_NEEDLES: [(&str, &str); 6] = [
    (".recv()", ".recv()"),
    (".recv_timeout(", ".recv_timeout(..)"),
    (".write_all(", ".write_all(..)"),
    (".join()", ".join()"),
    ("sort_events(", "sort_events(..)"),
    ("sort_events_with(", "sort_events_with(..)"),
];

/// Per-file half of R10/R11: compute the file's lock sites, emit R11 for
/// blocking calls inside a guard scope, and collect the nesting edges for
/// the workspace-wide R10 cycle search.
fn check_conc_file(
    file: &SourceFile,
    rwlock_names: &BTreeSet<String>,
    edges: &mut Vec<LockEdge>,
    violations: &mut Vec<Violation>,
) {
    if !conc_in_scope(file) {
        return;
    }
    let sites = lock_sites(file, rwlock_names);

    for outer in &sites {
        for inner in &sites {
            if inner.offset > outer.offset
                && inner.offset < outer.scope_end
                && inner.name != outer.name
            {
                let line = file.line_of(inner.offset);
                if file.allowed("R10", line) {
                    continue;
                }
                edges.push(LockEdge {
                    from: outer.name.clone(),
                    to: inner.name.clone(),
                    path: file.rel.clone(),
                    line,
                });
            }
        }
    }

    let mut reported: BTreeSet<usize> = BTreeSet::new();
    for site in &sites {
        let end = site.scope_end.min(file.masked.len());
        let scope = &file.masked[site.offset..end];
        for (needle, token) in BLOCKING_NEEDLES {
            let mut j = 0;
            while let Some(p) = scope[j..].find(needle) {
                let abs = site.offset + j + p;
                j += p + needle.len();
                // A word boundary before keeps `resort_events(` and
                // friends from matching the bare-function needles.
                if !needle.starts_with('.') {
                    let before = file.masked.as_bytes()[..abs]
                        .last()
                        .copied()
                        .unwrap_or(b' ');
                    if is_ident_byte(before) {
                        continue;
                    }
                }
                if file.in_test_region(abs) || !reported.insert(abs) {
                    continue;
                }
                let line = file.line_of(abs);
                if file.allowed("R11", line) {
                    continue;
                }
                violations.push(Violation {
                    rule: "R11",
                    path: file.rel.clone(),
                    line,
                    token: token.to_string(),
                    message: format!(
                        "`{token}` can block while the `{}` guard (taken on line {}) is \
                         still held, starving every thread that needs the lock; drop the \
                         guard in an inner block first (or tag with \
                         `// lint: allow(R11): <reason>`)",
                        site.name,
                        file.line_of(site.offset)
                    ),
                });
            }
        }
    }
}

/// BFS path `from -> .. -> to` through the acquisition graph, inclusive.
fn lock_path<'a>(
    adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
    from: &'a str,
    to: &str,
) -> Option<Vec<&'a str>> {
    let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
    let mut visited: BTreeSet<&str> = BTreeSet::from([from]);
    let mut queue: VecDeque<&str> = VecDeque::from([from]);
    while let Some(node) = queue.pop_front() {
        if node == to {
            let mut path = vec![node];
            let mut cur = node;
            while let Some(&p) = parent.get(cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(node).into_iter().flatten() {
            if visited.insert(next) {
                parent.insert(next, node);
                queue.push_back(next);
            }
        }
    }
    None
}

/// R10: cycles in the workspace-wide acquisition graph. Each edge whose
/// target can reach back to its source closes a cycle; one finding per
/// distinct lock set, anchored at the inner acquisition of the first
/// closing edge found.
fn check_r10(edges: &[LockEdge], violations: &mut Vec<Violation>) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for e in edges {
        let Some(path) = lock_path(&adj, e.to.as_str(), e.from.as_str()) else {
            continue;
        };
        let mut cycle: Vec<&str> = vec![e.from.as_str()];
        cycle.extend(path);
        let mut sig: Vec<&str> = cycle.clone();
        sig.sort_unstable();
        sig.dedup();
        if !seen.insert(sig.join(",")) {
            continue;
        }
        // For the common two-lock inversion, name the opposing site too.
        let counter = edges
            .iter()
            .find(|o| o.from == e.to && o.to == e.from)
            .map(|o| format!(" (opposite order at {}:{})", o.path, o.line))
            .unwrap_or_default();
        violations.push(Violation {
            rule: "R10",
            path: e.path.clone(),
            line: e.line,
            token: format!("lock-cycle:{}", cycle.join("->")),
            message: format!(
                "lock-order inversion: acquisition cycle {} means two paths can take \
                 these locks in opposite orders and deadlock{counter}; pick one global \
                 order (see the rank table in dema_core::sync)",
                cycle.join(" -> ")
            ),
        });
    }
}

/// R12: unbounded channel construction in hot-path crates. Needles are
/// `unbounded(..)` (crossbeam-style, turbofish allowed) and std
/// `mpsc::channel(..)` (unbounded by construction; `sync_channel` is the
/// bounded twin and does not match).
fn check_r12(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !conc_in_scope(file) {
        return;
    }
    let bytes = file.masked.as_bytes();
    for at in word_occurrences(&file.masked, "unbounded") {
        let mut j = at + "unbounded".len();
        if file.masked[j..].starts_with("::<") {
            match matching(bytes, j + 2, b'<', b'>') {
                Some(close) => j = close + 1,
                None => continue,
            }
        }
        if bytes.get(j) != Some(&b'(') || file.in_test_region(at) {
            continue;
        }
        let line = file.line_of(at);
        if file.allowed("R12", line) {
            continue;
        }
        violations.push(Violation {
            rule: "R12",
            path: file.rel.clone(),
            line,
            token: "unbounded(..)".to_string(),
            message: "unbounded channel in a hot-path crate turns backpressure into \
                      unbounded memory growth; use a bounded channel, or tag a link \
                      whose depth is bounded elsewhere with `// lint: allow(R12): <reason>`"
                .to_string(),
        });
    }
    let needle = "mpsc::channel";
    let mut i = 0;
    while let Some(pos) = file.masked[i..].find(needle) {
        let at = i + pos;
        i = at + needle.len();
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let mut j = at + needle.len();
        if file.masked[j..].starts_with("::<") {
            match matching(bytes, j + 2, b'<', b'>') {
                Some(close) => j = close + 1,
                None => continue,
            }
        }
        if bytes.get(j) != Some(&b'(') || file.in_test_region(at) {
            continue;
        }
        let line = file.line_of(at);
        if file.allowed("R12", line) {
            continue;
        }
        violations.push(Violation {
            rule: "R12",
            path: file.rel.clone(),
            line,
            token: "mpsc::channel(..)".to_string(),
            message: "std `mpsc::channel` is unbounded; use `sync_channel` (or tag with \
                      `// lint: allow(R12): <reason>` if depth is bounded elsewhere)"
                .to_string(),
        });
    }
}

/// R13: raw lock types in hot-path crates. Any `parking_lot` mention, a
/// qualified `std::sync::Mutex` / `RwLock` / `Condvar`, or a
/// `use std::sync::{..}` list naming one of them escapes the ranked
/// `dema_core::sync::Mutex` and the runtime lock-order tracker.
fn check_r13(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !conc_in_scope(file) {
        return;
    }
    let bytes = file.masked.as_bytes();
    let push = |line: usize, token: &str, violations: &mut Vec<Violation>| {
        if file.allowed("R13", line) {
            return;
        }
        violations.push(Violation {
            rule: "R13",
            path: file.rel.clone(),
            line,
            token: token.to_string(),
            message: format!(
                "raw `{token}` lock in a hot-path crate escapes the runtime lock-order \
                 tracker; use the ranked `dema_core::sync::Mutex` (or tag with \
                 `// lint: allow(R13): <reason>`)"
            ),
        });
    };
    let direct = [
        "parking_lot",
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::Condvar",
    ];
    for needle in direct {
        let mut i = 0;
        while let Some(pos) = file.masked[i..].find(needle) {
            let at = i + pos;
            i = at + needle.len();
            let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
            let after = at + needle.len();
            let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
            if before_ok && after_ok && !file.in_test_region(at) {
                push(file.line_of(at), needle, violations);
            }
        }
    }
    let group = "std::sync::{";
    let mut i = 0;
    while let Some(pos) = file.masked[i..].find(group) {
        let at = i + pos;
        let open = at + group.len() - 1;
        let Some(close) = matching(bytes, open, b'{', b'}') else {
            i = open + 1;
            continue;
        };
        i = close;
        if file.in_test_region(at) {
            continue;
        }
        for word in ["Mutex", "RwLock", "Condvar"] {
            if contains_word(&file.masked[open..close], word) {
                push(file.line_of(at), &format!("std::sync::{word}"), violations);
            }
        }
    }
}

/// Parse the variant names of `enum <name>` from a masked file.
fn enum_variants(masked: &str, enum_name: &str) -> Vec<String> {
    let needle = format!("enum {enum_name}");
    let Some(pos) = masked.find(&needle) else {
        return Vec::new();
    };
    let bytes = masked.as_bytes();
    let Some(open) = masked[pos..].find('{').map(|o| pos + o) else {
        return Vec::new();
    };
    let Some(close) = matching(bytes, open, b'{', b'}') else {
        return Vec::new();
    };
    let body = &masked[open + 1..close];
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut expecting = true; // next top-level identifier is a variant name
    let mut i = 0;
    let b = body.as_bytes();
    while i < b.len() {
        match b[i] {
            b'{' | b'(' | b'[' => {
                depth += 1;
                i += 1;
            }
            b'}' | b')' | b']' => {
                depth -= 1;
                i += 1;
            }
            b',' if depth == 0 => {
                expecting = true;
                i += 1;
            }
            b'#' if depth == 0 => {
                // Attribute on a variant: skip the [...] block.
                if let Some(ab) = body[i..].find('[') {
                    if let Some(close) = matching(b, i + ab, b'[', b']') {
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            c if depth == 0 && expecting && c.is_ascii_uppercase() => {
                let start = i;
                while i < b.len() && is_ident_byte(b[i]) {
                    i += 1;
                }
                variants.push(body[start..i].to_string());
                expecting = false;
            }
            _ => i += 1,
        }
    }
    variants
}

/// R3/R4 helper: where is `Enum::Variant` mentioned across the workspace?
struct VariantUse {
    /// Mentioned in non-test code outside the defining file.
    constructed: bool,
    /// Mentioned in test context anywhere.
    tested: bool,
}

fn variant_uses(
    files: &[SourceFile],
    defining_file_suffix: &str,
    enum_name: &str,
    variant: &str,
) -> VariantUse {
    let mut usage = VariantUse {
        constructed: false,
        tested: false,
    };
    let qualified = format!("{enum_name}::{variant}");
    for file in files {
        for at in word_occurrences(&file.masked, &qualified) {
            let in_test = file.in_test_region(at + qualified.len() - 1);
            if in_test {
                usage.tested = true;
            } else if !file.rel.ends_with(defining_file_suffix) {
                usage.constructed = true;
            }
        }
    }
    usage
}

/// R3: every `DemaError` variant constructed and exercised by a test.
fn check_r3(files: &[SourceFile], violations: &mut Vec<Violation>) {
    let defining = "dema-core/src/error.rs";
    let Some(error_file) = files.iter().find(|f| f.rel.ends_with(defining)) else {
        return;
    };
    for variant in enum_variants(&error_file.masked, "DemaError") {
        let usage = variant_uses(files, defining, "DemaError", &variant);
        if !usage.constructed {
            violations.push(Violation {
                rule: "R3",
                path: error_file.rel.clone(),
                line: 0,
                token: variant.clone(),
                message: format!(
                    "DemaError::{variant} is never constructed outside error.rs — dead \
                     protocol error (construct it or remove the variant)"
                ),
            });
        }
        if !usage.tested {
            violations.push(Violation {
                rule: "R3",
                path: error_file.rel.clone(),
                line: 0,
                token: format!("{variant}(untested)"),
                message: format!(
                    "DemaError::{variant} is never matched in any test — its error path is \
                     unverified"
                ),
            });
        }
    }
}

/// R4: every wire `Message` variant mentioned by some test.
fn check_r4(files: &[SourceFile], violations: &mut Vec<Violation>) {
    let defining = "dema-wire/src/message.rs";
    let Some(message_file) = files.iter().find(|f| f.rel.ends_with(defining)) else {
        return;
    };
    for variant in enum_variants(&message_file.masked, "Message") {
        let usage = variant_uses(files, defining, "Message", &variant);
        if !usage.tested {
            violations.push(Violation {
                rule: "R4",
                path: message_file.rel.clone(),
                line: 0,
                token: variant.clone(),
                message: format!(
                    "wire Message::{variant} has no golden/property test mention — protocol \
                     drift would go unnoticed"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Allocation discipline (R15–R17, `--alloc`)
// ---------------------------------------------------------------------------

/// Hot-path regions the allocation pass audits. Each entry pairs a file
/// suffix with the name a `// hot-path: <name>` marker comment must carry
/// there; the audited region is the next brace-delimited block after the
/// marker (a function body, an impl, a loop). A listed marker missing from
/// an existing file is itself an R15 finding — the audit surface may only
/// grow, never silently shrink.
pub const HOT_PATH_REGIONS: [(&str, &str); 8] = [
    ("dema-core/src/slice.rs", "slicer"),
    ("dema-core/src/merge.rs", "merge-select"),
    ("dema-wire/src/message.rs", "codec"),
    ("dema-wire/src/frame.rs", "frame-io"),
    ("dema-net/src/reactor.rs", "reactor-dispatch"),
    ("dema-cluster/src/engines/dema.rs", "local-window"),
    ("dema-cluster/src/engines/dema.rs", "responder-serve"),
    ("dema-cluster/src/engines/retry.rs", "supervisor-tick"),
];

/// Files whose frame encode/decode must append into the connection's
/// reused buffer (R16): ad-hoc `vec![..]` payload buffers or
/// buffer-bypassing `.to_bytes(..)` helpers there allocate per frame.
pub const R16_FILES: [&str; 3] = [
    "dema-wire/src/frame.rs",
    "dema-net/src/tcp.rs",
    "dema-net/src/mem.rs",
];

/// Crates whose send paths R17 audits for SharedRun payload copies.
const R17_CRATES: [&str; 2] = ["dema-cluster", "dema-net"];

/// Byte range of the region introduced by `// hot-path: <name>`: the next
/// `{`..`}` block after the marker line. The marker lives in a comment, so
/// it is looked up in the *raw* text; masking preserves length, so the
/// offsets carry over to the masked view the needle scan uses.
fn hot_path_region(file: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let needle = format!("// hot-path: {name}");
    let mut search = 0;
    while let Some(pos) = file.text[search..].find(&needle) {
        let at = search + pos;
        search = at + needle.len();
        // The marker must end its line: "// hot-path: codec2" is not "codec".
        let line_end = file.text[at..]
            .find('\n')
            .map_or(file.text.len(), |n| at + n);
        if !file.text[at + needle.len()..line_end].trim().is_empty() {
            continue;
        }
        let bytes = file.masked.as_bytes();
        let open = (line_end..bytes.len()).find(|&i| bytes[i] == b'{')?;
        let close = matching(bytes, open, b'{', b'}')?;
        return Some((open, close + 1));
    }
    None
}

/// Names declared with a `SharedRun` type or bound via `SharedRun::new`,
/// collected workspace-wide. `SharedRun` is an `Arc`-backed view, so
/// `.clone()` on one of these names is a refcount bump, not a payload
/// copy — R15 exempts it, while R17 flags `.to_vec()` on the same names.
fn declared_shared_runs(files: &[SourceFile]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in files {
        for line in file.masked.lines() {
            if contains_word(line, "SharedRun") {
                collect_decl_name(line, "SharedRun", &mut names);
                collect_plain_decl_name(line, "SharedRun", &mut names);
            }
        }
    }
    names
}

/// Names annotated with the exact (non-generic) type `ty` — `name: Ty`,
/// `name: &Ty`, `name: &mut Ty` in a field or parameter list — plus
/// `let`-bindings of any `Ty::ctor(..)` call. Complements
/// [`collect_decl_name`], which handles generic `Ty<..>` annotations and
/// `Ty::new` bindings; `Vec<Ty>` containers deliberately do not resolve
/// (the container name is not a `Ty`).
fn collect_plain_decl_name(line: &str, ty: &str, names: &mut BTreeSet<String>) {
    let t = line.trim_start();
    if let Some(rest) = t.strip_prefix("let ") {
        if line.contains(&format!("{ty}::")) {
            let rest = rest.trim_start();
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                names.insert(name);
            }
        }
    }
    let bytes = line.as_bytes();
    for at in word_occurrences(line, ty) {
        // Walk left across reference sigils and an optional `mut` to the
        // annotation's `:` (a `::` path segment does not count).
        let mut k = at;
        while k > 0 && (bytes[k - 1] == b' ' || bytes[k - 1] == b'&') {
            k -= 1;
        }
        if k >= 3 && &line[k - 3..k] == "mut" && (k == 3 || !is_ident_byte(bytes[k - 4])) {
            k -= 3;
            while k > 0 && (bytes[k - 1] == b' ' || bytes[k - 1] == b'&') {
                k -= 1;
            }
        }
        if k == 0 || bytes[k - 1] != b':' || (k >= 2 && bytes[k - 2] == b':') {
            continue;
        }
        let mut end = k - 1;
        while end > 0 && bytes[end - 1] == b' ' {
            end -= 1;
        }
        let mut start = end;
        while start > 0 && is_ident_byte(bytes[start - 1]) {
            start -= 1;
        }
        if start < end {
            names.insert(line[start..end].to_string());
        }
    }
}

/// Identifier immediately left of offset `at` (empty if none).
fn ident_before(bytes: &[u8], at: usize) -> String {
    let mut start = at;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    String::from_utf8_lossy(&bytes[start..at]).into_owned()
}

/// Record one allocation finding at masked offset `at` unless an allow tag
/// covers its line.
fn push_alloc_violation(
    file: &SourceFile,
    rule: &'static str,
    at: usize,
    token: &str,
    detail: &str,
    violations: &mut Vec<Violation>,
) {
    if file.in_test_region(at) {
        return;
    }
    let line = file.line_of(at);
    if file.allowed(rule, line) {
        return;
    }
    violations.push(Violation {
        rule,
        path: file.rel.clone(),
        line,
        token: token.to_string(),
        message: detail.to_string(),
    });
}

/// Scan one hot-path region for raw allocation sites (the R15 needles).
fn scan_alloc_region(
    file: &SourceFile,
    region: &str,
    start: usize,
    end: usize,
    shared_runs: &BTreeSet<String>,
    violations: &mut Vec<Violation>,
) {
    let bytes = file.masked.as_bytes();
    let slice = &file.masked[start..end];
    let fire = |what: &str| {
        format!(
            "hot-path region `{region}` {what}; per-window work must reuse \
             pooled or thread-local buffers (`// lint: allow(R15): <reason>` \
             for allocation-free or cold sites)"
        )
    };
    // Unconditional needles: every hit is a fresh heap block per window.
    for (needle, token, what) in [
        (
            "Vec::new(",
            "Vec::new",
            "builds a fresh Vec with `Vec::new(..)`",
        ),
        ("vec![", "vec!", "allocates with the `vec![..]` macro"),
        (".to_vec()", "to_vec", "copies a slice with `.to_vec()`"),
        ("Box::new(", "Box::new", "boxes a value with `Box::new(..)`"),
        (
            "String::from(",
            "String::from",
            "allocates a String with `String::from(..)`",
        ),
    ] {
        let mut i = 0;
        while let Some(pos) = slice[i..].find(needle) {
            let at = start + i + pos;
            i += pos + needle.len();
            if needle.starts_with(|c: char| is_ident_byte(c as u8))
                && at > 0
                && is_ident_byte(bytes[at - 1])
            {
                continue; // MyVec::new, my_vec![ …
            }
            push_alloc_violation(file, "R15", at, token, &fire(what), violations);
        }
    }
    // `with_capacity(expr)` is fine when the capacity is exact; a capacity
    // clamped with `.min(..)` is the under-sizing pattern that reallocs on
    // real windows (the pre-pool codec caps).
    let mut i = 0;
    while let Some(pos) = slice[i..].find("with_capacity(") {
        let at = start + i + pos;
        i += pos + "with_capacity(".len();
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let open = at + "with_capacity".len();
        let Some(close) = matching(bytes, open, b'(', b')') else {
            continue;
        };
        if file.masked[open..close].contains(".min(") {
            push_alloc_violation(
                file,
                "R15",
                at,
                "with_capacity(..min..)",
                &fire(
                    "clamps a capacity with `.min(..)` — the buffer under-sizes \
                     and reallocates on real windows; validate the length and \
                     size exactly, or draw from a pool",
                ),
                violations,
            );
        }
    }
    // `.clone()` copies the payload — unless the receiver is a declared
    // SharedRun (an Arc view; its clone is a refcount bump).
    let mut i = 0;
    while let Some(pos) = slice[i..].find(".clone()") {
        let at = start + i + pos;
        i += pos + ".clone()".len();
        let recv = ident_before(bytes, at);
        if shared_runs.contains(&recv) {
            continue;
        }
        push_alloc_violation(
            file,
            "R15",
            at,
            "clone",
            &fire("deep-copies a payload with `.clone()`"),
            violations,
        );
    }
}

/// R15: no raw allocation sites inside marked hot-path regions, and every
/// region [`HOT_PATH_REGIONS`] mandates for a file actually carries its
/// marker.
fn check_r15(
    files: &[SourceFile],
    shared_runs: &BTreeSet<String>,
    violations: &mut Vec<Violation>,
) {
    for file in files {
        if file.test_by_path {
            continue;
        }
        for &(suffix, name) in &HOT_PATH_REGIONS {
            if !file.rel.ends_with(suffix) {
                continue;
            }
            let Some((start, end)) = hot_path_region(file, name) else {
                violations.push(Violation {
                    rule: "R15",
                    path: file.rel.clone(),
                    line: 0,
                    token: format!("missing-marker:{name}"),
                    message: format!(
                        "hot-path region `{name}` is mandated here but its \
                         `// hot-path: {name}` marker is gone — the allocation \
                         audit surface may only grow; restore the marker above \
                         the region"
                    ),
                });
                continue;
            };
            scan_alloc_region(file, name, start, end, shared_runs, violations);
        }
    }
}

/// R16: frame encode/decode files append into the connection's reused
/// buffer. Needles are ad-hoc `vec![..]` payload buffers, buffer-bypassing
/// `.to_bytes(..)` helpers, and the min-clamped `with_capacity` caps.
fn check_r16(file: &SourceFile, violations: &mut Vec<Violation>) {
    if file.test_by_path || !R16_FILES.iter().any(|f| file.rel.ends_with(f)) {
        return;
    }
    let bytes = file.masked.as_bytes();
    for (needle, token, what) in [
        (
            "vec![",
            "vec!",
            "builds a per-frame buffer with `vec![..]` instead of appending \
             into the connection's reused buffer — every frame pays an \
             allocator round-trip",
        ),
        (
            ".to_bytes(",
            "to_bytes",
            "serializes through a buffer-bypassing `.to_bytes(..)` helper; \
             append into the connection's reused buffer with \
             `encode_frame_into` instead",
        ),
    ] {
        let mut i = 0;
        while let Some(pos) = file.masked[i..].find(needle) {
            let at = i + pos;
            i = at + needle.len();
            push_alloc_violation(
                file,
                "R16",
                at,
                token,
                &format!("frame i/o {what} (`// lint: allow(R16): <reason>` if cold)"),
                violations,
            );
        }
    }
    let mut i = 0;
    while let Some(pos) = file.masked[i..].find("with_capacity(") {
        let at = i + pos;
        i = at + "with_capacity(".len();
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let open = at + "with_capacity".len();
        let Some(close) = matching(bytes, open, b'(', b')') else {
            continue;
        };
        if file.masked[open..close].contains(".min(") {
            push_alloc_violation(
                file,
                "R16",
                at,
                "with_capacity(..min..)",
                "frame i/o clamps a buffer capacity with `.min(..)` — validate \
                 the length prefix and size exactly, or append into the \
                 connection's reused buffer",
                violations,
            );
        }
    }
}

/// R17: channel/send paths must not copy SharedRun payload bytes. The
/// needle is `.to_vec()` on a workspace-declared SharedRun name in
/// `dema-cluster` / `dema-net` library code — ship the `Arc`-backed view
/// (or a sub-`SharedRun`) instead of materializing the events.
fn check_r17(
    files: &[SourceFile],
    shared_runs: &BTreeSet<String>,
    violations: &mut Vec<Violation>,
) {
    for file in files {
        if file.test_by_path || !in_crate_src(file, &R17_CRATES) {
            continue;
        }
        let bytes = file.masked.as_bytes();
        let mut i = 0;
        while let Some(pos) = file.masked[i..].find(".to_vec()") {
            let at = i + pos;
            i = at + ".to_vec()".len();
            let recv = ident_before(bytes, at);
            if !shared_runs.contains(&recv) {
                continue;
            }
            push_alloc_violation(
                file,
                "R17",
                at,
                &format!("{recv}.to_vec"),
                &format!(
                    "send path copies SharedRun payload `{recv}` with \
                     `.to_vec()`; ship the Arc-backed view (clone is a \
                     refcount bump) instead of materializing the events \
                     (`// lint: allow(R17): <reason>` for cold paths)"
                ),
                violations,
            );
        }
    }
}

/// `true` if `rule`'s findings can occur in `file` — i.e. an allow tag for
/// it there is load-bearing. Tags for out-of-scope rules (doc examples,
/// message strings) are inert, not stale; likewise R10–R13 tags are only
/// load-bearing when the concurrency pass actually ran, and R15–R17 tags
/// when the allocation pass did.
fn rule_in_scope(rule: &str, file: &SourceFile, concurrency: bool, alloc: bool) -> bool {
    match rule {
        "R1" => !file.test_by_path && in_crate_src(file, &R1_CRATES),
        "R2" => R2_FILES.iter().any(|f| file.rel.ends_with(f)),
        "R5" => {
            !file.test_by_path
                && (file.rel.contains("crates/dema-cluster/src/")
                    || file.rel.starts_with("dema-cluster/src/"))
        }
        "R9" => !file.test_by_path && in_crate_src(file, &R9_CRATES),
        "R10" | "R11" | "R12" | "R13" => concurrency && conc_in_scope(file),
        "R14" => !file.test_by_path && R14_FILES.iter().any(|f| file.rel.ends_with(f)),
        "R15" => {
            alloc
                && !file.test_by_path
                && HOT_PATH_REGIONS
                    .iter()
                    .any(|(suffix, _)| file.rel.ends_with(suffix))
        }
        "R16" => alloc && !file.test_by_path && R16_FILES.iter().any(|f| file.rel.ends_with(f)),
        "R17" => alloc && !file.test_by_path && in_crate_src(file, &R17_CRATES),
        _ => false,
    }
}

/// Well-formed `// lint: allow(Rn): <reason>` tags in raw text, as
/// `(0-based line, rule)` — the same shape [`SourceFile::allowed`] accepts.
fn allow_tags(text: &str) -> Vec<(usize, String)> {
    let mut tags = Vec::new();
    const NEEDLE: &str = "lint: allow(";
    for (idx, line) in text.lines().enumerate() {
        let mut i = 0;
        while let Some(pos) = line[i..].find(NEEDLE) {
            let at = i + pos;
            let rest = &line[at + NEEDLE.len()..];
            let Some(close) = rest.find(')') else { break };
            let rule = &rest[..close];
            let tail = rest[close + 1..].trim_start();
            let well_formed = rule.len() >= 2
                && rule.starts_with('R')
                && rule[1..].bytes().all(|b| b.is_ascii_digit())
                && tail.starts_with(':')
                && tail[1..].trim().len() >= 3;
            if well_formed {
                tags.push((idx, rule.to_string()));
            }
            i = at + NEEDLE.len() + close;
        }
    }
    tags
}

/// R8: stale allow tags. Runs after the allow-consuming rules so
/// [`SourceFile::used_allows`] is populated; every well-formed in-scope
/// tag that suppressed nothing is a finding — the justification outlived
/// the code it excused.
fn check_r8(file: &SourceFile, concurrency: bool, alloc: bool, violations: &mut Vec<Violation>) {
    let used = file.used_allows.borrow();
    for (line_idx, rule) in allow_tags(&file.text) {
        if !rule_in_scope(&rule, file, concurrency, alloc) {
            continue;
        }
        if used.contains(&(line_idx, rule.clone())) {
            continue;
        }
        violations.push(Violation {
            rule: "R8",
            path: file.rel.clone(),
            line: line_idx + 1,
            token: format!("allow({rule})"),
            message: format!(
                "stale `// lint: allow({rule})` tag: no {rule} finding on the covered \
                 lines — remove the tag (or restore the code it excused)"
            ),
        });
    }
}

/// All `Message::<Variant>` mentions in `file`, split into non-test
/// (`key = false`) and test-context (`key = true`) sets.
fn message_mentions(file: &SourceFile) -> [BTreeMap<String, usize>; 2] {
    let mut out = [BTreeMap::new(), BTreeMap::new()];
    const NEEDLE: &str = "Message::";
    let bytes = file.masked.as_bytes();
    let mut i = 0;
    while let Some(pos) = file.masked[i..].find(NEEDLE) {
        let at = i + pos;
        i = at + NEEDLE.len();
        // `Message::` must be the full path segment, not `WireMessage::`.
        if at > 0 && is_ident_byte(bytes[at - 1]) {
            continue;
        }
        let start = at + NEEDLE.len();
        let mut end = start;
        while end < bytes.len() && is_ident_byte(bytes[end]) {
            end += 1;
        }
        let ident = &file.masked[start..end];
        if !ident.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            continue;
        }
        let set = usize::from(file.in_test_region(at));
        let line = file.line_of(at);
        out[set].entry(ident.to_string()).or_insert(line);
    }
    out
}

/// R6: protocol-spec conformance of each role-hosting file. Every variant
/// the file's roles can receive must be mentioned in non-test code (a
/// deleted match arm fails), and no variant outside `receives ∪ sends` of
/// the hosted roles may appear there (a forbidden handler fails).
fn check_r6(files: &[SourceFile], violations: &mut Vec<Violation>) {
    for spec_file in dema_model::spec::spec_files() {
        let Some(file) = files.iter().find(|f| f.rel.ends_with(spec_file)) else {
            continue;
        };
        let required = dema_model::spec::required_for_file(spec_file);
        let allowed = dema_model::spec::allowed_for_file(spec_file);
        let [non_test, _] = message_mentions(file);
        for req in &required {
            if !non_test.contains_key(*req) {
                violations.push(Violation {
                    rule: "R6",
                    path: file.rel.clone(),
                    line: 0,
                    token: format!("{req}(unhandled)"),
                    message: format!(
                        "spec: a role hosted here can receive Message::{req}, but no \
                         non-test code mentions it — a match arm is missing"
                    ),
                });
            }
        }
        for (variant, line) in &non_test {
            if !allowed.contains(&variant.as_str()) {
                violations.push(Violation {
                    rule: "R6",
                    path: file.rel.clone(),
                    line: *line,
                    token: variant.clone(),
                    message: format!(
                        "spec: Message::{variant} is outside receives ∪ sends of the \
                         roles hosted here — forbidden handler or undeclared send"
                    ),
                });
            }
        }
    }
}

/// R7: every spec transition is referenced by a test. A wire-triggered
/// transition with a reply needs one file whose test code mentions both
/// the trigger and the reply (the tag pair); a pseudo-triggered one needs
/// its reply tested; a pure state update needs its trigger tested.
fn check_r7(files: &[SourceFile], violations: &mut Vec<Violation>) {
    let test_mentions: Vec<BTreeMap<String, usize>> = files
        .iter()
        .map(|f| {
            let [_, tested] = message_mentions(f);
            tested
        })
        .collect();
    let covered = |needed: &[&str]| {
        test_mentions
            .iter()
            .any(|set| needed.iter().all(|n| set.contains_key(*n)))
    };
    for role in dema_model::spec::SPEC.roles {
        for tr in role.transitions {
            let pseudo = dema_model::spec::is_pseudo(tr.on);
            let needed: Vec<&str> = match (pseudo, tr.reply) {
                (true, Some(reply)) => vec![reply],
                (true, None) => continue,
                (false, Some(reply)) => vec![tr.on, reply],
                (false, None) => vec![tr.on],
            };
            if covered(&needed) {
                continue;
            }
            let pair = match tr.reply {
                Some(reply) => format!("{}->{reply}", tr.on),
                None => tr.on.to_string(),
            };
            violations.push(Violation {
                rule: "R7",
                path: role.file.to_string(),
                line: 0,
                token: format!("{}:{pair}", role.name),
                message: format!(
                    "spec: transition ({pair}) of role {} has no test mentioning its \
                     tag pair in one place — the edge is unverified",
                    role.name
                ),
            });
        }
    }
}

/// Parse a baseline file: `RULE|path|token` lines, `#` comments.
///
/// Stale entries — keys matching no current finding of a rule that ran —
/// are reported in [`Report::stale_baseline`] and fail the gate: the
/// baseline may only shrink.
pub fn parse_baseline(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(ToOwned::to_owned)
        .collect()
}

/// Outcome of one lint run.
pub struct Report {
    /// New violations (not covered by the baseline).
    pub violations: Vec<Violation>,
    /// Findings suppressed by baseline entries.
    pub baselined: usize,
    /// Baseline entries matching no current finding of a rule that ran —
    /// the gate fails on these too (the baseline may only shrink).
    pub stale_baseline: Vec<String>,
    /// Files analyzed.
    pub files_checked: usize,
}

/// Run the always-on rules (R1–R5, R8, R9) over the workspace rooted at
/// `root`. Equivalent to [`check_full`] with `spec` and `concurrency`
/// both off.
///
/// `baseline` holds `RULE|path|token` keys of accepted findings.
pub fn check(root: &Path, baseline: &[String]) -> Report {
    check_all(root, baseline, false, false, false)
}

/// [`check_all`] without the allocation pass — kept for callers predating
/// `--alloc`.
pub fn check_full(root: &Path, baseline: &[String], spec: bool, concurrency: bool) -> Report {
    check_all(root, baseline, spec, concurrency, false)
}

/// Run all rules over the workspace rooted at `root`. With `spec: true`
/// the protocol-conformance rules R6/R7 (backed by `dema_model::spec`)
/// run as well; with `concurrency: true` the lock/channel rules R10–R13
/// do, and with `alloc: true` the allocation-discipline rules R15–R17.
pub fn check_all(
    root: &Path,
    baseline: &[String],
    spec: bool,
    concurrency: bool,
    alloc: bool,
) -> Report {
    let mut paths = Vec::new();
    walk(&root.join("crates"), &mut paths);
    if paths.is_empty() {
        // Fixture trees may root the crates directly.
        walk(root, &mut paths);
    }
    let files: Vec<SourceFile> = paths
        .iter()
        .filter_map(|p| SourceFile::load(root, p))
        .collect();

    let mut all = Vec::new();
    for file in &files {
        check_r1(file, &mut all);
        check_r2(file, &mut all);
        check_r5(file, &mut all);
        check_r9(file, &mut all);
        check_r14(file, &mut all);
    }
    check_r3(&files, &mut all);
    check_r4(&files, &mut all);
    if concurrency {
        let rwlocks = declared_rwlocks(&files);
        let mut edges = Vec::new();
        for file in &files {
            check_conc_file(file, &rwlocks, &mut edges, &mut all);
            check_r12(file, &mut all);
            check_r13(file, &mut all);
        }
        check_r10(&edges, &mut all);
    }
    if alloc {
        let shared_runs = declared_shared_runs(&files);
        check_r15(&files, &shared_runs, &mut all);
        for file in &files {
            check_r16(file, &mut all);
        }
        check_r17(&files, &shared_runs, &mut all);
    }
    // R8 must run after the allow-consuming rules above.
    for file in &files {
        check_r8(file, concurrency, alloc, &mut all);
    }
    if spec {
        check_r6(&files, &mut all);
        check_r7(&files, &mut all);
    }

    let mut rules_run: Vec<&str> = vec!["R1", "R2", "R3", "R4", "R5", "R8", "R9", "R14"];
    if spec {
        rules_run.extend(["R6", "R7"]);
    }
    if concurrency {
        rules_run.extend(["R10", "R11", "R12", "R13"]);
    }
    if alloc {
        rules_run.extend(["R15", "R16", "R17"]);
    }
    let all_keys: BTreeSet<String> = all.iter().map(Violation::baseline_key).collect();
    let stale_baseline: Vec<String> = baseline
        .iter()
        .filter(|key| {
            let rule = key.split('|').next().unwrap_or("");
            rules_run.contains(&rule) && !all_keys.contains(*key)
        })
        .cloned()
        .collect();

    let mut violations = Vec::new();
    let mut baselined = 0;
    for v in all {
        if baseline.contains(&v.baseline_key()) {
            baselined += 1;
        } else {
            violations.push(v);
        }
    }
    violations.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.token).cmp(&(b.rule, &b.path, b.line, &b.token))
    });
    Report {
        violations,
        baselined,
        stale_baseline,
        files_checked: files.len(),
    }
}

/// Group violations per rule for the summary line.
pub fn per_rule_counts(violations: &[Violation]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for v in violations {
        *counts.entry(v.rule).or_insert(0) += 1;
    }
    counts
}

/// Catalogue entry behind `dema-lint explain R<n>`.
pub struct RuleInfo {
    /// Rule identifier, `R1`..`R17`.
    pub id: &'static str,
    /// One-line statement of what the rule rejects.
    pub title: &'static str,
    /// Why the finding is a real defect in this workspace.
    pub rationale: &'static str,
    /// How to suppress a justified site, or `"-"` when the rule has no
    /// allow mechanism (whole-enum coverage rules).
    pub allow: &'static str,
}

/// Every rule the linter knows, in id order.
pub const RULES: [RuleInfo; 17] = [
    RuleInfo {
        id: "R1",
        title: "no unwrap/expect/panic!/todo!/unimplemented! in core library code",
        rationale: "a panicking library node drops every window in flight; hot-path code \
                    must surface DemaError so the resilience layer can retry or degrade",
        allow: "// lint: allow(R1): <reason>",
    },
    RuleInfo {
        id: "R2",
        title: "no raw `as` numeric casts in rank/gamma/merge arithmetic files",
        rationale: "a silent truncation in rank arithmetic turns an exact quantile into a \
                    wrong one; conversions go through dema_core::numeric or try_from",
        allow: "// lint: allow(R2): <reason>",
    },
    RuleInfo {
        id: "R3",
        title: "every DemaError variant is constructed somewhere and matched by a test",
        rationale: "a variant nobody builds is a dead protocol error; one no test matches \
                    is unverified failure behaviour",
        allow: "-",
    },
    RuleInfo {
        id: "R4",
        title: "every wire Message variant is mentioned by some test",
        rationale: "golden/property coverage of the protocol surface: silent wire drift \
                    would otherwise go unnoticed until a mixed-version run",
        allow: "-",
    },
    RuleInfo {
        id: "R5",
        title: "no bare blocking .recv() in dema-cluster library code",
        rationale: "an unbounded receive cannot observe retry deadlines or a severed peer \
                    and hangs the run the fault-tolerance layer exists to save; use \
                    .recv_timeout(..) or .try_recv()",
        allow: "// lint: allow(R5): <reason>",
    },
    RuleInfo {
        id: "R6",
        title: "(--spec) role files handle exactly the wire variants the spec assigns",
        rationale: "a deleted match arm or a handler for a forbidden variant means the \
                    implementation drifted from the declared protocol state machine",
        allow: "-",
    },
    RuleInfo {
        id: "R7",
        title: "(--spec) every spec transition's tag pair is exercised by a test",
        rationale: "an untested transition edge is protocol behaviour nothing would catch \
                    regressing",
        allow: "-",
    },
    RuleInfo {
        id: "R8",
        title: "no stale `// lint: allow(Rn)` tag",
        rationale: "a tag that suppresses nothing is a justification that outlived the \
                    code it excused; remove it or restore the code",
        allow: "-",
    },
    RuleInfo {
        id: "R9",
        title: "no ad-hoc thread::spawn in dema-core / dema-cluster",
        rationale: "a stray spawn in the window path reorders work nondeterministically \
                    and escapes the DEMA_THREADS shard budget; run it on the hosting shard",
        allow: "// lint: allow(R9): <reason>",
    },
    RuleInfo {
        id: "R10",
        title: "(--concurrency) no lock-order inversions across the workspace",
        rationale: "nested guard scopes define an acquisition graph; a cycle means two \
                    paths can take the same locks in opposite orders and deadlock. The \
                    runtime twin is the rank tracker in dema_core::sync",
        allow: "// lint: allow(R10): <reason>",
    },
    RuleInfo {
        id: "R11",
        title: "(--concurrency) no lock guard held across a blocking call",
        rationale: "recv/recv_timeout/write_all/join or a whole-window sort under a held \
                    guard starves every thread that needs the lock; drop the guard in an \
                    inner block first (Condvar::wait is exempt — it releases the mutex)",
        allow: "// lint: allow(R11): <reason>",
    },
    RuleInfo {
        id: "R12",
        title: "(--concurrency) no unbounded channel construction in hot-path crates",
        rationale: "an unbounded queue turns backpressure into unbounded memory growth; \
                    use a bounded channel or justify why depth is bounded elsewhere",
        allow: "// lint: allow(R12): <reason>",
    },
    RuleInfo {
        id: "R13",
        title: "(--concurrency) hot-path locks go through the ranked dema_core::sync::Mutex",
        rationale: "raw std::sync / parking_lot locks escape the ranked runtime tracker, \
                    so an inversion they join is invisible until it deadlocks in \
                    production; the wrapper module itself is exempt",
        allow: "// lint: allow(R13): <reason>",
    },
    RuleInfo {
        id: "R14",
        title: "no blocking recv/recv_timeout in reactor-hosted runtime files",
        rationale: "the reactor multiplexes every hosted role and the timer wheel onto one \
                    thread; a role that blocks in a channel receive — even a bounded one — \
                    stalls its peers and delays every deadline. Messages arrive as \
                    ReactorEvent::Readable, deadlines as reactor timers",
        allow: "// lint: allow(R14): <reason>",
    },
    RuleInfo {
        id: "R15",
        title: "(--alloc) no raw allocation sites inside marked hot-path regions",
        rationale: "the `// hot-path: <name>` regions run once per window; a Vec::new / \
                    vec! / to_vec / Box::new / String::from / min-clamped with_capacity / \
                    payload .clone() there pays an allocator round-trip per window and \
                    is counted by the per-leaf-window allocation gate. Reuse pooled or \
                    thread-local buffers; SharedRun clones (refcount bumps) are exempt. \
                    Deleting a mandated marker is itself a finding",
        allow: "// lint: allow(R15): <reason>",
    },
    RuleInfo {
        id: "R16",
        title: "(--alloc) frame encode/decode appends into the connection's reused buffer",
        rationale: "an ad-hoc vec![..] payload buffer, a buffer-bypassing .to_bytes(..) \
                    helper, or a min-clamped capacity in the framing files allocates \
                    (and likely reallocates) on every frame; append into the \
                    connection's reused buffer (encode_frame_into) so steady-state \
                    i/o recycles one buffer",
        allow: "// lint: allow(R16): <reason>",
    },
    RuleInfo {
        id: "R17",
        title: "(--alloc) send paths must not copy SharedRun payload bytes",
        rationale: "SharedRun is an Arc-backed view precisely so channel sends and \
                    candidate replies ship slices without materializing them; a \
                    .to_vec() on one re-copies the window payload per hop and scales \
                    memory with fan-in",
        allow: "// lint: allow(R17): <reason>",
    },
];

/// Look up one rule for `dema-lint explain`.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masking_blanks_strings_and_comments() {
        let src = "let a = \"panic!\"; // .unwrap()\n/* todo! */ let b = 'x';";
        let masked = mask_source(src);
        assert!(!masked.contains("panic!"));
        assert!(!masked.contains(".unwrap()"));
        assert!(!masked.contains("todo!"));
        assert!(!masked.contains('x'));
        assert!(masked.contains("let a ="));
        assert_eq!(masked.len(), src.len());
    }

    #[test]
    fn masking_handles_raw_strings_and_escapes() {
        let src = r##"let s = r#"a "quoted" .unwrap()"#; let t = "esc \" panic!";"##;
        let masked = mask_source(src);
        assert!(!masked.contains(".unwrap()"));
        assert!(!masked.contains("panic!"));
        assert!(masked.ends_with(';'));
    }

    #[test]
    fn masking_keeps_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        assert_eq!(mask_source(src), src);
    }

    #[test]
    fn test_region_detection() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap() }\n}\nfn c() {}\n";
        let masked = mask_source(src);
        let regions = find_test_regions(&masked);
        assert_eq!(regions.len(), 1);
        let unwrap_at = masked.find(".unwrap").unwrap();
        assert!((regions[0].0..regions[0].1).contains(&unwrap_at));
        let c_at = masked.rfind("fn c").unwrap();
        assert!(!(regions[0].0..regions[0].1).contains(&c_at));
    }

    #[test]
    fn cfg_all_test_is_a_test_region() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nmod t { }\nfn c() {}";
        let regions = find_test_regions(&mask_source(src));
        assert_eq!(regions.len(), 1);
    }

    #[test]
    fn non_test_cfg_is_not_a_test_region() {
        let src = "#[cfg(feature = \"test-utils\")]\nmod t { }\n#[cfg(unix)] fn u() {}";
        assert!(find_test_regions(&mask_source(src)).is_empty());
    }

    #[test]
    fn enum_variant_parsing() {
        let src = "pub enum DemaError {\n  /// doc\n  EmptyWindow,\n  InvalidQuantile(String),\n  EventOutOfWindow { ts: u64, start: u64 },\n  #[allow(dead_code)]\n  Last,\n}";
        let variants = enum_variants(&mask_source(src), "DemaError");
        assert_eq!(
            variants,
            vec!["EmptyWindow", "InvalidQuantile", "EventOutOfWindow", "Last"]
        );
    }

    fn cluster_file(src: &str) -> SourceFile {
        let masked = mask_source(src);
        let test_regions = find_test_regions(&masked);
        SourceFile {
            rel: "crates/dema-cluster/src/local.rs".to_string(),
            text: src.to_string(),
            masked,
            test_regions,
            test_by_path: false,
            used_allows: RefCell::new(BTreeSet::new()),
        }
    }

    #[test]
    fn r5_flags_bare_recv_only() {
        let mut v = Vec::new();
        check_r5(
            &cluster_file("fn f(rx: &R) { rx.recv(); rx.try_recv(); rx.recv_timeout(d); }"),
            &mut v,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("R5", 1));

        let mut v = Vec::new();
        check_r5(
            &cluster_file(
                "fn f(rx: &R) {\n    // lint: allow(R5): shutdown drain, peer already joined\n    rx.recv();\n}",
            ),
            &mut v,
        );
        assert!(v.is_empty(), "allow-tag must suppress: {v:?}");

        let mut v = Vec::new();
        check_r5(
            &cluster_file("#[cfg(test)]\nmod t {\n    fn g(rx: &R) { rx.recv(); }\n}"),
            &mut v,
        );
        assert!(v.is_empty(), "test regions are exempt: {v:?}");
    }

    fn host_file(src: &str) -> SourceFile {
        let masked = mask_source(src);
        let test_regions = find_test_regions(&masked);
        SourceFile {
            rel: "crates/dema-cluster/src/host.rs".to_string(),
            text: src.to_string(),
            masked,
            test_regions,
            test_by_path: false,
            used_allows: RefCell::new(BTreeSet::new()),
        }
    }

    #[test]
    fn r14_flags_blocking_receives_in_reactor_files() {
        let mut v = Vec::new();
        check_r14(
            &host_file("fn f(rx: &R) { rx.recv(); rx.recv_timeout(d); rx.try_recv(); }"),
            &mut v,
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "R14"));

        let mut v = Vec::new();
        check_r14(
            &host_file(
                "fn f(rx: &R) {\n    // lint: allow(R14): result drain after reactor exit\n    rx.recv();\n}",
            ),
            &mut v,
        );
        assert!(v.is_empty(), "allow-tag must suppress: {v:?}");

        let mut v = Vec::new();
        check_r14(
            &host_file("#[cfg(test)]\nmod t {\n    fn g(rx: &R) { rx.recv_timeout(d); }\n}"),
            &mut v,
        );
        assert!(v.is_empty(), "test regions are exempt: {v:?}");

        // Cluster files outside the reactor runtime are R5's turf, not R14's.
        let mut v = Vec::new();
        check_r14(
            &cluster_file("fn f(rx: &R) { rx.recv_timeout(d); }"),
            &mut v,
        );
        assert!(v.is_empty(), "out-of-scope file: {v:?}");
    }

    #[test]
    fn allow_tag_parsing_requires_rule_and_reason() {
        let tags = allow_tags(
            "// lint: allow(R5): shutdown drain\n\
             // lint: allow(R12)\n\
             // lint: allow(R3): ok\n\
             // lint: allow(Rx): not a rule\n",
        );
        assert_eq!(
            tags,
            vec![(0, "R5".to_string())],
            "only the tag with a rule number and a ≥3-char reason is well-formed"
        );
    }

    #[test]
    fn r8_flags_used_vs_stale_allow_tags() {
        // Used tag: R5 consumes it, R8 stays quiet.
        let file = cluster_file(
            "fn f(rx: &R) {\n    // lint: allow(R5): shutdown drain, peer joined\n    rx.recv();\n}",
        );
        let mut v = Vec::new();
        check_r5(&file, &mut v);
        check_r8(&file, false, false, &mut v);
        assert!(v.is_empty(), "consumed tag must not be stale: {v:?}");

        // Stale tag: nothing on the next line needs suppressing.
        let file = cluster_file(
            "fn f(rx: &R) {\n    // lint: allow(R5): shutdown drain, peer joined\n    rx.recv_timeout(d).ok();\n}",
        );
        let mut v = Vec::new();
        check_r5(&file, &mut v);
        check_r8(&file, false, false, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("R8", 2));

        // Out-of-scope rule: R2 never runs on local.rs, so its tag is
        // advisory, not stale.
        let file = cluster_file("// lint: allow(R2): narration in docs only\nfn f() {}\n");
        let mut v = Vec::new();
        check_r8(&file, false, false, &mut v);
        assert!(v.is_empty(), "out-of-scope tags are exempt: {v:?}");
    }

    #[test]
    fn r9_flags_qualified_spawn_calls_only() {
        let mut v = Vec::new();
        check_r9(
            &cluster_file(
                "fn f() { std::thread::spawn(|| {}); pool.spawn(j); my_thread::spawn(|| {}); }",
            ),
            &mut v,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].token.as_str()), ("R9", "thread::spawn"));

        let mut v = Vec::new();
        check_r9(
            &cluster_file(
                "fn f() {\n    // lint: allow(R9): long-lived relay topology thread\n    std::thread::spawn(run);\n}",
            ),
            &mut v,
        );
        assert!(v.is_empty(), "allow-tag must suppress: {v:?}");

        let mut v = Vec::new();
        check_r9(
            &cluster_file("#[cfg(test)]\nmod t {\n    fn g() { std::thread::spawn(|| {}); }\n}"),
            &mut v,
        );
        assert!(v.is_empty(), "test regions are exempt: {v:?}");
    }

    #[test]
    fn word_boundaries() {
        assert!(contains_word("cfg(test)", "test"));
        assert!(!contains_word("cfg(testing)", "test"));
        assert!(!contains_word("attest", "test"));
        assert_eq!(word_occurrences("x as u64 vs alias", "as"), vec![2]);
    }

    #[test]
    fn rwlock_declarations_resolve_field_let_and_static_names() {
        let mut names = BTreeSet::new();
        collect_decl_name("    pub table: RwLock<Vec<u8>>,", "RwLock", &mut names);
        collect_decl_name("    shared: Arc<RwLock<State>>,", "RwLock", &mut names);
        collect_decl_name("    let mut cache = RwLock::new(0);", "RwLock", &mut names);
        collect_decl_name("static REGISTRY: RwLock<Map> = ...;", "RwLock", &mut names);
        collect_decl_name("fn io(r: &mut impl Read) {}", "RwLock", &mut names);
        let expect: BTreeSet<String> = ["table", "shared", "cache", "REGISTRY"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn guard_scopes_distinguish_let_bindings_from_temporaries() {
        // A let-bound guard lives to the end of its enclosing block…
        let src = "fn f() {\n    {\n        let g = self.a.lock();\n        g.push(1);\n    }\n    self.h.join();\n}";
        let masked = mask_source(src);
        let at = masked.find(".lock()").unwrap();
        let end = guard_scope_end(&masked, at);
        assert!(masked[..end].contains("g.push(1)"));
        assert!(
            !masked[..end].contains(".join()"),
            "inner block must bound the guard"
        );

        // …while a temporary dies with its statement.
        let src = "fn f() {\n    self.a.lock().push(1);\n    self.h.join();\n}";
        let masked = mask_source(src);
        let at = masked.find(".lock()").unwrap();
        let end = guard_scope_end(&masked, at);
        assert!(!masked[..end].contains(".join()"));
    }

    /// Helper: run the per-file concurrency half over one cluster file.
    fn conc(src: &str) -> (Vec<LockEdge>, Vec<Violation>) {
        let file = cluster_file(src);
        let mut edges = Vec::new();
        let mut v = Vec::new();
        check_conc_file(&file, &BTreeSet::new(), &mut edges, &mut v);
        (edges, v)
    }

    #[test]
    fn r10_nested_guards_become_edges_and_cycles_fire() {
        let (edges, v) =
            conc("fn f(&self) {\n    let s = self.store.lock();\n    let t = self.sent.lock();\n}");
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(edges.len(), 1);
        assert_eq!(
            (edges[0].from.as_str(), edges[0].to.as_str()),
            ("store", "sent")
        );

        // Consistent ordering across files: no cycle, no finding.
        let mut v = Vec::new();
        check_r10(&edges, &mut v);
        assert!(v.is_empty(), "one direction is not a cycle: {v:?}");

        // The opposite order elsewhere closes the cycle.
        let (mut more, _) =
            conc("fn g(&self) {\n    let t = self.sent.lock();\n    let s = self.store.lock();\n}");
        let mut all = edges;
        all.append(&mut more);
        let mut v = Vec::new();
        check_r10(&all, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R10");
        assert!(v[0].token.starts_with("lock-cycle:"), "{}", v[0].token);
        assert!(v[0].message.contains("opposite order"), "{}", v[0].message);
    }

    #[test]
    fn r10_allow_tag_drops_the_edge() {
        let (edges, _) = conc(
            "fn f(&self) {\n    let s = self.store.lock();\n    // lint: allow(R10): sent is only ever taken under store\n    let t = self.sent.lock();\n}",
        );
        assert!(edges.is_empty(), "tagged inner acquisition must not edge");
    }

    #[test]
    fn r11_blocking_call_under_guard_fires() {
        let (_, v) = conc(
            "fn f(&self) {\n    let s = self.store.lock();\n    let _ = self.rx.recv_timeout(d);\n}",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("R11", 3));
        assert!(v[0].message.contains("`store` guard"), "{}", v[0].message);

        // Block-scoping the guard is the fix.
        let (_, v) = conc(
            "fn f(&self) {\n    {\n        let s = self.store.lock();\n    }\n    let _ = self.rx.recv_timeout(d);\n}",
        );
        assert!(v.is_empty(), "dropped guard must not flag: {v:?}");

        // A temporary guard does not span the next statement.
        let (_, v) = conc("fn f(&self) {\n    self.store.lock().clear();\n    self.h.join();\n}");
        assert!(v.is_empty(), "temporary dies with its statement: {v:?}");

        // A whole-window sort under a guard stalls every other holder too.
        let (_, v) = conc(
            "fn f(&self) {\n    let s = self.store.lock();\n    let runs = sort_events(evs);\n}",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].token, "sort_events(..)");
    }

    #[test]
    fn r11_condvar_wait_is_sanctioned() {
        let (_, v) = conc(
            "fn f(&self) {\n    let mut s = self.state.lock();\n    while s.empty() { s = self.ready.wait(s); }\n}",
        );
        assert!(v.is_empty(), "Condvar::wait releases the mutex: {v:?}");
    }

    #[test]
    fn r12_flags_unbounded_channels_and_honours_tags() {
        let file = cluster_file("fn f() { let (tx, rx) = unbounded(); }");
        let mut v = Vec::new();
        check_r12(&file, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].token, "unbounded(..)");

        let file = cluster_file("fn f() { let (tx, rx) = channel::unbounded::<Msg>(); }");
        let mut v = Vec::new();
        check_r12(&file, &mut v);
        assert_eq!(v.len(), 1, "turbofish form must match: {v:?}");

        let file = cluster_file("fn f() { let (tx, rx) = std::sync::mpsc::channel(); }");
        let mut v = Vec::new();
        check_r12(&file, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].token, "mpsc::channel(..)");

        let file = cluster_file(
            "fn f() {\n    // lint: allow(R12): depth bounded by the protocol window\n    let (tx, rx) = unbounded();\n    let b = mpsc::sync_channel(4);\n}",
        );
        let mut v = Vec::new();
        check_r12(&file, &mut v);
        assert!(v.is_empty(), "tagged + bounded must pass: {v:?}");
    }

    #[test]
    fn r13_flags_raw_locks_but_not_the_sync_module_or_other_imports() {
        let file = cluster_file(
            "use std::sync::{Arc, Mutex};\nuse parking_lot::RwLock;\nfn f(m: &std::sync::Condvar) {}\n",
        );
        let mut v = Vec::new();
        check_r13(&file, &mut v);
        let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
        assert_eq!(
            tokens,
            vec!["parking_lot", "std::sync::Condvar", "std::sync::Mutex"],
            "{v:?}"
        );

        let file = cluster_file(
            "use std::sync::{Arc, OnceLock};\nuse std::sync::atomic::AtomicUsize;\nuse dema_core::sync::{rank, Mutex};\n",
        );
        let mut v = Vec::new();
        check_r13(&file, &mut v);
        assert!(v.is_empty(), "wrappers and non-lock imports pass: {v:?}");

        // The wrapper module itself is exempt.
        let masked = mask_source("use std::sync::{Mutex, Condvar};");
        let test_regions = find_test_regions(&masked);
        let sync_file = SourceFile {
            rel: "crates/dema-core/src/sync.rs".to_string(),
            text: String::new(),
            masked,
            test_regions,
            test_by_path: false,
            used_allows: RefCell::new(BTreeSet::new()),
        };
        let mut v = Vec::new();
        check_r13(&sync_file, &mut v);
        assert!(v.is_empty(), "sync.rs is the sanctioned wrapper: {v:?}");
    }

    #[test]
    fn conc_allow_tags_are_inert_without_the_pass() {
        // With the concurrency pass off, an R12 tag is out of scope for
        // R8 (not stale); with it on and unconsumed, it is stale.
        let file =
            cluster_file("// lint: allow(R12): depth bounded by the protocol window\nfn f() {}\n");
        let mut v = Vec::new();
        check_r8(&file, false, false, &mut v);
        assert!(
            v.is_empty(),
            "tag must be inert without --concurrency: {v:?}"
        );
        let mut v = Vec::new();
        check_r8(&file, true, false, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "R8");
    }

    #[test]
    fn rule_catalogue_covers_r1_to_r17() {
        assert_eq!(RULES.len(), 17);
        for (idx, info) in RULES.iter().enumerate() {
            assert_eq!(info.id, format!("R{}", idx + 1));
        }
        assert!(rule_info("r11").is_some(), "lookup is case-insensitive");
        assert!(rule_info("R99").is_none());
    }

    /// Helper: a file standing in for the merge hot path.
    fn merge_file(src: &str) -> SourceFile {
        let masked = mask_source(src);
        let test_regions = find_test_regions(&masked);
        SourceFile {
            rel: "crates/dema-core/src/merge.rs".to_string(),
            text: src.to_string(),
            masked,
            test_regions,
            test_by_path: false,
            used_allows: RefCell::new(BTreeSet::new()),
        }
    }

    #[test]
    fn plain_type_declarations_resolve_fields_params_and_ctor_bindings() {
        let mut names = BTreeSet::new();
        collect_plain_decl_name("    pub events: SharedRun,", "SharedRun", &mut names);
        collect_plain_decl_name("fn serve(run: &SharedRun) {}", "SharedRun", &mut names);
        collect_plain_decl_name("fn fix(view: &mut SharedRun) {}", "SharedRun", &mut names);
        collect_plain_decl_name(
            "    let shared = SharedRun::from_vec(v);",
            "SharedRun",
            &mut names,
        );
        // A Vec of SharedRuns is not itself a SharedRun; paths and return
        // types declare nothing.
        collect_plain_decl_name(
            "    let runs: Vec<crate::shared::SharedRun> = x;",
            "SharedRun",
            &mut names,
        );
        collect_plain_decl_name("fn cut() -> SharedRun {", "SharedRun", &mut names);
        let expect: BTreeSet<String> = ["events", "run", "view", "shared"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn hot_path_region_is_the_next_brace_block() {
        let src = "fn a() { vec![0] }\n// hot-path: merge-select\nfn b(x: u8) {\n    inner();\n}\nfn c() {}\n";
        let f = merge_file(src);
        let (start, end) = hot_path_region(&f, "merge-select").unwrap();
        let region = &f.masked[start..end];
        assert!(region.contains("inner()"), "{region}");
        assert!(!region.contains("fn c"), "{region}");
        // An extended marker name does not satisfy a shorter one.
        let f = merge_file("// hot-path: merge-select-v2\nfn b() {}\n");
        assert!(hot_path_region(&f, "merge-select").is_none());
    }

    #[test]
    fn r15_flags_alloc_needles_inside_the_region_only() {
        let src = "fn cold() { let v = vec![0u8; 4]; }\n\
                   // hot-path: merge-select\n\
                   fn hot(s: &[u8]) {\n\
                       let a = Vec::new();\n\
                       let b = vec![0u8; 4];\n\
                       let c = s.to_vec();\n\
                       let d = Box::new(1);\n\
                       let e = String::from(name);\n\
                       let f = Vec::with_capacity(n.min(1024));\n\
                       let g = Vec::with_capacity(n);\n\
                   }\n";
        let f = merge_file(src);
        let mut v = Vec::new();
        check_r15(&[f], &BTreeSet::new(), &mut v);
        let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
        assert_eq!(
            tokens,
            vec![
                "Vec::new",
                "vec!",
                "to_vec",
                "Box::new",
                "String::from",
                "with_capacity(..min..)"
            ],
            "{v:?}"
        );
        assert!(v.iter().all(|x| x.rule == "R15"));
        assert!(
            !v.iter().any(|x| x.line == 1),
            "code outside the region is exempt: {v:?}"
        );
    }

    #[test]
    fn r15_exempts_shared_run_clones_and_honours_allow_tags() {
        let src = "// hot-path: merge-select\n\
                   fn hot(&self) {\n\
                       let a = self.events.clone();\n\
                       let b = self.sent.clone();\n\
                       // lint: allow(R15): cold rebuild after epoch switch\n\
                       let c = Vec::new();\n\
                   }\n";
        let f = merge_file(src);
        let shared: BTreeSet<String> = ["events".to_string()].into_iter().collect();
        let mut v = Vec::new();
        check_r15(&[f], &shared, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].token, "clone");
        assert_eq!(v[0].line, 4, "only the non-SharedRun clone fires");
    }

    #[test]
    fn r15_flags_a_deleted_mandated_marker() {
        let f = merge_file("pub fn merge_runs() {}\n");
        let mut v = Vec::new();
        check_r15(&[f], &BTreeSet::new(), &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].line), ("R15", 0));
        assert_eq!(v[0].token, "missing-marker:merge-select");
    }

    #[test]
    fn r16_flags_pool_bypasses_in_frame_files_only() {
        let masked_src = "fn read() {\n    let p = vec![0u8; len];\n    let b = msg.to_bytes();\n    let c = Vec::with_capacity(n.min(65_536));\n}\n";
        let masked = mask_source(masked_src);
        let test_regions = find_test_regions(&masked);
        let f = SourceFile {
            rel: "crates/dema-wire/src/frame.rs".to_string(),
            text: masked_src.to_string(),
            masked,
            test_regions,
            test_by_path: false,
            used_allows: RefCell::new(BTreeSet::new()),
        };
        let mut v = Vec::new();
        check_r16(&f, &mut v);
        let tokens: Vec<&str> = v.iter().map(|x| x.token.as_str()).collect();
        assert_eq!(
            tokens,
            vec!["vec!", "to_bytes", "with_capacity(..min..)"],
            "{v:?}"
        );

        // The same source in a non-frame file is out of R16's scope.
        let mut v = Vec::new();
        check_r16(&cluster_file(masked_src), &mut v);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r17_flags_shared_run_to_vec_on_send_paths() {
        let src = "fn send(&self) {\n    let copy = self.events.to_vec();\n    let other = self.buf.to_vec();\n}\n";
        let f = cluster_file(src);
        let shared: BTreeSet<String> = ["events".to_string()].into_iter().collect();
        let mut v = Vec::new();
        check_r17(&[f], &shared, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].token.as_str()), ("R17", "events.to_vec"));

        // Allow-tagged cold paths pass.
        let f = cluster_file(
            "fn send(&self) {\n    // lint: allow(R17): one-shot replay after recovery\n    let copy = self.events.to_vec();\n}\n",
        );
        let mut v = Vec::new();
        check_r17(&[f], &shared, &mut v);
        assert!(v.is_empty(), "allow-tag must suppress: {v:?}");
    }

    #[test]
    fn alloc_allow_tags_are_inert_without_the_pass() {
        let file = merge_file(
            "// hot-path: merge-select\nfn hot() {\n    // lint: allow(R15): cold rebuild path\n    let v = 1;\n}\n",
        );
        let mut v = Vec::new();
        check_r8(&file, false, false, &mut v);
        assert!(v.is_empty(), "tag must be inert without --alloc: {v:?}");
        let mut v = Vec::new();
        check_r8(&file, false, true, &mut v);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].rule, v[0].token.as_str()), ("R8", "allow(R15)"));
    }
}
