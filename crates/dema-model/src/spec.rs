//! The declarative protocol specification: one state machine per role.
//!
//! This module is **pure data** — no dependencies, `const` everything — so
//! `dema-lint` can consume it without pulling in the cluster runtime, and
//! the explorer can interpret the same tables dynamically. Message names
//! are `dema_wire::Message` variant names; the spec's own test suite
//! cross-checks every name against `dema_wire::TAGS`, so a renamed or
//! removed wire variant breaks the spec at test time.
//!
//! Three consumers read these tables:
//!
//! * **lint R6** — for every role, each variant in `receives` must be
//!   matched (lexically, in masked non-test code) by the role's source
//!   file, and the file must mention no variant outside
//!   `receives ∪ sends` of the roles it hosts. Deleting a match arm or
//!   handling a forbidden tag both fail.
//! * **lint R7** — every [`Transition`] must be referenced by a test: some
//!   file's test code mentions both the trigger and the reply variant.
//! * **`crate::explore`** — delivery legality (an incoming message whose
//!   variant is not in the receiving role's `receives` is a spec
//!   violation) and reply obligations, checked on every explored path.
//!
//! Triggers starting with `'@'` are *pseudo-events* (a window closing, a
//! deadline expiring, end of stream) rather than wire messages; they have
//! no receive legality and R7 only requires their reply to be tested.

/// Marks a transition trigger as a pseudo-event instead of a wire message.
pub const PSEUDO_PREFIX: char = '@';

/// When a reply obligation applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// The reply must always be sent.
    Always,
    /// The reply is owed iff the node's slice store holds the window
    /// (Dema candidate serving).
    WindowStored,
    /// The reply is owed iff the node's sent-cache holds the window's
    /// uplink message (`ResendWindow` replay); a cache miss makes silence
    /// legal — the root's retry budget, and ultimately a death verdict,
    /// covers the window.
    WindowCached,
}

/// A synchronous reply obligation: handling the trigger must enqueue one
/// of `replies` whenever `when` holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obligation {
    /// Acceptable reply variants (any one discharges the obligation).
    pub replies: &'static [&'static str],
    /// Precondition under which the reply is owed.
    pub when: Condition,
}

/// One legal state-machine edge of a role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// State the role must be in.
    pub from: &'static str,
    /// Incoming `Message` variant name, or an `'@'`-prefixed pseudo-event.
    pub on: &'static str,
    /// State after the transition.
    pub to: &'static str,
    /// The principal variant this transition may emit (`None` for pure
    /// state updates). Forms the R7 "tag pair" together with `on`.
    pub reply: Option<&'static str>,
    /// Synchronous reply obligation, if any.
    pub obligation: Option<Obligation>,
}

/// The state machine of one protocol role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleSpec {
    /// Role name; engines declare the roles they implement in
    /// `engines::REGISTRY` by these names.
    pub name: &'static str,
    /// Repo-relative source-file suffix hosting the role's match arms
    /// (what lint R6 scans).
    pub file: &'static str,
    /// Declared states; every transition endpoint must be one of these.
    pub states: &'static [&'static str],
    /// Wire variants this role may legally receive. Exactly the set of
    /// non-pseudo transition triggers.
    pub receives: &'static [&'static str],
    /// Wire variants this role may legally send.
    pub sends: &'static [&'static str],
    /// The legal edges.
    pub transitions: &'static [Transition],
}

/// The whole protocol: every role of the cluster.
#[derive(Debug, Clone, Copy)]
pub struct ProtocolSpec {
    /// All roles. Engine-owned roles are referenced from
    /// `engines::REGISTRY`; `relay`, `supervisor`, `root-shell` and
    /// `local-shell` belong to the shared shells.
    pub roles: &'static [RoleSpec],
}

const fn t(
    from: &'static str,
    on: &'static str,
    to: &'static str,
    reply: Option<&'static str>,
) -> Transition {
    Transition {
        from,
        on,
        to,
        reply,
        obligation: None,
    }
}

/// The Dema cluster protocol.
pub static SPEC: ProtocolSpec = ProtocolSpec {
    roles: &[
        // ── Dema: the only engine with a calculation step ───────────────
        RoleSpec {
            name: "dema-root",
            file: "dema-cluster/src/engines/dema.rs",
            states: &["ingest", "fetch"],
            receives: &["SynopsisBatch", "CandidateReply"],
            sends: &[
                "CandidateRequest",
                "GammaUpdate",
                "ResendWindow",
                "CandidateRetry",
            ],
            transitions: &[
                // Stage 1: synopses accumulate until every live local
                // reported, then the window cut is identified and the
                // candidate requests go out.
                t("ingest", "SynopsisBatch", "ingest", None),
                t("ingest", "SynopsisBatch", "fetch", Some("CandidateRequest")),
                // Stage 2: replies accumulate; the last one resolves the
                // window and (adaptive mode) pushes a new γ.
                t("fetch", "CandidateReply", "fetch", None),
                t("fetch", "CandidateReply", "ingest", Some("GammaUpdate")),
                // Supervisor expiries NACK the stage the window is stuck in.
                t("ingest", "@timeout", "ingest", Some("ResendWindow")),
                t("fetch", "@timeout", "fetch", Some("CandidateRetry")),
            ],
        },
        RoleSpec {
            name: "dema-local",
            file: "dema-cluster/src/engines/dema.rs",
            states: &["streaming"],
            receives: &[],
            sends: &["SynopsisBatch"],
            transitions: &[t(
                "streaming",
                "@window",
                "streaming",
                Some("SynopsisBatch"),
            )],
        },
        RoleSpec {
            name: "dema-responder",
            file: "dema-cluster/src/engines/dema.rs",
            states: &["serving", "drained"],
            receives: &[
                "CandidateRequest",
                "CandidateRetry",
                "ResendWindow",
                "GammaUpdate",
                "JoinAccept",
                "EpochSwitch",
                "DrainComplete",
            ],
            sends: &["CandidateReply", "SynopsisBatch", "StreamEnd"],
            transitions: &[
                Transition {
                    from: "serving",
                    on: "CandidateRequest",
                    to: "serving",
                    reply: Some("CandidateReply"),
                    obligation: Some(Obligation {
                        replies: &["CandidateReply"],
                        when: Condition::WindowStored,
                    }),
                },
                Transition {
                    from: "serving",
                    on: "CandidateRetry",
                    to: "serving",
                    reply: Some("CandidateReply"),
                    obligation: Some(Obligation {
                        replies: &["CandidateReply"],
                        when: Condition::WindowStored,
                    }),
                },
                // A ResendWindow NACK replays the cached uplink message —
                // a synopsis batch, or the StreamEnd marker for the
                // stream-end pseudo-window. Silence is legal only on a
                // cache miss (then the root's death verdict closes the
                // window instead).
                Transition {
                    from: "serving",
                    on: "ResendWindow",
                    to: "serving",
                    reply: Some("SynopsisBatch"),
                    obligation: Some(Obligation {
                        replies: &["SynopsisBatch", "StreamEnd"],
                        when: Condition::WindowCached,
                    }),
                },
                t("serving", "GammaUpdate", "serving", None),
                // Membership control is informational until the drain
                // release: the responder notes the accepted join and the
                // epoch boundary, and keeps serving.
                t("serving", "JoinAccept", "serving", None),
                t("serving", "EpochSwitch", "serving", None),
                // The root confirmed every window this node owed is
                // resolved: acknowledge with the StreamEnd marker and stop
                // serving. Unlike the replay obligations above this one is
                // unconditional — a drained responder always signs off.
                Transition {
                    from: "serving",
                    on: "DrainComplete",
                    to: "drained",
                    reply: Some("StreamEnd"),
                    obligation: Some(Obligation {
                        replies: &["StreamEnd"],
                        when: Condition::Always,
                    }),
                },
            ],
        },
        // ── Single-stage engines: one uplink variant each ───────────────
        RoleSpec {
            name: "centralized-root",
            file: "dema-cluster/src/engines/centralized.rs",
            states: &["collect"],
            receives: &["EventBatch"],
            sends: &[],
            transitions: &[t("collect", "EventBatch", "collect", None)],
        },
        RoleSpec {
            name: "centralized-local",
            file: "dema-cluster/src/engines/centralized.rs",
            states: &["streaming"],
            receives: &[],
            sends: &["EventBatch"],
            transitions: &[t("streaming", "@window", "streaming", Some("EventBatch"))],
        },
        RoleSpec {
            name: "dec-sort-root",
            file: "dema-cluster/src/engines/dec_sort.rs",
            states: &["collect"],
            receives: &["EventBatch"],
            sends: &[],
            transitions: &[t("collect", "EventBatch", "collect", None)],
        },
        RoleSpec {
            name: "dec-sort-local",
            file: "dema-cluster/src/engines/dec_sort.rs",
            states: &["streaming"],
            receives: &[],
            sends: &["EventBatch"],
            transitions: &[t("streaming", "@window", "streaming", Some("EventBatch"))],
        },
        RoleSpec {
            name: "tdigest-root",
            file: "dema-cluster/src/engines/tdigest_central.rs",
            states: &["collect"],
            receives: &["EventBatch"],
            sends: &[],
            transitions: &[t("collect", "EventBatch", "collect", None)],
        },
        RoleSpec {
            // The centralized engine's raw-shipping local half.
            name: "tdigest-local",
            file: "dema-cluster/src/engines/centralized.rs",
            states: &["streaming"],
            receives: &[],
            sends: &["EventBatch"],
            transitions: &[t("streaming", "@window", "streaming", Some("EventBatch"))],
        },
        RoleSpec {
            name: "tdigest-dist-root",
            file: "dema-cluster/src/engines/tdigest_distributed.rs",
            states: &["collect"],
            receives: &["DigestBatch"],
            sends: &[],
            transitions: &[t("collect", "DigestBatch", "collect", None)],
        },
        RoleSpec {
            name: "tdigest-dist-local",
            file: "dema-cluster/src/engines/tdigest_distributed.rs",
            states: &["streaming"],
            receives: &[],
            sends: &["DigestBatch"],
            transitions: &[t("streaming", "@window", "streaming", Some("DigestBatch"))],
        },
        RoleSpec {
            name: "kll-root",
            file: "dema-cluster/src/engines/kll_distributed.rs",
            states: &["collect"],
            receives: &["SketchBatch"],
            sends: &[],
            transitions: &[t("collect", "SketchBatch", "collect", None)],
        },
        RoleSpec {
            name: "kll-local",
            file: "dema-cluster/src/engines/kll_distributed.rs",
            states: &["streaming"],
            receives: &[],
            sends: &["SketchBatch"],
            transitions: &[t("streaming", "@window", "streaming", Some("SketchBatch"))],
        },
        // ── Shared shells ───────────────────────────────────────────────
        RoleSpec {
            // Tree relays route control envelopes downward; upward bytes
            // are forwarded opaquely and never inspected, so `Routed` is
            // the only variant the router may match.
            name: "relay",
            file: "dema-cluster/src/relay.rs",
            states: &["forwarding"],
            receives: &["Routed"],
            sends: &["Routed"],
            transitions: &[t("forwarding", "Routed", "forwarding", Some("Routed"))],
        },
        RoleSpec {
            // The retry supervisor owns deadlines; an expiry NACKs the
            // stuck stage. It receives nothing itself — engines feed it.
            name: "supervisor",
            file: "dema-cluster/src/engines/retry.rs",
            states: &["armed"],
            receives: &[],
            sends: &["ResendWindow", "CandidateRetry"],
            transitions: &[
                t("armed", "@timeout", "armed", Some("ResendWindow")),
                t("armed", "@timeout", "armed", Some("CandidateRetry")),
            ],
        },
        RoleSpec {
            // The engine-agnostic root shell intercepts stream ends and
            // the membership protocol; every other data-plane message goes
            // to the engine. Joins/leaves are staged on arrival and take
            // effect at the declared window boundary: `@epoch` fires when
            // the last window of the old epoch resolves (broadcasting the
            // switch), `@drained` when every window a leaver owed is
            // resolved (releasing its responder).
            name: "root-shell",
            file: "dema-cluster/src/root.rs",
            states: &["running"],
            receives: &["StreamEnd", "JoinRequest", "LeaveAnnounce"],
            sends: &["JoinAccept", "EpochSwitch", "DrainComplete"],
            transitions: &[
                t("running", "StreamEnd", "running", None),
                Transition {
                    from: "running",
                    on: "JoinRequest",
                    to: "running",
                    reply: Some("JoinAccept"),
                    obligation: Some(Obligation {
                        replies: &["JoinAccept"],
                        when: Condition::Always,
                    }),
                },
                t("running", "LeaveAnnounce", "running", None),
                t("running", "@epoch", "running", Some("EpochSwitch")),
                t("running", "@drained", "running", Some("DrainComplete")),
            ],
        },
        RoleSpec {
            // The local shell closes windows and ends the stream. A
            // mid-stream joiner announces itself before its first window;
            // a leaver announces after its last window and keeps its
            // responder draining until the root's DrainComplete (which the
            // responder answers with the StreamEnd marker).
            name: "local-shell",
            file: "dema-cluster/src/local.rs",
            states: &["joining", "streaming", "draining", "ended"],
            receives: &[],
            sends: &["StreamEnd", "JoinRequest", "LeaveAnnounce"],
            transitions: &[
                t("joining", "@join", "streaming", Some("JoinRequest")),
                t("streaming", "@end", "ended", Some("StreamEnd")),
                t("streaming", "@leave", "draining", Some("LeaveAnnounce")),
            ],
        },
    ],
};

/// Look up a role by name.
pub fn role(name: &str) -> Option<&'static RoleSpec> {
    SPEC.roles.iter().find(|r| r.name == name)
}

/// `true` if `on` names a pseudo-event rather than a wire message.
pub fn is_pseudo(on: &str) -> bool {
    on.starts_with(PSEUDO_PREFIX)
}

/// The distinct source files the spec maps roles onto.
pub fn spec_files() -> Vec<&'static str> {
    let mut files: Vec<&'static str> = SPEC.roles.iter().map(|r| r.file).collect();
    files.sort_unstable();
    files.dedup();
    files
}

/// Union of `receives` over all roles hosted by `file` — the variants the
/// file **must** mention in non-test code (lint R6's required set).
pub fn required_for_file(file: &str) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = SPEC
        .roles
        .iter()
        .filter(|r| r.file == file)
        .flat_map(|r| r.receives.iter().copied())
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Union of `receives ∪ sends` over all roles hosted by `file` — the only
/// variants the file **may** mention in non-test code (lint R6's allowed
/// set).
pub fn allowed_for_file(file: &str) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = SPEC
        .roles
        .iter()
        .filter(|r| r.file == file)
        .flat_map(|r| r.receives.iter().chain(r.sends.iter()).copied())
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = SPEC.roles.iter().map(|r| r.name).collect();
        names.sort_unstable();
        let deduped = {
            let mut d = names.clone();
            d.dedup();
            d
        };
        assert_eq!(names, deduped, "duplicate role name");
        for r in SPEC.roles {
            assert_eq!(role(r.name).map(|x| x.name), Some(r.name));
        }
        assert!(role("no-such-role").is_none());
    }

    #[test]
    fn every_role_file_exists() {
        // Lint R6 skips a spec file it cannot find, so a moved or deleted
        // engine file would silently drop its roles from the check.
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for r in SPEC.roles {
            assert!(
                crates.join(r.file).is_file(),
                "{}: hosting file crates/{} does not exist",
                r.name,
                r.file
            );
        }
    }

    #[test]
    fn transitions_stay_within_declared_states() {
        for r in SPEC.roles {
            for tr in r.transitions {
                assert!(
                    r.states.contains(&tr.from),
                    "{}: transition from undeclared state {}",
                    r.name,
                    tr.from
                );
                assert!(
                    r.states.contains(&tr.to),
                    "{}: transition to undeclared state {}",
                    r.name,
                    tr.to
                );
            }
        }
    }

    #[test]
    fn receives_equal_non_pseudo_triggers() {
        for r in SPEC.roles {
            let mut triggers: Vec<&str> = r
                .transitions
                .iter()
                .map(|t| t.on)
                .filter(|on| !is_pseudo(on))
                .collect();
            triggers.sort_unstable();
            triggers.dedup();
            let mut receives: Vec<&str> = r.receives.to_vec();
            receives.sort_unstable();
            assert_eq!(
                triggers, receives,
                "{}: receives must equal the set of wire triggers",
                r.name
            );
        }
    }

    #[test]
    fn replies_and_obligations_are_declared_sends() {
        for r in SPEC.roles {
            for tr in r.transitions {
                if let Some(reply) = tr.reply {
                    assert!(
                        r.sends.contains(&reply),
                        "{}: reply {} not in sends",
                        r.name,
                        reply
                    );
                }
                if let Some(ob) = tr.obligation {
                    assert!(!ob.replies.is_empty());
                    for reply in ob.replies {
                        assert!(
                            r.sends.contains(reply),
                            "{}: obligation reply {} not in sends",
                            r.name,
                            reply
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn file_unions_cover_roles() {
        // dema.rs hosts three roles; its allowed set is their union.
        let allowed = allowed_for_file("dema-cluster/src/engines/dema.rs");
        for v in [
            "SynopsisBatch",
            "CandidateReply",
            "CandidateRequest",
            "CandidateRetry",
            "ResendWindow",
            "GammaUpdate",
            "StreamEnd",
        ] {
            assert!(allowed.contains(&v), "dema.rs union missing {v}");
        }
        let required = required_for_file("dema-cluster/src/engines/dema.rs");
        for v in [
            "SynopsisBatch",
            "CandidateReply",
            "CandidateRequest",
            "CandidateRetry",
            "ResendWindow",
            "GammaUpdate",
        ] {
            assert!(required.contains(&v), "dema.rs required missing {v}");
        }
        assert!(!required.contains(&"StreamEnd"), "StreamEnd is send-only");
        assert_eq!(
            required_for_file("dema-cluster/src/engines/centralized.rs"),
            vec!["EventBatch"]
        );
        assert!(required_for_file("no/such/file.rs").is_empty());
    }
}
