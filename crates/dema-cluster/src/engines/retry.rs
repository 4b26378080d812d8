//! Retry / liveness supervisor shared by every root engine.
//!
//! The protocol's seed behavior is "a lost message hangs its window". When a
//! run carries a [`Resilience`] config, each root engine owns a
//! `Supervisor`: a per-window deadline table plus a per-node liveness
//! budget. A deadline is armed when the first contribution for a window
//! arrives (or, once the run goes quiescent, for every window that should
//! exist); when it expires the engine NACKs the missing nodes —
//! [`Message::ResendWindow`] for single-stage engines and Dema's stage 1,
//! [`Message::CandidateRetry`] for Dema's stage 2 — under exponential
//! backoff with seeded jitter. A node that misses `liveness_k` consecutive
//! deadlines (or is still missing when a window's retry budget runs out) is
//! declared dead; windows then complete from the survivors' data as
//! [`Degraded`] outcomes.
//!
//! Determinism: the only randomness is the retry jitter, drawn from a
//! [`FaultRng`] seeded by [`Resilience::seed`], so a chaos run's retry
//! schedule is reproducible modulo thread timing.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dema_core::event::WindowId;
use dema_core::numeric::len_to_u32;
use dema_metrics::FaultCounters;
use dema_net::fault::FaultRng;
use dema_net::{MsgSender, NetError};
use dema_wire::Message;

use crate::config::Resilience;
use crate::report::Degraded;
use crate::ClusterError;

/// Pseudo-window key for the stream-end deadline: NACKing a silent node's
/// [`Message::StreamEnd`] reuses the per-window machinery under this key.
/// Real window ids are dense from 0, so the collision is unreachable.
pub(crate) const END_KEY: u64 = u64::MAX;

/// Resilience parameters plus the counter sink, threaded from the runner
/// into the root engine.
#[derive(Clone)]
pub struct ResilienceCtx {
    /// Retry / liveness parameters.
    pub config: Resilience,
    /// Where the retry state machine records its work.
    pub counters: Arc<FaultCounters>,
}

/// What a deadline expiry asks the engine to do.
#[derive(Debug)]
pub(crate) enum ExpiryAction {
    /// NACK these still-live nodes; the deadline was re-armed with backoff.
    Retry {
        /// Live nodes to NACK.
        nodes: Vec<u32>,
        /// Attempt number carried in the retry message (1-based).
        attempt: u32,
        /// Nodes that crossed their liveness budget on this expiry.
        newly_dead: Vec<u32>,
    },
    /// Retry budget exhausted: every still-missing node was declared dead
    /// and the deadline removed. The engine should complete the window from
    /// survivors.
    GiveUp {
        /// Nodes declared dead by the give-up.
        newly_dead: Vec<u32>,
    },
}

struct Deadline {
    due: Instant,
    attempt: u32,
}

/// Per-window deadlines + per-node liveness, owned by a root engine.
pub(crate) struct Supervisor {
    cfg: Resilience,
    pub(crate) counters: Arc<FaultCounters>,
    rng: FaultRng,
    deadlines: BTreeMap<u64, Deadline>,
    misses: HashMap<u32, u32>,
    dead: BTreeSet<u32>,
    /// Nodes that departed cleanly via the membership drain handshake.
    /// Never charged a miss, never declared dead, and counted as covered
    /// for every window — distinct from `dead` in the run report.
    drained: BTreeSet<u32>,
    retries_of: HashMap<u64, u32>,
    done: HashSet<u64>,
}

impl Supervisor {
    pub(crate) fn new(ctx: ResilienceCtx) -> Supervisor {
        Supervisor {
            rng: FaultRng::new(ctx.config.seed),
            cfg: ctx.config,
            counters: ctx.counters,
            deadlines: BTreeMap::new(),
            misses: HashMap::new(),
            dead: BTreeSet::new(),
            drained: BTreeSet::new(),
            retries_of: HashMap::new(),
            done: HashSet::new(),
        }
    }

    /// Ceiling on any single wait the supervisor schedules. Configs with
    /// absurd `request_timeout_ms` (up to `u64::MAX`) must clamp here:
    /// unbounded `Instant + Duration` arithmetic panics on overflow.
    const MAX_WAIT: Duration = Duration::from_secs(3600);

    fn timeout(&self) -> Duration {
        Duration::from_millis(self.cfg.request_timeout_ms.max(1)).min(Self::MAX_WAIT)
    }

    /// `now + wait`, clamped so extreme waits can never overflow `Instant`.
    fn deadline_after(wait: Duration) -> Instant {
        let now = Instant::now();
        let wait = wait.min(Self::MAX_WAIT);
        now.checked_add(wait).unwrap_or(now)
    }

    /// Arm the deadline for `w` if none is armed yet (idempotent; no-op for
    /// finished windows).
    pub(crate) fn arm(&mut self, w: u64) {
        if self.done.contains(&w) {
            return;
        }
        let due = Self::deadline_after(self.timeout());
        self.deadlines
            .entry(w)
            .or_insert(Deadline { due, attempt: 0 });
    }

    /// Drop the deadline for `w` (stage handoff or nothing left to wait on).
    pub(crate) fn disarm(&mut self, w: u64) {
        self.deadlines.remove(&w);
    }

    /// A message from `node` arrived: reset its consecutive-miss budget.
    pub(crate) fn note_alive(&mut self, node: u32) {
        if !self.dead.contains(&node) {
            self.misses.remove(&node);
        }
    }

    pub(crate) fn is_dead(&self, node: u32) -> bool {
        self.dead.contains(&node)
    }

    /// Mark `node` cleanly departed: its miss streak is wiped, it counts as
    /// covered everywhere, and no expiry will ever charge (or kill) it. A
    /// node already declared dead stays dead — drain is a verdict for nodes
    /// the liveness budget never condemned.
    pub(crate) fn mark_drained(&mut self, node: u32) {
        if !self.dead.contains(&node) && self.drained.insert(node) {
            self.misses.remove(&node);
            self.counters.record_node_drained();
        }
    }

    pub(crate) fn is_drained(&self, node: u32) -> bool {
        self.drained.contains(&node)
    }

    pub(crate) fn is_done(&self, w: u64) -> bool {
        self.done.contains(&w)
    }

    /// Mark `w` finished: its deadline is dropped and late contributions are
    /// suppressed as duplicates.
    pub(crate) fn finish(&mut self, w: u64) {
        self.done.insert(w);
        self.deadlines.remove(&w);
        self.retries_of.remove(&w);
    }

    /// Retry messages sent so far for window `w` (for the degraded record).
    pub(crate) fn retries_of(&self, w: u64) -> u32 {
        self.retries_of.get(&w).copied().unwrap_or(0)
    }

    /// `true` when every local either contributed (`reported`), is dead,
    /// or drained away cleanly.
    pub(crate) fn covered(&self, reported: Option<&HashSet<u32>>, n_locals: usize) -> bool {
        self.covered_members(reported, &(0..len_to_u32(n_locals)).collect::<Vec<u32>>())
    }

    /// [`Supervisor::covered`] against an explicit member set (membership
    /// epochs: only the window's epoch members owe a contribution).
    pub(crate) fn covered_members(&self, reported: Option<&HashSet<u32>>, members: &[u32]) -> bool {
        members.iter().all(|n| {
            reported.is_some_and(|r| r.contains(n))
                || self.dead.contains(n)
                || self.drained.contains(n)
        })
    }

    /// Earliest armed deadline, if any — the instant the reactor's timer
    /// should fire to drive this supervisor (DESIGN.md §13). `None` when
    /// no window is waiting on anything.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.deadlines.values().map(|d| d.due).min()
    }

    /// Window keys whose deadline is due at `now`.
    // hot-path: supervisor-tick
    pub(crate) fn expired(&self, now: Instant) -> Vec<u64> {
        self.deadlines
            .iter()
            .filter(|(_, d)| d.due <= now)
            .map(|(&w, _)| w)
            .collect()
    }

    /// Handle one expiry. `missing_live` is the engine's view of which
    /// still-live nodes owe a contribution for `w`; each gets one miss
    /// charged against its liveness budget. Re-arms the deadline with
    /// exponential backoff + seeded jitter while the retry budget lasts,
    /// otherwise declares the stragglers dead and removes the deadline.
    pub(crate) fn on_expiry(&mut self, w: u64, missing_live: &[u32]) -> ExpiryAction {
        self.counters.record_timeout();
        let mut newly_dead = Vec::new();
        let mut survivors = Vec::new();
        for &n in missing_live {
            // A cleanly-departed node owes nothing: no miss, no NACK, and
            // never a death verdict.
            if self.drained.contains(&n) {
                continue;
            }
            let miss = self.misses.entry(n).or_insert(0);
            *miss += 1;
            if *miss >= self.cfg.liveness_k {
                if self.dead.insert(n) {
                    self.counters.record_node_dead();
                    newly_dead.push(n);
                }
            } else {
                survivors.push(n);
            }
        }
        let attempt = self.deadlines.get(&w).map_or(0, |d| d.attempt);
        if !survivors.is_empty() && attempt < self.cfg.max_retries {
            // `attempt` is unbounded in principle (max_retries is caller
            // config, up to u32::MAX), so every term saturates: the shift
            // is capped at 2^10, the multiply saturates, and the final
            // deadline is clamped to MAX_WAIT before touching `Instant`.
            let next = attempt.saturating_add(1);
            let base_ms = self.cfg.request_timeout_ms.max(1);
            let factor = 1u64.checked_shl(next.min(10)).unwrap_or(u64::MAX);
            let backoff = base_ms.saturating_mul(factor);
            let jitter_us = self.rng.next_below(base_ms.saturating_mul(1000) / 2 + 1);
            let wait =
                Duration::from_millis(backoff).saturating_add(Duration::from_micros(jitter_us));
            let due = Self::deadline_after(wait);
            self.deadlines.insert(w, Deadline { due, attempt: next });
            ExpiryAction::Retry {
                nodes: survivors,
                attempt: next,
                newly_dead,
            }
        } else {
            for n in survivors {
                if self.dead.insert(n) {
                    self.counters.record_node_dead();
                    newly_dead.push(n);
                }
            }
            self.deadlines.remove(&w);
            ExpiryAction::GiveUp { newly_dead }
        }
    }

    /// Record that a retry message went out for `w`.
    pub(crate) fn note_retry_sent(&mut self, w: u64) {
        *self.retries_of.entry(w).or_insert(0) += 1;
        self.counters.record_retry();
    }

    /// Build the degraded record for a window completing without every
    /// node's data, or `None` when all nodes reported. Records the
    /// degraded-window counter; the rank-error bound stays `None` (Dema
    /// fills it in where one is derivable).
    pub(crate) fn degrade_record(
        &mut self,
        w: u64,
        reported: &HashSet<u32>,
        n_locals: usize,
    ) -> Option<Degraded> {
        let missing: Vec<u32> = (0..len_to_u32(n_locals))
            .filter(|n| !reported.contains(n))
            .collect();
        if missing.is_empty() {
            return None;
        }
        self.counters.record_degraded_window();
        Some(Degraded {
            missing_nodes: missing,
            rank_error_bound: None,
            retries: self.retries_of(w),
        })
    }
}

/// Send that forgives a torn-down link: a NACK to a node whose control
/// downlink already disconnected must not abort the run — the liveness
/// budget will declare the node dead instead.
pub(crate) fn send_lossy(link: &mut dyn MsgSender, msg: &Message) -> Result<(), ClusterError> {
    match link.send(msg) {
        Ok(()) | Err(NetError::Disconnected) => Ok(()),
        Err(e) => Err(ClusterError::Net(e)),
    }
}

/// Tick body for the one-shot engines (everything except Dema): once the
/// run is quiescent arms a deadline for every outstanding window, manages
/// the stream-end deadline, charges expiries, and NACKs missing
/// contributions with [`Message::ResendWindow`]. Returns nodes newly
/// declared dead; the caller then sweeps for windows completable from
/// survivors.
pub(crate) fn tick_single_stage(
    sup: &mut Supervisor,
    control: &mut [Box<dyn MsgSender>],
    n_locals: usize,
    expected_windows: u64,
    quiescent: bool,
    missing_enders: &[u32],
    has_reported: &dyn Fn(u64, u32) -> bool,
) -> Result<Vec<u32>, ClusterError> {
    if quiescent {
        for w in 0..expected_windows {
            sup.arm(w);
        }
    }
    if missing_enders.is_empty() {
        sup.disarm(END_KEY);
    } else if quiescent {
        sup.arm(END_KEY);
    }
    let mut newly_dead = Vec::new();
    let now = Instant::now();
    for w in sup.expired(now) {
        let missing: Vec<u32> = if w == END_KEY {
            missing_enders
                .iter()
                .copied()
                .filter(|&n| !sup.is_dead(n))
                .collect()
        } else {
            (0..len_to_u32(n_locals))
                .filter(|&n| !has_reported(w, n) && !sup.is_dead(n))
                .collect()
        };
        if missing.is_empty() {
            sup.disarm(w);
            continue;
        }
        match sup.on_expiry(w, &missing) {
            ExpiryAction::Retry {
                nodes,
                attempt,
                newly_dead: nd,
            } => {
                newly_dead.extend(nd);
                for n in nodes {
                    nack(
                        sup,
                        control,
                        n,
                        Message::ResendWindow {
                            window: WindowId(w),
                            attempt,
                        },
                    )?;
                }
            }
            ExpiryAction::GiveUp { newly_dead: nd } => newly_dead.extend(nd),
        }
    }
    Ok(newly_dead)
}

/// Record one suppressed duplicate (same node contributing twice).
pub(crate) fn suppress_duplicate(sup: &Option<Supervisor>) {
    if let Some(sup) = sup {
        sup.counters.record_duplicate();
    }
}

/// Shared [`crate::engines::RootEngine::next_deadline`] body: the earliest
/// armed deadline of an optional supervisor.
pub(crate) fn next_due(sup: &Option<Supervisor>) -> Option<Instant> {
    sup.as_ref().and_then(Supervisor::next_due)
}

/// Send one NACK to `node`'s control link, recording it. Nodes without a
/// control link (never wired) are skipped silently.
pub(crate) fn nack(
    sup: &mut Supervisor,
    control: &mut [Box<dyn MsgSender>],
    node: u32,
    msg: Message,
) -> Result<(), ClusterError> {
    let Some(link) = control.get_mut(dema_core::numeric::u64_to_usize(u64::from(node))) else {
        return Ok(());
    };
    send_lossy(link.as_mut(), &msg)?;
    let w = match &msg {
        Message::ResendWindow { window, .. } | Message::CandidateRetry { window, .. } => window.0,
        _ => return Ok(()),
    };
    sup.note_retry_sent(w);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup(timeout_ms: u64, max_retries: u32, liveness_k: u32) -> Supervisor {
        Supervisor::new(ResilienceCtx {
            config: Resilience {
                request_timeout_ms: timeout_ms,
                max_retries,
                liveness_k,
                seed: 7,
            },
            counters: FaultCounters::new_shared(),
        })
    }

    #[test]
    fn arm_is_idempotent_and_skips_finished_windows() {
        let mut s = sup(10, 2, 3);
        s.arm(0);
        let due = s.deadlines.get(&0).map(|d| d.due);
        s.arm(0);
        assert_eq!(s.deadlines.get(&0).map(|d| d.due), due);
        s.finish(0);
        s.arm(0);
        assert!(s.deadlines.is_empty());
        assert!(s.is_done(0));
    }

    #[test]
    fn backoff_saturates_at_extreme_parameters() {
        // Pathological config: u64::MAX-millisecond timeout, unbounded
        // retry budget, liveness budget that never kills the node. Every
        // step of the backoff arithmetic (shift, multiply, Duration sum,
        // Instant add) must saturate instead of overflowing or panicking.
        let mut s = sup(u64::MAX, u32::MAX, u32::MAX);
        s.arm(0);
        let mut last_attempt = 0;
        for _ in 0..64 {
            match s.on_expiry(0, &[1]) {
                ExpiryAction::Retry { attempt, .. } => {
                    assert_eq!(attempt, last_attempt + 1);
                    last_attempt = attempt;
                }
                other => panic!("budget never exhausts here: {other:?}"),
            }
            let d = s.deadlines.get(&0).expect("deadline re-armed");
            // The re-armed deadline is clamped: never further out than the
            // supervisor's wait ceiling (+ scheduling slack).
            assert!(
                d.due <= Instant::now() + Supervisor::MAX_WAIT,
                "deadline beyond MAX_WAIT at attempt {last_attempt}"
            );
        }
        // The shift cap means attempts ≥ 10 share the same (saturated)
        // backoff; attempts keep counting past the cap without wrapping.
        assert_eq!(last_attempt, 64);
    }

    #[test]
    fn backoff_shift_boundary_is_capped() {
        // At the 10-shift boundary the factor freezes at 1024×: attempts
        // 10, 11, 64 all schedule the same backoff (modulo jitter), and
        // base 1 ms keeps everything far from saturation so the window
        // deadline still moves monotonically forward.
        let mut s = sup(1, u32::MAX, u32::MAX);
        s.arm(0);
        let mut last_due = Instant::now();
        for i in 1..=12 {
            match s.on_expiry(0, &[1]) {
                ExpiryAction::Retry { attempt, .. } => assert_eq!(attempt, i),
                other => panic!("{other:?}"),
            }
            let d = s.deadlines.get(&0).expect("re-armed");
            assert!(d.due >= last_due, "deadline went backwards");
            assert!(d.due <= Instant::now() + Duration::from_millis(2048));
            last_due = d.due;
        }
    }

    #[test]
    fn expiry_retries_with_backoff_then_gives_up() {
        let mut s = sup(10, 2, 100);
        s.arm(0);
        let ExpiryAction::Retry { nodes, attempt, .. } = s.on_expiry(0, &[1]) else {
            panic!("expected a retry");
        };
        assert_eq!((nodes, attempt), (vec![1], 1));
        let d1 = s.deadlines.get(&0).map(|d| d.due).expect("re-armed");
        let ExpiryAction::Retry { attempt, .. } = s.on_expiry(0, &[1]) else {
            panic!("expected a second retry");
        };
        assert_eq!(attempt, 2);
        let d2 = s.deadlines.get(&0).map(|d| d.due).expect("re-armed");
        assert!(d2 > d1, "backoff grows the deadline");
        // Budget (max_retries = 2) exhausted: straggler dies.
        let ExpiryAction::GiveUp { newly_dead } = s.on_expiry(0, &[1]) else {
            panic!("expected give-up");
        };
        assert_eq!(newly_dead, vec![1]);
        assert!(s.is_dead(1));
        assert!(s.deadlines.is_empty());
        assert_eq!(s.counters.snapshot().timeouts, 3);
        assert_eq!(s.counters.snapshot().nodes_declared_dead, 1);
    }

    #[test]
    fn liveness_budget_declares_nodes_dead() {
        let mut s = sup(10, 100, 2);
        s.arm(0);
        assert!(matches!(
            s.on_expiry(0, &[4]),
            ExpiryAction::Retry { newly_dead, .. } if newly_dead.is_empty()
        ));
        // Second consecutive miss crosses liveness_k = 2.
        let ExpiryAction::GiveUp { newly_dead } = s.on_expiry(0, &[4]) else {
            panic!("all missing nodes died, nothing left to retry");
        };
        assert_eq!(newly_dead, vec![4]);
        assert!(s.is_dead(4));
    }

    #[test]
    fn arrivals_reset_the_liveness_budget() {
        let mut s = sup(10, 100, 2);
        s.arm(0);
        let _ = s.on_expiry(0, &[4]);
        s.note_alive(4);
        let _ = s.on_expiry(0, &[4]);
        assert!(!s.is_dead(4), "miss streak was broken by an arrival");
    }

    #[test]
    fn covered_accounts_for_dead_nodes() {
        let mut s = sup(10, 0, 1);
        let mut reported = HashSet::new();
        reported.insert(0u32);
        assert!(!s.covered(Some(&reported), 2));
        let _ = s.on_expiry(0, &[1]);
        assert!(s.is_dead(1));
        assert!(s.covered(Some(&reported), 2));
        assert!(!s.covered(None, 2), "live nodes never count as covered");
    }

    #[test]
    fn drained_nodes_are_never_charged_or_killed() {
        // liveness_k = 1: a single missed deadline kills a live node — but
        // a drained node must never be charged, retried, or declared dead.
        let mut s = sup(10, 2, 1);
        s.mark_drained(4);
        s.arm(0);
        let ExpiryAction::GiveUp { newly_dead } = s.on_expiry(0, &[4]) else {
            panic!("drained node must not be NACKed");
        };
        assert!(newly_dead.is_empty());
        assert!(!s.is_dead(4));
        assert!(s.is_drained(4));
        assert_eq!(s.counters.snapshot().nodes_drained, 1);
        assert_eq!(s.counters.snapshot().nodes_declared_dead, 0);
        // Drained counts as covered alongside reports from the others.
        let reported: HashSet<u32> = (0..4).collect();
        assert!(s.covered(Some(&reported), 5));
        assert!(s.covered_members(Some(&reported), &[0, 1, 2, 3, 4]));
        assert!(!s.covered_members(None, &[0]), "live nodes are not covered");
        // Draining twice records once.
        s.mark_drained(4);
        assert_eq!(s.counters.snapshot().nodes_drained, 1);
    }

    #[test]
    fn dead_nodes_cannot_be_retro_drained() {
        let mut s = sup(10, 2, 1);
        s.arm(0);
        let _ = s.on_expiry(0, &[3]); // liveness_k = 1: node 3 dies
        assert!(s.is_dead(3));
        s.mark_drained(3);
        assert!(!s.is_drained(3), "death verdict outranks a late drain");
        assert_eq!(s.counters.snapshot().nodes_drained, 0);
    }

    #[test]
    fn degrade_record_lists_missing_nodes_and_retries() {
        let mut s = sup(10, 3, 100);
        let mut reported = HashSet::new();
        reported.insert(0u32);
        reported.insert(2u32);
        s.note_retry_sent(7);
        s.note_retry_sent(7);
        let d = s.degrade_record(7, &reported, 3).expect("node 1 missing");
        assert_eq!(d.missing_nodes, vec![1]);
        assert_eq!(d.rank_error_bound, None);
        assert_eq!(d.retries, 2);
        assert_eq!(s.counters.snapshot().degraded_windows, 1);
        reported.insert(1u32);
        assert!(s.degrade_record(8, &reported, 3).is_none());
    }
}
