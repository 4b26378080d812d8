//! Bounded interleaving explorer: stateless model checking over the real
//! engines.
//!
//! The explorer builds a real cluster — [`RootNode`], [`LocalStepper`]s,
//! Dema's responder — wired over step-driven mem links
//! ([`dema_net::step`]), and enumerates message-delivery orders with an
//! explicit depth-first search: each schedule is a sequence of *actions*
//! (close a local window, deliver or drop the head of one link's FIFO,
//! let the retry supervisor act), replayed from the initial state, and
//! checked against the declarative spec ([`crate::spec`]) as it runs.
//!
//! Per-link FIFO order is never violated — like real stream transports,
//! messages on one link can't overtake each other — so the schedule space
//! is exactly the set of interleavings *across* links. The optional
//! reduction (`dedup`) prunes a branch when its post-action state
//! fingerprint (per-receiver delivery histories, pending queue contents,
//! and producer progress) was already reached: deliveries on independent
//! links commute to the same fingerprint, so each Mazurkiewicz trace is
//! explored once — a DPOR-lite keyed on per-link FIFO independence.
//!
//! Checked on every explored path:
//!
//! * **spec legality** — every delivered message's variant is in the
//!   receiving role's `receives` set;
//! * **reply obligations** — a responder step whose trigger carries an
//!   [`crate::spec::Obligation`] (and whose precondition holds) must
//!   enqueue a reply synchronously;
//! * **no deadlock** — a path may only end with the root finished
//!   (fault-free always; faulty paths too when resilience is on, via
//!   death verdicts);
//! * **result stability** — on fault-free paths of exact engines, the
//!   final outcomes must be identical to the canonical schedule's;
//! * the `dema_core::invariant` audits, which run inside the engines and
//!   surface as errors.
//!
//! Faults are schedule choices: a `Drop` action discards the head of a
//! link, consuming one unit of `drop_budget` — the explorer enumerates
//! *which* message dies, where `FaultPlan` seeds only sample it.
//!
//! Membership churn is a *configuration* choice: a non-empty
//! [`MembershipPlan`] compiles to the same [`EpochLedger`] the runner
//! uses, joiners start at their boundary (announcing with `JoinRequest`),
//! leavers end at theirs (announcing with `LeaveAnnounce`), and the DFS
//! then enumerates every interleaving of the join/drain handshake against
//! in-flight windows, retries, and candidate fetches.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dema_cluster::config::{EngineKind, MembershipPlan, Resilience};
use dema_cluster::engines::{descriptor, validate, ResilienceCtx};
use dema_cluster::local::{new_close_times, responder_step, CloseTimes, LocalShared, LocalStepper};
use dema_cluster::membership::EpochLedger;
use dema_cluster::report::WindowOutcome;
use dema_cluster::root::RootNode;
use dema_cluster::ClusterError;
use dema_core::event::{Event, NodeId};
use dema_core::quantile::Quantile;
use dema_metrics::{FaultCounters, NetworkCounters};
use dema_net::reactor::ReactorEvent;
use dema_net::step::{step_link, StepQueue, StepSender};
use dema_wire::Message;

use crate::spec;

/// A deliberate bug injected into the system under test, to prove the
/// checker catches the corresponding spec violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Faithful engines.
    #[default]
    None,
    /// The responder silently ignores `ResendWindow` NACKs — its reply
    /// obligation (replay the cached uplink message) is skipped. The
    /// obligation check must flag every path that delivers a NACK while
    /// the sent-cache holds the window.
    SkipResendReply,
}

/// What to explore and how hard.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Engine under test.
    pub engine: EngineKind,
    /// Leaf nodes.
    pub n_locals: usize,
    /// Windows each local closes.
    pub windows_per_local: u64,
    /// Events per local window (deterministically generated from `seed`).
    pub events_per_window: u64,
    /// The quantile the root computes.
    pub quantile: Quantile,
    /// Input-generation seed.
    pub seed: u64,
    /// Schedule budget: stop after this many explored schedules
    /// (completed + pruned leaves).
    pub max_schedules: usize,
    /// Per-path step bound (safety net; paths terminate naturally).
    pub max_steps: usize,
    /// How many messages a single schedule may drop. Non-zero turns fault
    /// injection into schedule choices.
    pub drop_budget: usize,
    /// Retry/liveness parameters. `None` explores the seed (fail-fast)
    /// protocol; `Some` enables supervisor `Tick` actions and requires
    /// every path — including faulty ones — to terminate finished.
    pub resilience: Option<Resilience>,
    /// Enable the fingerprint reduction. Off, every explored schedule is
    /// a fully executed distinct delivery order; on, states reached
    /// before are pruned (DPOR-lite).
    pub dedup: bool,
    /// Deliberate bug to inject.
    pub mutation: Mutation,
    /// Staged membership changes (epoch-based join/leave/drain). Empty —
    /// the default — explores fixed membership; non-empty plans slice
    /// each local's windows to its epochs and put the join/drain
    /// handshake itself on the schedule. Dema engine only.
    pub membership: MembershipPlan,
}

impl ExploreConfig {
    /// A fault-free smoke configuration over the Dema engine: `n_locals`
    /// locals, `windows` windows of `events` events, fixed γ 4, schedule
    /// budget `budget`.
    pub fn smoke(
        n_locals: usize,
        windows: u64,
        events: u64,
        budget: usize,
    ) -> Result<ExploreConfig, ClusterError> {
        Ok(ExploreConfig {
            engine: EngineKind::Dema {
                gamma: dema_cluster::GammaMode::Fixed(4),
                strategy: dema_core::selector::SelectionStrategy::WindowCut,
            },
            n_locals,
            windows_per_local: windows,
            events_per_window: events,
            quantile: Quantile::new(0.5)?,
            seed: 0xD37A_FA17,
            max_schedules: budget,
            max_steps: 10_000,
            drop_budget: 0,
            resilience: None,
            dedup: false,
            mutation: Mutation::None,
            membership: MembershipPlan::default(),
        })
    }
}

/// What an exploration found.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Distinct schedules fully executed and checked end-to-end.
    pub schedules: usize,
    /// Branches cut by the fingerprint reduction (their suffix state was
    /// already explored from an equivalent interleaving).
    pub pruned: usize,
    /// Distinct states the reduction recorded (0 when `dedup` is off).
    pub distinct_states: usize,
    /// Longest explored path, in actions.
    pub deepest: usize,
    /// Paths that ended with the root unfinished on a *faulty*
    /// non-resilient schedule — expected degradation, not a violation.
    pub stuck_faulty: usize,
    /// Spec violations found (legality, obligations, deadlock, result
    /// divergence), capped at [`MAX_VIOLATIONS`] entries.
    pub violations: Vec<String>,
    /// `true` when the whole schedule tree was explored within budget.
    pub exhausted: bool,
}

/// Cap on recorded violation strings (the count keeps climbing past it).
pub const MAX_VIOLATIONS: usize = 64;

impl ExploreReport {
    /// No violations of any kind.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// One scheduler choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Local `i` closes its next window (or sends `StreamEnd`).
    Step(usize),
    /// Deliver the head of local `i`'s uplink to the root.
    DeliverUp(usize),
    /// Deliver the head of the root→`i` control link to the responder.
    DeliverCtl(usize),
    /// Drop the head of local `i`'s uplink (costs one drop budget).
    DropUp(usize),
    /// Drop the head of the root→`i` control link.
    DropCtl(usize),
    /// Let the retry supervisor act (resilient runs; enabled only when
    /// nothing else is — timeouts fire when the system is otherwise
    /// stuck, which is exactly when they matter).
    Tick,
}

/// The role a reactor-event injection targets. The explorer hosts the
/// same state machines the runner does, minus the I/O: a schedule action
/// names the event, `Target` names the role it lands on.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The root's event loop.
    Root,
    /// Local `i`'s producer role.
    Local(usize),
    /// Local `i`'s responder role.
    Responder(usize),
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_mix_u64(h: u64, v: u64) -> u64 {
    fnv_mix(h, &v.to_le_bytes())
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic inputs: `inputs[local][window]` events.
fn gen_inputs(cfg: &ExploreConfig) -> Vec<Vec<Vec<Event>>> {
    let mut rng = cfg.seed;
    (0..cfg.n_locals)
        .map(|node| {
            (0..cfg.windows_per_local)
                .map(|w| {
                    (0..cfg.events_per_window)
                        .map(|j| {
                            let r = splitmix64(&mut rng);
                            #[allow(clippy::cast_possible_wrap)]
                            let value = (r % 10_001) as i64 - 5_000;
                            let id = ((node as u64) << 48) | (w << 24) | j;
                            Event::new(value, w * 1_000 + j, id)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The system under test for one path replay. Borrows the per-replay
/// `LocalShared` cells (the steppers and responder share them, as the two
/// roles of a leaf do on its reactor shard).
struct System<'a> {
    root: RootNode,
    steppers: Vec<LocalStepper<'a>>,
    up_tx: Vec<StepSender>,
    up_q: Vec<StepQueue>,
    ctl_q: Vec<StepQueue>,
    shareds: &'a [Arc<LocalShared>],
    /// Variant names the root may receive (engine root roles ∪ shell).
    root_allowed: HashSet<&'static str>,
    /// Variant names the responder may receive.
    responder_allowed: HashSet<&'static str>,
    /// Obligations by trigger variant (from the responder role's spec).
    obligations: Vec<(&'static str, spec::Obligation)>,
    /// `true` when the root-shell spec obliges a `JoinAccept` reply to
    /// every delivered `JoinRequest`.
    root_shell_join_owed: bool,
    resilient: bool,
    drop_budget: usize,
    drops_used: usize,
    steps: usize,
    produced: Vec<u64>,
    /// Rolling per-receiver delivery-history hashes: index 0 the root,
    /// then one per responder.
    history: Vec<u64>,
    tick_wedged: bool,
    violations: Vec<String>,
}

fn role_receives(name: &str) -> &'static [&'static str] {
    spec::role(name).map_or(&[], |r| r.receives)
}

impl<'a> System<'a> {
    fn new(
        cfg: &ExploreConfig,
        shareds: &'a [Arc<LocalShared>],
        inputs: &[Vec<Vec<Event>>],
    ) -> Result<System<'a>, ClusterError> {
        let desc = descriptor(cfg.engine);
        let has_ctl = desc.control_plane || cfg.resilience.is_some();
        let counters = NetworkCounters::new_shared();

        let mut up_tx = Vec::new();
        let mut up_q = Vec::new();
        let mut ctl_q = Vec::new();
        let mut control: Vec<Box<dyn dema_net::MsgSender>> = Vec::new();
        for _ in 0..cfg.n_locals {
            let (tx, q) = step_link(Arc::clone(&counters));
            up_tx.push(tx);
            up_q.push(q);
            if has_ctl {
                let (ctx, cq) = step_link(Arc::clone(&counters));
                control.push(Box::new(ctx));
                ctl_q.push(cq);
            }
        }

        let close_times: CloseTimes = new_close_times();
        let resilience = cfg.resilience.map(|config| ResilienceCtx {
            config,
            counters: FaultCounters::new_shared(),
        });
        let mut root = RootNode::with_extra_quantiles(
            cfg.quantile,
            Vec::new(),
            cfg.engine,
            cfg.n_locals,
            cfg.windows_per_local,
            control,
            close_times,
            resilience,
            dema_cluster::root::PIPELINE_DEPTH,
        );
        let ledger = if cfg.membership.is_empty() {
            None
        } else {
            root = root.with_membership(&cfg.membership)?;
            Some(EpochLedger::from_plan(cfg.n_locals, &cfg.membership)?)
        };

        // Each local owns the slice of global windows its epochs cover:
        // a joiner starts at its boundary (its first step announces the
        // join), a leaver stops short of its boundary (its last step
        // announces the drain in place of `StreamEnd`).
        let steppers = inputs
            .iter()
            .enumerate()
            .map(|(i, windows)| {
                let node = i as u32;
                let first = ledger.as_ref().map_or(0, |l| l.join_window(node));
                let leave = ledger.as_ref().and_then(|l| l.leave_window(node));
                let until = leave.unwrap_or(cfg.windows_per_local);
                let mine = windows[first as usize..until as usize].to_vec();
                let mut stepper = LocalStepper::new(NodeId(node), mine, cfg.engine, &shareds[i])
                    .with_first_window(first);
                if let Some(boundary) = leave {
                    stepper = stepper.with_leave_window(boundary);
                }
                stepper
            })
            .collect();

        let mut root_allowed: HashSet<&'static str> = HashSet::new();
        for role in desc.roles {
            if role.ends_with("-root") {
                root_allowed.extend(role_receives(role).iter().copied());
            }
        }
        root_allowed.extend(role_receives("root-shell").iter().copied());

        let mut responder_allowed: HashSet<&'static str> = HashSet::new();
        let mut obligations = Vec::new();
        if has_ctl {
            // The generic responder is Dema's: it serves the slice store
            // and the sent-cache for every engine on resilient runs.
            if let Some(r) = spec::role("dema-responder") {
                responder_allowed.extend(r.receives.iter().copied());
                for tr in r.transitions {
                    if let Some(ob) = tr.obligation {
                        obligations.push((tr.on, ob));
                    }
                }
            }
        }

        let root_shell_join_owed = spec::role("root-shell").is_some_and(|r| {
            r.transitions
                .iter()
                .any(|tr| tr.on == "JoinRequest" && tr.obligation.is_some())
        });

        Ok(System {
            root,
            steppers,
            up_tx,
            up_q,
            ctl_q,
            shareds,
            root_allowed,
            responder_allowed,
            obligations,
            root_shell_join_owed,
            resilient: cfg.resilience.is_some(),
            drop_budget: cfg.drop_budget,
            drops_used: 0,
            steps: 0,
            produced: vec![0; cfg.n_locals],
            history: vec![FNV_OFFSET; 1 + cfg.n_locals],
            tick_wedged: false,
            violations: Vec::new(),
        })
    }

    /// Enabled actions in exploration order: drops (when budget allows),
    /// deliveries, producer steps, then — only when nothing else can
    /// move — a supervisor tick. The canonical reference schedule runs
    /// with drops disabled, so its index-0 choice is always a delivery
    /// or a step.
    fn enabled(&self) -> Vec<Action> {
        let mut acts = Vec::new();
        // Drops first: DFS then explores fault branches early, so small
        // schedule budgets still cover them. The canonical run disables
        // drops, so its first-choice schedule stays fault-free.
        if self.drops_used < self.drop_budget {
            // StreamEnd is exempt from drops: losing it models process
            // death (the chaos suite's domain, via liveness verdicts on
            // *window* deadlines), not message loss — no retry deadline
            // guards it, so dropping it would wedge every path.
            for (i, q) in self.up_q.iter().enumerate() {
                if q.peek()
                    .is_some_and(|m| !matches!(m, Message::StreamEnd { .. }))
                {
                    acts.push(Action::DropUp(i));
                }
            }
            for (i, q) in self.ctl_q.iter().enumerate() {
                if !q.is_empty() {
                    acts.push(Action::DropCtl(i));
                }
            }
        }
        for (i, q) in self.up_q.iter().enumerate() {
            if !q.is_empty() {
                acts.push(Action::DeliverUp(i));
            }
        }
        for (i, q) in self.ctl_q.iter().enumerate() {
            if !q.is_empty() {
                acts.push(Action::DeliverCtl(i));
            }
        }
        for (i, s) in self.steppers.iter().enumerate() {
            if !s.is_done() {
                acts.push(Action::Step(i));
            }
        }
        if acts.is_empty() && self.resilient && !self.tick_wedged && !self.root.finished() {
            acts.push(Action::Tick);
        }
        acts
    }

    fn violation(&mut self, msg: String) {
        self.violations.push(msg);
    }

    /// Execute one schedule action by translating it into the reactor
    /// event it corresponds to in the hosted runtime, then injecting that
    /// event into the owning role. Drops are scheduler-level faults — the
    /// message dies on the link, no role sees an event.
    fn execute(&mut self, action: Action, mutation: Mutation) -> Result<(), ClusterError> {
        self.steps += 1;
        let (target, ev) = match action {
            // A producer step is what a shard's `Wake` delivers to a
            // hosted local role.
            Action::Step(i) => (Target::Local(i), ReactorEvent::Wake),
            Action::DeliverUp(i) => {
                let Some(msg) = self.up_q[i].pop() else {
                    return Ok(());
                };
                (Target::Root, ReactorEvent::Readable { link: i, msg })
            }
            Action::DeliverCtl(i) => {
                let Some(msg) = self.ctl_q[i].pop() else {
                    return Ok(());
                };
                (
                    Target::Responder(i),
                    ReactorEvent::Readable { link: 0, msg },
                )
            }
            Action::DropUp(i) => {
                self.up_q[i].pop();
                self.drops_used += 1;
                return Ok(());
            }
            Action::DropCtl(i) => {
                self.ctl_q[i].pop();
                self.drops_used += 1;
                return Ok(());
            }
            // The supervisor acting is the root's retry deadline firing.
            Action::Tick => (Target::Root, ReactorEvent::Timer { token: 0 }),
        };
        self.inject(target, ev, mutation)
    }

    /// Deliver one reactor event to one role — the explorer's in-process
    /// analogue of a reactor sweep dispatching to a hosted role.
    fn inject(
        &mut self,
        target: Target,
        ev: ReactorEvent,
        mutation: Mutation,
    ) -> Result<(), ClusterError> {
        match (target, ev) {
            (Target::Local(i), ReactorEvent::Wake) => {
                self.steppers[i].step(&mut self.up_tx[i])?;
                self.produced[i] += 1;
                Ok(())
            }
            (Target::Root, ReactorEvent::Readable { link, msg }) => {
                let name = msg.variant_name();
                if !self.root_allowed.contains(name) {
                    self.violation(format!(
                        "spec violation: root received {name} from local {link}, \
                         not in its receive set"
                    ));
                }
                self.history[0] = fnv_mix(self.history[0], &msg.to_bytes());
                // Root-shell reply obligation: the spec's JoinRequest
                // transition owes the joiner a synchronous JoinAccept (the
                // live-γ handoff) on its control link.
                let join_watch = match &msg {
                    Message::JoinRequest { node, .. } if self.root_shell_join_owed => {
                        let i = node.0 as usize;
                        self.ctl_q.get(i).map(|q| (i, q.len()))
                    }
                    _ => None,
                };
                self.root.handle(msg)?;
                if let Some((i, before)) = join_watch {
                    if self.ctl_q[i].len() == before {
                        self.violation(format!(
                            "obligation violated: root handled JoinRequest from \
                             local {i} while owing JoinAccept, but enqueued nothing"
                        ));
                    }
                }
                Ok(())
            }
            (Target::Responder(i), ReactorEvent::Readable { msg, .. }) => {
                self.deliver_ctl(i, msg, mutation)
            }
            (Target::Root, ReactorEvent::Timer { .. }) => self.tick(),
            (target, ev) => Err(ClusterError::Protocol(format!(
                "explore: unroutable injection {ev:?} for {target:?}"
            ))),
        }
    }

    fn deliver_ctl(
        &mut self,
        i: usize,
        msg: Message,
        mutation: Mutation,
    ) -> Result<(), ClusterError> {
        let name = msg.variant_name();
        if !self.responder_allowed.contains(name) {
            self.violation(format!(
                "spec violation: responder {i} received {name}, not in its receive set"
            ));
        }
        self.history[1 + i] = fnv_mix(self.history[1 + i], &msg.to_bytes());
        // Spec obligation: does handling this trigger owe a synchronous
        // reply? Evaluate the precondition against the node's real state.
        let owed = self
            .obligations
            .iter()
            .find(|(on, _)| *on == name)
            .filter(|(_, ob)| {
                let window = match &msg {
                    Message::CandidateRequest { window, .. }
                    | Message::CandidateRetry { window, .. }
                    | Message::ResendWindow { window, .. } => window.0,
                    _ => return matches!(ob.when, spec::Condition::Always),
                };
                match ob.when {
                    spec::Condition::Always => true,
                    spec::Condition::WindowStored => {
                        self.shareds[i].store.borrow().contains_key(&window)
                    }
                    spec::Condition::WindowCached => {
                        self.shareds[i].sent.borrow().contains_key(&window)
                    }
                }
            })
            .map(|(on, ob)| (*on, ob.replies));
        let before = self.up_q[i].len();
        let skipped =
            mutation == Mutation::SkipResendReply && matches!(msg, Message::ResendWindow { .. });
        if !skipped {
            // ResponderStatus::Stop (a DrainComplete retiring the role)
            // needs no handling here: the root stops addressing departed
            // nodes, so a stopped responder's queue simply runs dry.
            responder_step(NodeId(i as u32), msg, &mut self.up_tx[i], &self.shareds[i])?;
        }
        if let Some((on, replies)) = owed {
            if self.up_q[i].len() == before {
                self.violation(format!(
                    "obligation violated: responder {i} handled {on} while owing \
                     one of {replies:?}, but enqueued nothing"
                ));
            }
        }
        Ok(())
    }

    /// Let the supervisor act: spin `root.tick()` until it produces
    /// progress (a NACK in some control queue, a death verdict finishing
    /// the run) or visibly wedges.
    fn tick(&mut self) -> Result<(), ClusterError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            self.root.tick()?;
            if self.root.finished() || self.ctl_q.iter().any(|q| !q.is_empty()) {
                return Ok(());
            }
            if Instant::now() > deadline {
                self.tick_wedged = true;
                self.violation(
                    "deadlock: resilient supervisor made no progress for 10s".to_string(),
                );
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// State fingerprint: per-receiver delivery histories (order within a
    /// receiver is real state; order across receivers is not), pending
    /// queue contents, producer progress, and the drop count. Two
    /// interleavings that only commute independent per-link deliveries
    /// collapse to the same fingerprint.
    fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for &hist in &self.history {
            h = fnv_mix_u64(h, hist);
        }
        for &p in &self.produced {
            h = fnv_mix_u64(h, p);
        }
        h = fnv_mix_u64(h, self.drops_used as u64);
        for q in self.up_q.iter().chain(self.ctl_q.iter()) {
            let mut qh = FNV_OFFSET;
            let mut idx = 0usize;
            while let Some(m) = q.nth(idx) {
                qh = fnv_mix(qh, &m.to_bytes());
                idx += 1;
            }
            h = fnv_mix_u64(h, qh);
        }
        h
    }

    /// Path-end check; returns outcomes when the root finished.
    fn finish(mut self, faulty: bool) -> (Vec<String>, Option<Vec<WindowOutcome>>, bool) {
        let finished = self.root.finished();
        if !finished {
            if !faulty {
                self.violations.push(
                    "deadlock: schedule exhausted with the root unfinished on a \
                     fault-free path"
                        .to_string(),
                );
            } else if self.resilient && !self.tick_wedged {
                self.violations
                    .push("deadlock: resilient faulty path terminated unfinished".to_string());
            }
        }
        let outcomes = finished.then(|| self.root.into_results().0);
        (self.violations, outcomes, finished)
    }
}

/// The comparable signature of a finished run: per window, the value,
/// extra values, and the global window size. Latency and candidate
/// accounting are schedule-dependent by design and excluded.
fn outcome_sig(outcomes: &[WindowOutcome]) -> Vec<(u64, Option<i64>, Vec<i64>, u64)> {
    outcomes
        .iter()
        .map(|o| (o.window.0, o.value, o.extra_values.clone(), o.total_events))
        .collect()
}

fn make_shareds(cfg: &ExploreConfig) -> Vec<Arc<LocalShared>> {
    let gamma = dema_cluster::engines::initial_gamma(cfg.engine);
    (0..cfg.n_locals)
        .map(|_| {
            if cfg.resilience.is_some() {
                LocalShared::resilient(gamma)
            } else {
                LocalShared::new(gamma)
            }
        })
        .collect()
}

struct Frame {
    actions: Vec<Action>,
    next: usize,
}

/// Why [`drive`] stopped extending a schedule.
enum DriveEnd {
    /// No enabled actions remain — a complete schedule.
    Leaf,
    /// The fingerprint reduction cut the branch (its state was reached
    /// before via an equivalent interleaving).
    Pruned,
    /// The per-path step bound hit before the schedule completed.
    StepBound,
}

/// THE schedule drive loop — shared by the canonical reference run and
/// every DFS replay. Replays the prefix already chosen on `stack` (each
/// frame's `next` action), then extends first-choice-first to a leaf,
/// pushing one fresh frame per extension step so the caller can backtrack
/// to unexplored siblings. With `visited`, each post-injection state
/// fingerprint is recorded and a revisit prunes the branch.
fn drive(
    sys: &mut System,
    mutation: Mutation,
    max_steps: usize,
    stack: &mut Vec<Frame>,
    mut visited: Option<&mut HashSet<u64>>,
) -> Result<DriveEnd, ClusterError> {
    for f in stack.iter() {
        sys.execute(f.actions[f.next], mutation)?;
    }
    loop {
        let acts = sys.enabled();
        if acts.is_empty() {
            return Ok(DriveEnd::Leaf);
        }
        if sys.steps >= max_steps {
            return Ok(DriveEnd::StepBound);
        }
        let first = acts[0];
        stack.push(Frame {
            actions: acts,
            next: 0,
        });
        sys.execute(first, mutation)?;
        if let Some(v) = visited.as_deref_mut() {
            if !v.insert(sys.fingerprint()) {
                return Ok(DriveEnd::Pruned);
            }
        }
    }
}

/// Explore the schedule space of `cfg` and check every path.
///
/// # Errors
/// Configuration errors and engine failures that abort exploration (a
/// spec violation is a *finding*, reported in the result, not an error).
pub fn explore(cfg: &ExploreConfig) -> Result<ExploreReport, ClusterError> {
    validate(cfg.engine)?;
    if cfg.n_locals == 0 || cfg.max_schedules == 0 {
        return Err(ClusterError::Protocol(
            "explore: need at least one local and a non-zero schedule budget".to_string(),
        ));
    }
    let inputs = gen_inputs(cfg);
    let exact = descriptor(cfg.engine).exact;

    // Canonical schedule: always the first enabled action, faults and
    // mutations off. Its outcomes are the reference every fault-free
    // path must reproduce bit-for-bit (exact engines).
    let reference = {
        let mut canon = cfg.clone();
        canon.drop_budget = 0;
        let shareds = make_shareds(&canon);
        let mut sys = System::new(&canon, &shareds, &inputs)?;
        // The canonical run is the degenerate drive: empty prefix, no
        // reduction, always the first choice; its frames are discarded.
        let mut scratch = Vec::new();
        if let DriveEnd::StepBound =
            drive(&mut sys, Mutation::None, cfg.max_steps, &mut scratch, None)?
        {
            return Err(ClusterError::Protocol(
                "explore: canonical schedule exceeded max_steps".to_string(),
            ));
        }
        let (violations, outcomes, finished) = sys.finish(false);
        if !finished || !violations.is_empty() {
            return Err(ClusterError::Protocol(format!(
                "explore: canonical schedule failed: {violations:?}"
            )));
        }
        #[allow(clippy::unwrap_used)] // guarded by `finished` above
        outcome_sig(&outcomes.unwrap())
    };

    let mut report = ExploreReport::default();
    let mut total_violations = 0usize;
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack: Vec<Frame> = Vec::new();

    'search: loop {
        if report.schedules + report.pruned >= cfg.max_schedules {
            break;
        }
        // Stateless replay: rebuild the system, then the shared drive
        // loop re-runs the chosen prefix and extends it to a leaf.
        let shareds = make_shareds(cfg);
        let mut sys = System::new(cfg, &shareds, &inputs)?;
        let end = drive(
            &mut sys,
            cfg.mutation,
            cfg.max_steps,
            &mut stack,
            cfg.dedup.then_some(&mut visited),
        )?;
        if let DriveEnd::StepBound = end {
            sys.violation(format!("path exceeded max_steps ({})", cfg.max_steps));
        }
        let pruned_leaf = matches!(end, DriveEnd::Pruned);
        report.deepest = report.deepest.max(sys.steps);
        let faulty = sys.drops_used > 0;
        let resilient = sys.resilient;
        if pruned_leaf {
            report.pruned += 1;
            // A pruned leaf's own prefix may still have found violations.
            for v in sys.violations.drain(..) {
                total_violations += 1;
                if report.violations.len() < MAX_VIOLATIONS {
                    report.violations.push(v);
                }
            }
        } else {
            report.schedules += 1;
            let (violations, outcomes, finished) = sys.finish(faulty);
            if !finished && faulty && !resilient {
                report.stuck_faulty += 1;
            }
            for v in violations {
                total_violations += 1;
                if report.violations.len() < MAX_VIOLATIONS {
                    report.violations.push(v);
                }
            }
            if let Some(outcomes) = outcomes {
                if !faulty && exact && outcome_sig(&outcomes) != reference {
                    total_violations += 1;
                    if report.violations.len() < MAX_VIOLATIONS {
                        report.violations.push(
                            "result divergence: fault-free schedule produced outcomes \
                             different from the canonical run"
                                .to_string(),
                        );
                    }
                }
            }
        }
        // Backtrack to the next unexplored sibling.
        loop {
            let Some(top) = stack.last_mut() else {
                report.exhausted = true;
                break 'search;
            };
            top.next += 1;
            if top.next < top.actions.len() {
                break;
            }
            stack.pop();
        }
    }
    report.distinct_states = visited.len();
    let _ = total_violations;
    Ok(report)
}
