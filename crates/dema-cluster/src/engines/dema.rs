//! The Dema engine — the paper's contribution (exact).
//!
//! Locals sort each window and cut it into γ-sized slices, shipping only
//! slice synopses (first/last/count). The root runs the window-cut to
//! identify candidate slices, fetches exactly those, and computes the exact
//! quantile from a few merged runs. Fixed or adaptive γ (global or
//! per-node, §3.3).
//!
//! ## Window pipeline (root side)
//!
//! Windows move through a bounded two-stage pipeline keyed by window id.
//! Stage 1 (*ingest & order*) collects a window's synopses and sorts them
//! by value interval the moment the last local reports — this runs even
//! while earlier windows sit in stage 2, so the root's CPU work for `w+1`
//! overlaps the network round trip of `w`. Stage 2 (*identify & resolve*)
//! runs the window-cut, fires candidate requests, and awaits the replies;
//! at most the configured pipeline depth (default [`PIPELINE_DEPTH`])
//! windows hold a stage-2 slot at once, bounding
//! outstanding request fan-out and candidate-run memory no matter how far
//! the locals run ahead. The window-cut itself stays the pure,
//! single-threaded algorithm in `dema-core` — the pipeline only schedules
//! *when* it runs.
//!
//! ## Fault tolerance (resilient runs)
//!
//! With a [`crate::config::Resilience`] config, both stages carry a
//! deadline in the engine's `Supervisor`. A stage-1 expiry NACKs missing
//! synopses with [`Message::ResendWindow`]; a stage-2 expiry re-requests
//! the missing nodes' candidate slices with [`Message::CandidateRetry`].
//! Locals that exhaust the liveness or retry budget are declared dead, and
//! the window resolves from the surviving runs as a
//! [`Degraded`] outcome: the selected rank is clamped into the delivered
//! candidate set, and — when every local's synopses arrived — the answer
//! ships with a rank-error bound equal to the lost candidate slices'
//! synopsis counts (the root knows exactly how many events it never saw).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::gamma::AdaptiveGamma;
use dema_core::merge::select_kth;
use dema_core::multi::{select_multi, MultiSelection};
use dema_core::numeric::{len_to_u32, len_to_u64, u64_to_usize};
use dema_core::quantile::Quantile;
use dema_core::selector::SelectionStrategy;
use dema_core::shared::SharedRun;
use dema_core::slice::{cut_into_slices, Slice, SliceId, SliceSynopsis};
use dema_core::DemaError;
use dema_net::{MsgSender, NetError};
use dema_wire::Message;

use super::retry::{self, ExpiryAction, Supervisor, END_KEY};
use super::{LocalEngine, ResolvedWindow, RootEngine, RootParams};
use crate::config::GammaMode;
use crate::membership::EpochLedger;
use crate::report::Degraded;
use crate::ClusterError;

/// Default max Dema windows allowed in stage 2 (candidate requests
/// outstanding) at once; [`RootParams::pipeline_depth`] overrides it per
/// run. Four slots keep the root's identify/merge work for windows
/// `w+1..w+4` overlapped with the reply round trip of `w` — on fast-paced
/// locals the round trip, not the root CPU, is the bottleneck, and two
/// slots left the root idle between reply bursts. Memory stays bounded:
/// each slot holds only the candidate runs of one window, and the
/// supervisor's per-window deadlines are keyed by window id, so deeper
/// pipelines change no retry semantics.
pub const PIPELINE_DEPTH: usize = 4;

/// Most windows a local node keeps in its slice store awaiting candidate
/// requests. Windows resolve within a round trip; this bound only guards
/// against a stalled root.
pub(crate) const STORE_WINDOW_CAP: usize = 64;

/// State shared between a Dema local's two roles — the window stepper and
/// the responder. Both run on the leaf's one reactor shard, so the cells
/// are plain `Cell`/`RefCell`; `LocalShared` is `!Sync`, and the compiler
/// keeps the two roles on one thread.
#[derive(Debug)]
pub struct LocalShared {
    /// Current slice factor (updated by `GammaUpdate`s from the root).
    pub gamma: Cell<u64>,
    /// Closed windows' slices, awaiting (possible) candidate requests.
    pub store: RefCell<HashMap<u64, Vec<Slice>>>,
    /// Resilient mode: keep served windows in the store (candidate retries
    /// must be idempotent) and cache sent uplink messages for resends.
    pub retain_sent: bool,
    /// Last data-plane uplink message per window, for `ResendWindow`
    /// NACKs; the stream-end message lives under `END_KEY`'s slot.
    /// Populated only when `retain_sent` is set.
    pub sent: RefCell<HashMap<u64, Message>>,
    /// Shard count of the run, passed through to
    /// `dema_core::par::sort_events_with` (which sorts inline whatever it
    /// says).
    pub threads: usize,
}

impl LocalShared {
    /// Fresh shared state starting at `gamma` (seed protocol: served
    /// windows are evicted, nothing is cached for resend). The shard count
    /// defaults from the `DEMA_THREADS` environment.
    pub fn new(gamma: u64) -> Arc<LocalShared> {
        LocalShared::configured(gamma, false, dema_core::par::default_threads())
    }

    /// Shared state for a resilient run: the store retains served windows
    /// and the uplink messages are cached for `ResendWindow` NACKs.
    pub fn resilient(gamma: u64) -> Arc<LocalShared> {
        LocalShared::configured(gamma, true, dema_core::par::default_threads())
    }

    /// Fully explicit constructor: resilience mode and shard count.
    // The `Arc` never crosses a thread; it stays because `benchmark/`
    // names `Arc<LocalShared>`.
    #[allow(clippy::arc_with_non_send_sync)]
    pub fn configured(gamma: u64, resilient: bool, threads: usize) -> Arc<LocalShared> {
        Arc::new(LocalShared {
            gamma: Cell::new(gamma),
            store: RefCell::new(HashMap::new()),
            retain_sent: resilient,
            sent: RefCell::new(HashMap::new()),
            threads: threads.max(1),
        })
    }
}

/// Per-window accumulation state at the root.
#[derive(Default)]
struct WindowState {
    /// Stage 1: locals whose synopses arrived.
    reported: HashSet<u32>,
    /// All synopses of the window, sorted by value interval at stage-1 end.
    synopses: Vec<SliceSynopsis>,
    /// The identification step's decision (index 0 = the primary quantile's
    /// plan, then the extra quantiles in order).
    selection: Option<MultiSelection>,
    /// Synopses of the candidate slices — exactly the slices a reply may
    /// carry — for verification of replies.
    synopsis_of: HashMap<SliceId, SliceSynopsis>,
    /// Candidate runs received so far (shared views, zero-copy off the
    /// in-memory transport).
    runs: Vec<SharedRun>,
    /// Stage 2: nodes whose candidate replies arrived.
    replied: HashSet<u32>,
    /// Stage 2: live candidate owners a reply is expected from.
    expected_replies: HashSet<u32>,
    /// Candidate slice indices per owning node (kept for retries).
    node_requests: HashMap<u32, Vec<u32>>,
    /// Candidate owners already dead at identification time, ascending.
    dead_at_identify: Vec<u32>,
    /// Locals whose synopses never arrived (dead at stage-1 close),
    /// ascending.
    stage1_missing: Vec<u32>,
    /// Per-node local window sizes `l_i` (for per-node γ control), indexed
    /// by node id.
    node_sizes: Vec<u64>,
    /// Per-node candidate-slice counts `m_i`, indexed by node id.
    node_candidates: Vec<u64>,
    /// γ in effect when this window was sliced (node 0's γ under per-node
    /// control).
    gamma: u64,
}

/// The root's γ policy.
enum GammaPolicy {
    /// Fixed γ, never updated.
    Fixed(u64),
    /// One controller for the whole cluster (§3.3 default).
    Global(AdaptiveGamma),
    /// One controller per local node (§3.3 future-work variant).
    PerNode(Vec<AdaptiveGamma>),
}

impl GammaPolicy {
    /// γ to report for window outcomes (node 0's view).
    fn current(&self) -> u64 {
        match self {
            GammaPolicy::Fixed(g) => *g,
            GammaPolicy::Global(ctl) => ctl.current(),
            GammaPolicy::PerNode(ctls) => ctls.first().map_or(2, AdaptiveGamma::current),
        }
    }

    /// Restart the adaptive controllers from their current γ, discarding
    /// the `l_G` observation history. Called at an epoch switch: the old
    /// membership's window sizes no longer describe the cluster, so letting
    /// them smooth into the new epoch would bias γ toward the wrong `l_G`.
    fn reseed(&mut self) {
        match self {
            GammaPolicy::Fixed(_) => {}
            GammaPolicy::Global(ctl) => *ctl = AdaptiveGamma::with_default_bounds(ctl.current()),
            GammaPolicy::PerNode(ctls) => {
                for ctl in ctls {
                    *ctl = AdaptiveGamma::with_default_bounds(ctl.current());
                }
            }
        }
    }
}

/// The Dema root engine.
pub struct DemaRoot {
    quantile: Quantile,
    extra_quantiles: Vec<Quantile>,
    strategy: SelectionStrategy,
    states: BTreeMap<u64, WindowState>,
    gamma: GammaPolicy,
    control: Vec<Box<dyn MsgSender>>,
    /// Max windows admitted into stage 2 at once (configured pipeline
    /// depth, default [`PIPELINE_DEPTH`]).
    depth: usize,
    /// Windows currently in stage 2 (requests sent, replies pending).
    in_flight: usize,
    /// Stage-1-complete windows waiting for a stage-2 slot, in the order
    /// their last synopsis arrived (window order for well-paced locals).
    ready: VecDeque<u64>,
    /// Retry / liveness state for resilient runs.
    sup: Option<Supervisor>,
    /// Which locals contribute to which windows (trivial single-epoch
    /// table unless the shell installs a churn plan; DESIGN.md §14).
    ledger: Arc<EpochLedger>,
    /// Locals that drained away cleanly: skipped by every broadcast (their
    /// responder retired with the drain handshake, so their control link
    /// may be gone).
    departed: HashSet<u32>,
}

impl DemaRoot {
    /// Build the root half from the γ mode, selector, and shell params.
    pub fn new(gamma: GammaMode, strategy: SelectionStrategy, params: RootParams) -> DemaRoot {
        let gamma = match gamma {
            GammaMode::Fixed(g) => GammaPolicy::Fixed(g),
            GammaMode::Adaptive { initial } => {
                GammaPolicy::Global(AdaptiveGamma::with_default_bounds(initial))
            }
            GammaMode::AdaptivePerNode { initial } => GammaPolicy::PerNode(
                (0..params.n_locals)
                    .map(|_| AdaptiveGamma::with_default_bounds(initial))
                    .collect(),
            ),
        };
        DemaRoot {
            quantile: params.quantile,
            extra_quantiles: params.extra_quantiles,
            strategy,
            states: BTreeMap::new(),
            gamma,
            control: params.control,
            depth: params.pipeline_depth.max(1),
            in_flight: 0,
            ready: VecDeque::new(),
            sup: params.resilience.map(Supervisor::new),
            ledger: Arc::new(EpochLedger::trivial(params.n_locals)),
            departed: HashSet::new(),
        }
    }

    /// `true` when every member of `window` either reported or is
    /// dead/drained (the window cannot gain further synopses).
    fn stage1_covered(&self, reported: &HashSet<u32>, window: u64) -> bool {
        let members = self.ledger.members_of(window);
        match &self.sup {
            Some(s) => s.covered_members(Some(reported), members),
            // Only members are ever inserted into `reported`.
            None => reported.len() == members.len(),
        }
    }

    /// Stage 1 complete (every local reported or is dead): order the
    /// synopses and admit the window into stage 2 — or queue it when the
    /// pipeline is full.
    fn close_stage1(
        &mut self,
        window: WindowId,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError> {
        let state = self.states.get_mut(&window.0).ok_or_else(|| {
            ClusterError::Protocol(format!("stage-1 close of unknown window {window}"))
        })?;
        if self.sup.is_some() {
            state.stage1_missing = self
                .ledger
                .members_of(window.0)
                .iter()
                .copied()
                .filter(|n| !state.reported.contains(n))
                .collect();
        }
        if let Some(sup) = self.sup.as_mut() {
            // Queued windows carry no deadline; `identify` arms stage 2.
            sup.disarm(window.0);
        }
        // Order the synopses by value interval now, overlapping the reply
        // round trips of earlier windows. Identification is
        // order-insensitive, so this only moves the sort work off the
        // critical path.
        state
            .synopses
            .sort_unstable_by_key(|s| (s.first, s.last, s.id));
        if self.in_flight < self.depth {
            self.identify(window, resolved)?;
        } else {
            self.ready.push_back(window.0);
        }
        Ok(())
    }

    /// Identification step once all synopses of `window` arrived and a
    /// stage-2 slot is free.
    fn identify(
        &mut self,
        window: WindowId,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError> {
        let retries = self.sup.as_ref().map_or(0, |s| s.retries_of(window.0));
        let state = self.states.get_mut(&window.0).ok_or_else(|| {
            ClusterError::Protocol(format!("identify of unknown window {window}"))
        })?;
        state.gamma = self.gamma.current();
        dema_core::invariant::check_synopsis_order(&state.synopses).map_err(ClusterError::Core)?;
        let total: u64 = state.synopses.iter().map(|s| s.count).sum();
        if total == 0 {
            let gamma = state.gamma;
            let stage1_missing = std::mem::take(&mut state.stage1_missing);
            self.states.remove(&window.0);
            let degraded = if stage1_missing.is_empty() {
                None
            } else {
                if let Some(sup) = self.sup.as_mut() {
                    sup.counters.record_degraded_window();
                }
                Some(Degraded {
                    missing_nodes: stage1_missing,
                    rank_error_bound: None,
                    retries,
                })
            };
            if let Some(sup) = self.sup.as_mut() {
                sup.finish(window.0);
            }
            resolved.push((
                window,
                ResolvedWindow {
                    gamma,
                    degraded,
                    ..ResolvedWindow::default()
                },
            ));
            return Ok(());
        }
        let mut ranks = Vec::with_capacity(1 + self.extra_quantiles.len());
        ranks.push(self.quantile.pos(total)?);
        for q in &self.extra_quantiles {
            ranks.push(q.pos(total)?);
        }
        let selection = select_multi(&state.synopses, &ranks, self.strategy)?;
        for plan in &selection.plans {
            dema_core::invariant::check_selection(
                &state.synopses,
                &selection.candidates,
                plan.rank,
                plan.offset_below,
            )
            .map_err(ClusterError::Core)?;
        }
        // Per-node observations for the γ controllers, and the synopses
        // replies will be checked against. Stage 1 ordered the synopses by
        // the key the selection orders its candidates by, so the candidates
        // are met in order along the way.
        let n_locals = self.control.len();
        let node_slot = |id: &SliceId| u64_to_usize(u64::from(id.node.0));
        state.node_sizes.clear();
        state.node_sizes.resize(n_locals, 0);
        state.node_candidates.clear();
        state.node_candidates.resize(n_locals, 0);
        state.synopsis_of.clear();
        let mut wanted = selection.candidates.iter().peekable();
        for s in &state.synopses {
            if let Some(size) = state.node_sizes.get_mut(node_slot(&s.id)) {
                *size += s.count;
            }
            if wanted.next_if_eq(&&s.id).is_some() {
                state.synopsis_of.insert(s.id, *s);
                if let Some(m_i) = state.node_candidates.get_mut(node_slot(&s.id)) {
                    *m_i += 1;
                }
            }
        }
        if let Some(id) = wanted.next() {
            return Err(ClusterError::Protocol(format!(
                "{window}: candidate {id} is not among the window's synopses"
            )));
        }

        // Group candidate slices by owning node; remember the grouping so a
        // stage-2 expiry can re-request exactly the missing slices.
        let mut per_node: HashMap<u32, Vec<u32>> = HashMap::new();
        for id in &selection.candidates {
            per_node.entry(id.node.0).or_default().push(id.index);
        }
        state.runs.clear();
        state.replied.clear();
        state.selection = Some(selection);
        state.node_requests = per_node;
        let mut expected = HashSet::new();
        let mut dead_at_identify = Vec::new();
        for &node in state.node_requests.keys() {
            if self.sup.as_ref().is_some_and(|s| s.is_dead(node)) {
                dead_at_identify.push(node);
            } else {
                expected.insert(node);
            }
        }
        dead_at_identify.sort_unstable();
        state.expected_replies = expected;
        state.dead_at_identify = dead_at_identify;
        let resilient = self.sup.is_some();
        for (node, slices) in &state.node_requests {
            if state.dead_at_identify.contains(node) {
                continue;
            }
            let link = self
                .control
                .get_mut(u64_to_usize(u64::from(*node)))
                .ok_or_else(|| ClusterError::Protocol(format!("no control link for n{node}")))?;
            let msg = Message::CandidateRequest {
                window,
                slices: slices.clone(),
            };
            if resilient {
                retry::send_lossy(link.as_mut(), &msg)?;
            } else {
                link.send(&msg)?;
            }
        }
        self.in_flight += 1; // stage-2 slot held until the window finalizes
        if let Some(sup) = self.sup.as_mut() {
            sup.arm(window.0);
        }
        // Every candidate owner is already dead: no reply will ever come.
        let no_repliers = self
            .states
            .get(&window.0)
            .is_some_and(|s| s.expected_replies.is_empty());
        if no_repliers {
            self.resolve(window, resolved)?;
        }
        Ok(())
    }

    /// Admit ready windows into stage 2 while slots are free.
    fn advance_pipeline(
        &mut self,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError> {
        while self.in_flight < self.depth {
            let Some(w) = self.ready.pop_front() else {
                break;
            };
            self.identify(WindowId(w), resolved)?;
        }
        Ok(())
    }

    /// Absorb one candidate reply; resolve once every live involved node
    /// replied.
    fn absorb_reply(
        &mut self,
        node: NodeId,
        window: WindowId,
        slices: Vec<(u32, SharedRun)>,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError> {
        if let Some(sup) = self.sup.as_mut() {
            if sup.is_done(window.0) {
                sup.counters.record_duplicate();
                return Ok(());
            }
            sup.note_alive(node.0);
        }
        let state = self
            .states
            .get_mut(&window.0)
            .ok_or_else(|| ClusterError::Protocol(format!("reply for unknown window {window}")))?;
        if state.selection.is_none() {
            return Err(ClusterError::Protocol(format!(
                "{window}: candidate reply before identification"
            )));
        }
        if !state.replied.insert(node.0) {
            retry::suppress_duplicate(&self.sup);
            return Ok(());
        }
        for (index, events) in slices {
            let id = SliceId {
                node,
                window,
                index,
            };
            let syn = state.synopsis_of.get(&id).ok_or_else(|| {
                ClusterError::Protocol(format!("reply for unselected slice {id}"))
            })?;
            // Cheap integrity check: count, endpoints, sortedness.
            let slice = Slice { id, events };
            slice.verify_against(syn).map_err(ClusterError::Core)?;
            state.runs.push(slice.events);
        }
        let all_in = match &self.sup {
            // Nobody dies without a supervisor, so nothing is complete
            // before as many nodes replied as were asked: one scan a window.
            None => {
                state.replied.len() >= state.expected_replies.len()
                    && state
                        .expected_replies
                        .iter()
                        .all(|n| state.replied.contains(n))
            }
            Some(sup) => state
                .expected_replies
                .iter()
                .all(|n| state.replied.contains(n) || sup.is_dead(*n)),
        };
        if all_in {
            self.resolve(window, resolved)?;
        }
        Ok(())
    }

    /// Finalize a stage-2 window from whatever runs arrived. Exact when
    /// every expected contribution is in; degraded (value from survivors,
    /// rank clamped, bound attached when derivable) otherwise.
    fn resolve(
        &mut self,
        window: WindowId,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError> {
        let retries = self.sup.as_ref().map_or(0, |s| s.retries_of(window.0));
        let state = self.states.get_mut(&window.0).ok_or_else(|| {
            ClusterError::Protocol(format!("resolution of unknown window {window}"))
        })?;
        let selection = state.selection.take().ok_or_else(|| {
            ClusterError::Protocol(format!("{window}: resolution before identification"))
        })?;
        let mut missing_repliers: Vec<u32> = state
            .expected_replies
            .iter()
            .copied()
            .filter(|n| !state.replied.contains(n))
            .collect();
        missing_repliers.sort_unstable();
        let run_count: u64 = state.runs.iter().map(|r| len_to_u64(r.len())).sum();
        let exact = missing_repliers.is_empty()
            && state.dead_at_identify.is_empty()
            && state.stage1_missing.is_empty();
        let (primary, extras, degraded) = if exact {
            if run_count != selection.candidate_events {
                return Err(ClusterError::Core(DemaError::InconsistentSynopses(
                    format!(
                        "{window}: {run_count} candidate events delivered, expected {}",
                        selection.candidate_events
                    ),
                )));
            }
            let mut values = selection
                .plans
                .iter()
                .map(|p| {
                    let event = select_kth(&state.runs, p.rank_within_candidates())
                        .map_err(ClusterError::Core)?;
                    dema_core::invariant::check_selected_event(
                        &state.runs,
                        p.rank_within_candidates(),
                        &event,
                    )
                    .map_err(ClusterError::Core)?;
                    Ok(event.value)
                })
                .collect::<Result<Vec<i64>, ClusterError>>()?;
            let primary = values.remove(0);
            (Some(primary), values, None)
        } else {
            // Degraded resolution from the survivors' runs. Lost candidate
            // slices are exactly known from the synopses, so when stage 1
            // was complete the answer's global rank can be off by at most
            // `m_lost` positions — that bound ships with the answer. A
            // missing node's synopses (stage-1 loss) make its window
            // contribution unknowable, so no bound is claimed then.
            let mut lost_owners: HashSet<u32> = missing_repliers.iter().copied().collect();
            lost_owners.extend(state.dead_at_identify.iter().copied());
            let m_lost: u64 = selection
                .candidates
                .iter()
                .filter(|id| lost_owners.contains(&id.node.0))
                .map(|id| state.synopsis_of.get(id).map_or(0, |s| s.count))
                .sum();
            let bound = if state.stage1_missing.is_empty() {
                Some(m_lost)
            } else {
                None
            };
            let mut missing_nodes: Vec<u32> = lost_owners.into_iter().collect();
            missing_nodes.extend(state.stage1_missing.iter().copied());
            missing_nodes.sort_unstable();
            missing_nodes.dedup();
            let (primary, extras) = if run_count == 0 {
                (None, Vec::new())
            } else {
                let mut values = selection
                    .plans
                    .iter()
                    .map(|p| {
                        let rank = p.rank_within_candidates().min(run_count).max(1);
                        Ok(select_kth(&state.runs, rank)
                            .map_err(ClusterError::Core)?
                            .value)
                    })
                    .collect::<Result<Vec<i64>, ClusterError>>()?;
                let primary = values.remove(0);
                (Some(primary), values)
            };
            if let Some(sup) = self.sup.as_mut() {
                sup.counters.record_degraded_window();
            }
            (
                primary,
                extras,
                Some(Degraded {
                    missing_nodes,
                    rank_error_bound: bound,
                    retries,
                }),
            )
        };
        let gamma = state.gamma;
        let total = selection.total_events;
        let m = len_to_u64(selection.candidates.len());
        let synopses = len_to_u64(state.synopses.len());
        let node_sizes = std::mem::take(&mut state.node_sizes);
        let node_candidates = std::mem::take(&mut state.node_candidates);
        self.states.remove(&window.0);
        if let Some(sup) = self.sup.as_mut() {
            sup.finish(window.0);
        }
        let is_exact = degraded.is_none();
        resolved.push((
            window,
            ResolvedWindow {
                value: primary,
                extra_values: extras,
                total_events: total,
                candidate_events: run_count,
                candidate_slices: m,
                synopses,
                gamma,
                degraded,
            },
        ));
        // Adaptive γ: re-optimize from this window's observation. Degraded
        // windows are skipped — their per-node observations are incomplete
        // and would bias the controller.
        let resilient = self.sup.is_some();
        if is_exact {
            match &mut self.gamma {
                GammaPolicy::Global(ctl) => {
                    let before = ctl.current();
                    let next = ctl.observe_checked(total, m).map_err(ClusterError::Core)?;
                    if next != before {
                        for (n, link) in self.control.iter_mut().enumerate() {
                            if self.departed.contains(&len_to_u32(n)) {
                                continue; // drained: its responder retired
                            }
                            let msg = Message::GammaUpdate { gamma: next };
                            if resilient {
                                retry::send_lossy(link.as_mut(), &msg)?;
                            } else {
                                link.send(&msg)?;
                            }
                        }
                    }
                }
                GammaPolicy::PerNode(ctls) => {
                    for (n, ctl) in ctls.iter_mut().enumerate() {
                        if self.departed.contains(&len_to_u32(n)) {
                            continue; // drained: its responder retired
                        }
                        let l_i = node_sizes.get(n).copied().unwrap_or(0);
                        if l_i == 0 {
                            continue; // node idle this window, keep its γ
                        }
                        let m_i = node_candidates.get(n).copied().unwrap_or(0);
                        let before = ctl.current();
                        let next = ctl.observe_checked(l_i, m_i).map_err(ClusterError::Core)?;
                        if next != before {
                            let link = self.control.get_mut(n).ok_or_else(|| {
                                ClusterError::Protocol(format!("no control link for n{n}"))
                            })?;
                            let msg = Message::GammaUpdate { gamma: next };
                            if resilient {
                                retry::send_lossy(link.as_mut(), &msg)?;
                            } else {
                                link.send(&msg)?;
                            }
                        }
                    }
                }
                GammaPolicy::Fixed(_) => {}
            }
        }
        // Stage-2 slot freed: pull the next ordered window in.
        self.in_flight -= 1;
        self.advance_pipeline(resolved)?;
        Ok(())
    }
}

impl RootEngine for DemaRoot {
    fn on_message(
        &mut self,
        msg: Message,
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<(), ClusterError> {
        match msg {
            Message::SynopsisBatch {
                node,
                window,
                synopses,
            } => {
                if !self.ledger.is_member(window.0, node.0) {
                    return Err(ClusterError::Protocol(format!(
                        "{node}: synopsis for {window} outside its membership epochs"
                    )));
                }
                if let Some(sup) = self.sup.as_mut() {
                    if sup.is_done(window.0) {
                        sup.counters.record_duplicate();
                        return Ok(());
                    }
                    sup.note_alive(node.0);
                }
                let queued = self.ready.contains(&window.0);
                let state = self.states.entry(window.0).or_default();
                let stage1_open = state.selection.is_none() && !queued;
                if !stage1_open || !state.reported.insert(node.0) {
                    retry::suppress_duplicate(&self.sup);
                    return Ok(());
                }
                state.synopses.extend(synopses);
                if let Some(sup) = self.sup.as_mut() {
                    sup.arm(window.0);
                }
                let covered = self
                    .states
                    .get(&window.0)
                    .is_some_and(|s| self.stage1_covered(&s.reported, window.0));
                if covered {
                    self.close_stage1(window, resolved)?;
                }
                Ok(())
            }
            Message::CandidateReply {
                node,
                window,
                slices,
            } => self.absorb_reply(node, window, slices, resolved),
            other => Err(ClusterError::Protocol(format!(
                "dema root: unexpected message {other:?}"
            ))),
        }
    }

    fn next_deadline(&self) -> Option<std::time::Instant> {
        retry::next_due(&self.sup)
    }

    fn on_tick(
        &mut self,
        expected_windows: u64,
        quiescent: bool,
        missing_enders: &[u32],
        resolved: &mut Vec<(WindowId, ResolvedWindow)>,
    ) -> Result<Vec<NodeId>, ClusterError> {
        let Some(sup) = self.sup.as_mut() else {
            return Ok(Vec::new());
        };
        if quiescent {
            // Nothing is arriving: every outstanding window (and silent
            // stream end) gets a deadline, so fully-dropped windows cannot
            // wedge the run.
            for w in 0..expected_windows {
                if !sup.is_done(w) && !self.ready.contains(&w) {
                    sup.arm(w);
                }
            }
            if !missing_enders.is_empty() {
                sup.arm(END_KEY);
            }
        }
        if missing_enders.is_empty() {
            sup.disarm(END_KEY);
        }
        let mut newly_dead: Vec<u32> = Vec::new();
        let now = Instant::now();
        for w in sup.expired(now) {
            if w == END_KEY {
                let missing: Vec<u32> = missing_enders
                    .iter()
                    .copied()
                    .filter(|&n| !sup.is_dead(n) && !sup.is_drained(n))
                    .collect();
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
                            retry::nack(
                                sup,
                                &mut self.control,
                                n,
                                Message::ResendWindow {
                                    window: WindowId(END_KEY),
                                    attempt,
                                },
                            )?;
                        }
                    }
                    ExpiryAction::GiveUp { newly_dead: nd } => newly_dead.extend(nd),
                }
                continue;
            }
            if self.ready.contains(&w) {
                sup.disarm(w);
                continue;
            }
            let stage2 = self.states.get(&w).is_some_and(|s| s.selection.is_some());
            if stage2 {
                let Some(state) = self.states.get(&w) else {
                    continue;
                };
                let missing: Vec<u32> = state
                    .expected_replies
                    .iter()
                    .copied()
                    .filter(|&n| !state.replied.contains(&n) && !sup.is_dead(n))
                    .collect();
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
                            let slices = state.node_requests.get(&n).cloned().unwrap_or_default();
                            retry::nack(
                                sup,
                                &mut self.control,
                                n,
                                Message::CandidateRetry {
                                    window: WindowId(w),
                                    slices,
                                    attempt,
                                },
                            )?;
                        }
                    }
                    ExpiryAction::GiveUp { newly_dead: nd } => newly_dead.extend(nd),
                }
            } else {
                let missing: Vec<u32> = self
                    .ledger
                    .members_of(w)
                    .iter()
                    .copied()
                    .filter(|&n| {
                        !sup.is_dead(n)
                            && !sup.is_drained(n)
                            && !self.states.get(&w).is_some_and(|s| s.reported.contains(&n))
                    })
                    .collect();
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
                            retry::nack(
                                sup,
                                &mut self.control,
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
        }
        // Completion sweeps: stages that became covered through deaths
        // rather than arrivals.
        let mut stage1_closable: Vec<u64> = Vec::new();
        let mut resolvable: Vec<u64> = Vec::new();
        for (&w, state) in &self.states {
            if self.ready.contains(&w) || sup.is_done(w) {
                continue;
            }
            if state.selection.is_some() {
                if state
                    .expected_replies
                    .iter()
                    .all(|n| state.replied.contains(n) || sup.is_dead(*n))
                {
                    resolvable.push(w);
                }
            } else if sup.covered_members(Some(&state.reported), self.ledger.members_of(w)) {
                stage1_closable.push(w);
            }
        }
        // Windows abandoned by every member: no synopses at all, every
        // node of the window's epoch dead. They resolve empty-degraded so
        // the run can still finish.
        let mut all_dead: Vec<u64> = Vec::new();
        for w in 0..expected_windows {
            if !sup.is_done(w)
                && !self.states.contains_key(&w)
                && !self.ready.contains(&w)
                && self.ledger.members_of(w).iter().all(|&n| sup.is_dead(n))
            {
                all_dead.push(w);
            }
        }
        for w in stage1_closable {
            // Re-check: an earlier close may have chained into this window.
            if self.states.get(&w).is_some_and(|s| s.selection.is_none())
                && !self.ready.contains(&w)
            {
                self.close_stage1(WindowId(w), resolved)?;
            }
        }
        for w in resolvable {
            if self.states.get(&w).is_some_and(|s| s.selection.is_some()) {
                self.resolve(WindowId(w), resolved)?;
            }
        }
        for w in all_dead {
            if self.states.contains_key(&w) {
                continue;
            }
            let Some(sup) = self.sup.as_mut() else {
                break;
            };
            if sup.is_done(w) {
                continue;
            }
            sup.counters.record_degraded_window();
            let retries = sup.retries_of(w);
            sup.finish(w);
            resolved.push((
                WindowId(w),
                ResolvedWindow {
                    gamma: self.gamma.current(),
                    degraded: Some(Degraded {
                        missing_nodes: self.ledger.members_of(w).to_vec(),
                        rank_error_bound: None,
                        retries,
                    }),
                    ..ResolvedWindow::default()
                },
            ));
        }
        Ok(newly_dead.into_iter().map(NodeId).collect())
    }

    fn set_membership(&mut self, ledger: Arc<EpochLedger>) {
        self.ledger = ledger;
    }

    fn send_control(&mut self, node: u32, msg: &Message) -> Result<bool, ClusterError> {
        let resilient = self.sup.is_some();
        let Some(link) = self.control.get_mut(u64_to_usize(u64::from(node))) else {
            return Ok(false);
        };
        if resilient {
            retry::send_lossy(link.as_mut(), msg)?;
        } else {
            link.send(msg)?;
        }
        Ok(true)
    }

    fn current_gamma(&self) -> u64 {
        self.gamma.current()
    }

    fn on_node_drained(&mut self, node: NodeId) {
        self.departed.insert(node.0);
        if let Some(sup) = self.sup.as_mut() {
            sup.mark_drained(node.0);
        }
    }

    fn on_epoch_switch(&mut self, _epoch: u64) {
        // The member count (and with it l_G) just changed: restart the
        // adaptive γ controllers from their current value so the old
        // membership's observations stop steering the new epoch.
        self.gamma.reseed();
    }
}

/// The Dema local engine: sort, slice, store, ship synopses.
pub struct DemaLocal<'a> {
    shared: &'a LocalShared,
}

impl<'a> DemaLocal<'a> {
    /// Build the local half over the node's shared γ cell and slice store.
    pub fn new(shared: &'a LocalShared) -> DemaLocal<'a> {
        DemaLocal { shared }
    }
}

impl LocalEngine for DemaLocal<'_> {
    // hot-path: local-window
    fn on_window(
        &mut self,
        node: NodeId,
        window: WindowId,
        mut events: Vec<Event>,
        to_root: &mut dyn MsgSender,
    ) -> Result<(), ClusterError> {
        let gamma = self.shared.gamma.get();
        dema_core::par::sort_events_with(&mut events, self.shared.threads);
        let l_local = len_to_u64(events.len());
        let slices = cut_into_slices(node, window, events, gamma)?;
        let total = len_to_u32(slices.len());
        let synopses = slices
            .iter()
            .map(|s| s.synopsis(total))
            .collect::<Result<Vec<_>, _>>()?;
        dema_core::invariant::check_partition(&slices, &synopses, l_local)?;
        {
            let mut store = self.shared.store.borrow_mut();
            store.insert(window.0, slices);
            // Bound memory if the root stalls; oldest windows first.
            while store.len() > STORE_WINDOW_CAP {
                let Some(&oldest) = store.keys().min() else {
                    break;
                };
                store.remove(&oldest);
            }
        }
        to_root.send(&Message::SynopsisBatch {
            node,
            window,
            synopses,
        })?;
        Ok(())
    }
}

/// Build one candidate-reply payload from a stored window.
fn collect_payload(
    node: NodeId,
    window: WindowId,
    slices: &[u32],
    stored: &[Slice],
) -> Result<Vec<(u32, SharedRun)>, ClusterError> {
    slices
        .iter()
        .map(|&idx| {
            stored
                .get(u64_to_usize(u64::from(idx)))
                // SharedRun clone: refcount bump, no event copy.
                .map(|s| (idx, s.events.clone()))
                .ok_or_else(|| {
                    ClusterError::Protocol(format!(
                        "{node}: request for missing slice {idx} of {window}"
                    ))
                })
        })
        .collect()
}

/// Outcome of one [`responder_step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponderStatus {
    /// Keep serving control messages.
    Continue,
    /// Retire the responder cleanly (resilient run, uplink gone: the
    /// node is dead to the root and liveness accounting covers it; or the
    /// drain handshake is answered).
    Stop,
}

/// Dema's responder, one control message at a time: serves candidate
/// requests (and, on resilient runs, candidate retries and `ResendWindow`
/// NACKs) plus γ updates. The reactor's responder role and the
/// deterministic scheduler in `dema-model` both drive it.
///
/// Seed runs serve each window destructively — the store entry is removed
/// with the reply, and an unknown window is a protocol error. Resilient
/// runs keep served windows (a retry must be idempotent) and treat an
/// unknown window as already-evicted: no reply, the root's retry budget
/// decides.
// hot-path: responder-serve
pub fn responder_step(
    node: NodeId,
    msg: Message,
    to_root: &mut dyn MsgSender,
    shared: &LocalShared,
) -> Result<ResponderStatus, ClusterError> {
    match msg {
        Message::CandidateRequest { window, slices }
        | Message::CandidateRetry { window, slices, .. } => {
            let payload = {
                let mut store = shared.store.borrow_mut();
                if shared.retain_sent {
                    match store.get(&window.0) {
                        Some(stored) => Some(collect_payload(node, window, &slices, stored)?),
                        // Evicted (or a retry raced the store): stay
                        // silent, the root's retry budget handles it.
                        None => None,
                    }
                } else {
                    let stored = store.remove(&window.0).ok_or_else(|| {
                        ClusterError::Protocol(format!(
                            "{node}: candidate request for unknown window {window}"
                        ))
                    })?;
                    Some(collect_payload(node, window, &slices, &stored)?)
                }
            };
            if let Some(payload) = payload {
                let reply = Message::CandidateReply {
                    node,
                    window,
                    slices: payload,
                };
                if let Err(e) = to_root.send(&reply) {
                    return match e {
                        // Our uplink died mid-run: this node is dead to
                        // the root; exit cleanly, liveness covers it.
                        NetError::Disconnected if shared.retain_sent => Ok(ResponderStatus::Stop),
                        other => Err(other.into()),
                    };
                }
            }
        }
        Message::ResendWindow { window, .. } => {
            let cached = shared.sent.borrow().get(&window.0).cloned();
            // A cache miss means the window was never processed here
            // (or was evicted): nothing to resend, the root retries.
            if let Some(m) = cached {
                if let Err(e) = to_root.send(&m) {
                    return match e {
                        NetError::Disconnected if shared.retain_sent => Ok(ResponderStatus::Stop),
                        other => Err(other.into()),
                    };
                }
            }
        }
        Message::GammaUpdate { gamma } => {
            shared.gamma.set(gamma.max(2));
        }
        Message::JoinAccept { gamma, .. } => {
            // The root's γ at admission time: adopt it so the joiner's
            // early windows slice with live feedback instead of the run's
            // initial γ. γ 0 means the engine runs no γ control.
            if gamma >= 2 {
                shared.gamma.set(gamma);
            }
        }
        Message::EpochSwitch { .. } => {
            // Membership bookkeeping lives at the root; locals only need
            // the boundary windows already fixed in their input plan.
        }
        Message::DrainComplete { .. } => {
            // The root finalized every window this node contributed to:
            // answer the handshake and retire the responder.
            let bye = Message::StreamEnd {
                node,
                late_events: 0,
            };
            if let Err(e) = to_root.send(&bye) {
                return match e {
                    NetError::Disconnected if shared.retain_sent => Ok(ResponderStatus::Stop),
                    other => Err(other.into()),
                };
            }
            return Ok(ResponderStatus::Stop);
        }
        other => {
            return Err(ClusterError::Protocol(format!(
                "{node}: unexpected control message {other:?}"
            )))
        }
    }
    Ok(ResponderStatus::Continue)
}
