//! The local-node shell: window pacing, watermarks, and close-time stamps.
//!
//! A local node consumes its pre-grouped window inputs in order. Per window
//! it invokes the engine's local duty (behind the
//! [`crate::engines::LocalEngine`] trait — sort + slice + synopses for
//! Dema, sort-and-ship for DecSort, ship-raw for the centralized engines,
//! sketch for the distributed ones) and moves on — it never blocks on the
//! root. Dema's calculation step is served by a small *responder* thread
//! that shares the node's slice store, so identification of window `w + 1`
//! can overlap the calculation step of window `w`, exactly as in the paper
//! ("the local nodes then proceed to process the next local windows").

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::sync::{rank, Mutex};
use dema_core::window::{SortStrategy, WindowManager};
use dema_net::{MsgSender, NetError};
use dema_wire::Message;

use crate::config::EngineKind;
use crate::engines;
use crate::engines::dema::STORE_WINDOW_CAP;
use crate::engines::retry::END_KEY;
use crate::ClusterError;

pub use crate::engines::dema::{responder_step, run_responder, LocalShared, ResponderStatus};

/// Wall-clock instants at which each `(node, window)` closed — the latency
/// clock starts here.
pub type CloseTimes = Arc<Mutex<HashMap<(u32, u64), Instant>>>;

/// Build an empty [`CloseTimes`] map behind its ranked lock
/// (`cluster.close_times`, DESIGN.md §8).
pub fn new_close_times() -> CloseTimes {
    Arc::new(Mutex::new(rank::CLOSE_TIMES, HashMap::new()))
}

/// Data-plane sender that, on resilient runs, caches the last message sent
/// per window so the node's responder can serve the root's `ResendWindow`
/// NACKs. The stream-end message lives under the [`END_KEY`] slot.
/// Transparent (no clone, no lock) when the run is not resilient.
struct SentCache<'a> {
    inner: &'a mut dyn MsgSender,
    shared: &'a LocalShared,
    key: u64,
}

impl MsgSender for SentCache<'_> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        if self.shared.retain_sent {
            let mut sent = self.shared.sent.lock();
            sent.insert(self.key, msg.clone());
            // Bounded like the slice store; the stream-end slot survives.
            while sent.len() > STORE_WINDOW_CAP {
                let Some(&oldest) = sent.keys().filter(|&&k| k != END_KEY).min() else {
                    break;
                };
                sent.remove(&oldest);
            }
        }
        self.inner.send(msg)
    }

    fn flush_pending(&mut self) -> Result<bool, NetError> {
        self.inner.flush_pending()
    }
}

/// Run one local node's main loop over its window inputs.
///
/// With `pace_window_ms = Some(ms)`, window `i` closes no earlier than
/// `i · ms` after the run started — emulating real-time tumbling windows so
/// root feedback (γ updates) can influence later windows.
pub fn run_local(
    node: NodeId,
    windows: Vec<Vec<Event>>,
    engine: EngineKind,
    to_root: &mut dyn MsgSender,
    shared: &LocalShared,
    close_times: &CloseTimes,
    pace_window_ms: Option<u64>,
) -> Result<(), ClusterError> {
    let mut stepper = LocalStepper::new(node, windows, engine, shared);
    let started = Instant::now();
    while !stepper.is_done() {
        if let Some(w) = stepper.next_window() {
            if let Some(ms) = pace_window_ms {
                let due = started + std::time::Duration::from_millis(ms * w);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            close_times.lock().insert((node.0, w), Instant::now());
        }
        stepper.step(to_root)?;
    }
    Ok(())
}

/// Drives one local node one window at a time — the single-step seam
/// shared by the threaded loop ([`run_local`] is a thin driver around
/// it), the reactor runtime's local role (`crate::host`), and the
/// deterministic interleaving explorer in `dema-model`. Each
/// [`LocalStepper::step`] closes the next window through the engine's
/// local duty with the same per-window sent-cache semantics everywhere,
/// and a final step sends the `StreamEnd` marker. No pacing and no
/// close-time stamps here: the driver owns time.
pub struct LocalStepper<'a> {
    node: NodeId,
    windows: std::vec::IntoIter<Vec<Event>>,
    next_window: u64,
    duty: Box<dyn engines::LocalEngine + 'a>,
    shared: &'a LocalShared,
    done: bool,
    late_events: u64,
    /// Pending join announcement: a planned joiner introduces itself to
    /// the root before closing its first window (DESIGN.md §14).
    announce_join: bool,
    /// Set for a planned leaver: the epoch boundary its final
    /// `LeaveAnnounce` names (sent in place of `StreamEnd`).
    leave_window: Option<u64>,
}

impl<'a> LocalStepper<'a> {
    /// A stepper that will process `windows` in order for `node`.
    pub fn new(
        node: NodeId,
        windows: Vec<Vec<Event>>,
        engine: EngineKind,
        shared: &'a LocalShared,
    ) -> Self {
        LocalStepper {
            node,
            windows: windows.into_iter(),
            next_window: 0,
            duty: engines::build_local(engine, shared),
            shared,
            done: false,
            late_events: 0,
            announce_join: false,
            leave_window: None,
        }
    }

    /// Report `late` dropped-as-late events in the final `StreamEnd`
    /// (streaming inputs; see [`stream_windows`]).
    #[must_use]
    pub fn with_late_events(mut self, late: u64) -> Self {
        self.late_events = late;
        self
    }

    /// Start producing at window `first` instead of 0 — a planned joiner.
    /// The first step announces the join (`JoinRequest`) so the root can
    /// hand back the live γ; the joiner streams without waiting for the
    /// accept, since the staged plan already admits it.
    #[must_use]
    pub fn with_first_window(mut self, first: u64) -> Self {
        self.next_window = first;
        self.announce_join = first > 0;
        self
    }

    /// Stop producing at window `boundary` — a planned leaver. Once its
    /// windows are exhausted the stepper sends `LeaveAnnounce` naming the
    /// boundary instead of `StreamEnd`; the node's responder keeps serving
    /// replay obligations until the root's `DrainComplete` retires it.
    #[must_use]
    pub fn with_leave_window(mut self, boundary: u64) -> Self {
        self.leave_window = Some(boundary);
        self
    }

    /// `true` once the `StreamEnd` marker has been sent.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The id of the window the next [`LocalStepper::step`] will close,
    /// or `None` when the next step sends `StreamEnd` (or nothing).
    pub fn next_window(&self) -> Option<u64> {
        (!self.done && self.windows.len() > 0).then_some(self.next_window)
    }

    /// Process the next window, or send `StreamEnd` once windows are
    /// exhausted. Returns `false` (doing nothing) when already done.
    pub fn step(&mut self, to_root: &mut dyn MsgSender) -> Result<bool, ClusterError> {
        if self.done {
            return Ok(false);
        }
        if self.announce_join {
            // Best-effort: a lost JoinRequest only costs the γ handoff —
            // membership itself is staged in the root's plan, so the
            // joiner's synopses are expected either way. Not cached.
            self.announce_join = false;
            to_root.send(&Message::JoinRequest {
                node: self.node,
                window: WindowId(self.next_window),
            })?;
            return Ok(true);
        }
        match self.windows.next() {
            Some(events) => {
                let window = WindowId(self.next_window);
                self.next_window += 1;
                let mut cache = SentCache {
                    inner: to_root,
                    shared: self.shared,
                    key: window.0,
                };
                self.duty.on_window(self.node, window, events, &mut cache)?;
            }
            None => {
                let mut cache = SentCache {
                    inner: to_root,
                    shared: self.shared,
                    key: END_KEY,
                };
                // A leaver's end-of-stream is the drain announcement; it
                // rides the END_KEY cache slot so a ResendWindow NACK can
                // replay it if lost.
                let bye = match self.leave_window {
                    Some(boundary) => Message::LeaveAnnounce {
                        node: self.node,
                        window: WindowId(boundary),
                    },
                    None => Message::StreamEnd {
                        node: self.node,
                        late_events: self.late_events,
                    },
                };
                cache.send(&bye)?;
                self.done = true;
            }
        }
        Ok(true)
    }
}

/// Derive the per-window event sets a streaming node reports: tumbling
/// windows of `window_len` ms closed by the node's watermark (max event
/// time − `allowed_lateness_ms`), normalized to 0-based ids covering all
/// of `window_range` (inclusive — windows the node saw no events in are
/// empty entries). Returns the windows plus the count of events dropped
/// behind the watermark, per the paper's event-time processing model.
///
/// Reporting *every* window id in the range keeps the root's
/// all-locals-reported trigger firing for every global window, and lets
/// streaming work ride the same [`LocalStepper`] as pre-windowed work (the
/// reactor runtime hosts both through one role).
pub fn stream_windows(
    node: NodeId,
    events: Vec<Event>,
    window_len: u64,
    window_range: (u64, u64),
    allowed_lateness_ms: u64,
) -> (Vec<Vec<Event>>, u64) {
    let (first_window, last_window) = window_range;
    let mut mgr = WindowManager::new(node, window_len, SortStrategy::OnClose);
    let mut out: Vec<Vec<Event>> = Vec::new();
    let mut next_to_emit = first_window;
    let emit = |out: &mut Vec<Vec<Event>>, next: &mut u64, wid: u64, events: Vec<Event>| {
        while *next < wid {
            out.push(Vec::new());
            *next += 1;
        }
        if wid >= *next {
            out.push(events);
            *next = wid + 1;
        }
    };
    for e in events {
        let watermark = e.ts.saturating_sub(allowed_lateness_ms);
        for closed in mgr.advance_watermark(watermark) {
            let wid = closed.id().0;
            emit(
                &mut out,
                &mut next_to_emit,
                wid,
                closed.into_sorted_events(),
            );
        }
        mgr.ingest(e);
    }
    for closed in mgr.drain() {
        let wid = closed.id().0;
        emit(
            &mut out,
            &mut next_to_emit,
            wid,
            closed.into_sorted_events(),
        );
    }
    while next_to_emit <= last_window {
        out.push(Vec::new());
        next_to_emit += 1;
    }
    (out, mgr.late_events())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GammaMode;
    use crate::engines::dema::STORE_WINDOW_CAP;
    use dema_core::selector::SelectionStrategy;
    use dema_metrics::NetworkCounters;
    use dema_net::mem::link;
    use dema_net::MsgReceiver;
    use std::sync::atomic::Ordering;

    fn events(vals: &[i64]) -> Vec<Event> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| Event::new(v, 0, i as u64))
            .collect()
    }

    fn dema_engine() -> EngineKind {
        EngineKind::Dema {
            gamma: GammaMode::Fixed(4),
            strategy: SelectionStrategy::WindowCut,
        }
    }

    #[test]
    fn dema_local_sends_synopses_and_stores_slices() {
        let counters = NetworkCounters::new_shared();
        let (mut tx, mut rx) = link(counters);
        let shared = LocalShared::new(4);
        let close_times: CloseTimes = new_close_times();
        run_local(
            NodeId(1),
            vec![events(&[5, 1, 9, 3, 7, 2, 8, 4])],
            dema_engine(),
            &mut tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();
        match rx.recv().unwrap() {
            Message::SynopsisBatch {
                node,
                window,
                synopses,
            } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(window, WindowId(0));
                assert_eq!(synopses.len(), 2); // 8 events, γ=4
                assert_eq!(synopses[0].first, 1);
                assert_eq!(synopses[1].last, 9);
            }
            other => panic!("expected synopses, got {other:?}"),
        }
        assert!(matches!(rx.recv().unwrap(), Message::StreamEnd { .. }));
        assert!(shared.store.lock().contains_key(&0));
        assert!(close_times.lock().contains_key(&(1, 0)));
    }

    #[test]
    fn decsort_local_ships_sorted() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(2);
        let close_times: CloseTimes = new_close_times();
        run_local(
            NodeId(0),
            vec![events(&[3, 1, 2])],
            EngineKind::DecSort,
            &mut tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();
        match rx.recv().unwrap() {
            Message::EventBatch { sorted, events, .. } => {
                assert!(sorted);
                let vals: Vec<i64> = events.iter().map(|e| e.value).collect();
                assert_eq!(vals, vec![1, 2, 3]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn centralized_local_ships_raw() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(2);
        let close_times: CloseTimes = new_close_times();
        run_local(
            NodeId(0),
            vec![events(&[3, 1, 2])],
            EngineKind::Centralized,
            &mut tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();
        match rx.recv().unwrap() {
            Message::EventBatch { sorted, events, .. } => {
                assert!(!sorted);
                assert_eq!(events.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tdigest_local_ships_centroids() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(2);
        let close_times: CloseTimes = new_close_times();
        let vals: Vec<i64> = (0..1000).collect();
        run_local(
            NodeId(0),
            vec![events(&vals)],
            EngineKind::TdigestDistributed { compression: 50.0 },
            &mut tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();
        match rx.recv().unwrap() {
            Message::DigestBatch {
                count, centroids, ..
            } => {
                assert_eq!(count, 1000);
                assert!(!centroids.is_empty());
                assert!(centroids.len() < 200, "{} centroids", centroids.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn kll_local_ships_weighted_summary() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(2);
        let close_times: CloseTimes = new_close_times();
        let vals: Vec<i64> = (0..5000).collect();
        run_local(
            NodeId(0),
            vec![events(&vals)],
            EngineKind::KllDistributed { k: 128 },
            &mut tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();
        match rx.recv().unwrap() {
            Message::SketchBatch {
                count,
                min,
                max,
                items,
                ..
            } => {
                assert_eq!(count, 5000);
                assert_eq!(min, 0.0);
                assert_eq!(max, 4999.0);
                // Weight conservation: the summary accounts for every event.
                assert_eq!(items.iter().map(|(_, w)| w).sum::<u64>(), 5000);
                // And it is sublinear in the window size.
                assert!(items.len() < 1000, "{} items shipped", items.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stepper_matches_run_local_message_for_message() {
        let win = |seed: i64| events(&[seed, seed + 2, seed + 1, seed + 3]);
        let windows = vec![win(10), win(20), win(30)];

        let (mut tx_a, mut rx_a) = link(NetworkCounters::new_shared());
        let shared_a = LocalShared::new(2);
        let close_times: CloseTimes = new_close_times();
        run_local(
            NodeId(3),
            windows.clone(),
            dema_engine(),
            &mut tx_a,
            &shared_a,
            &close_times,
            None,
        )
        .unwrap();

        let (mut tx_b, mut rx_b) = link(NetworkCounters::new_shared());
        let shared_b = LocalShared::new(2);
        let mut stepper = LocalStepper::new(NodeId(3), windows, dema_engine(), &shared_b);
        let mut steps = 0;
        while stepper.step(&mut tx_b).unwrap() {
            steps += 1;
        }
        assert_eq!(steps, 4, "3 windows + StreamEnd");
        assert!(stepper.is_done());
        assert!(!stepper.step(&mut tx_b).unwrap(), "done stepper is inert");

        drop(tx_a);
        drop(tx_b);
        loop {
            match (rx_a.recv(), rx_b.recv()) {
                (Ok(a), Ok(b)) => assert_eq!(a.to_bytes(), b.to_bytes()),
                (Err(_), Err(_)) => break,
                (a, b) => panic!("stream lengths differ: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn responder_serves_candidates_and_gamma() {
        let (mut data_tx, mut data_rx) = link(NetworkCounters::new_shared());
        let (mut ctl_tx, mut ctl_rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(4);
        let close_times: CloseTimes = new_close_times();
        run_local(
            NodeId(2),
            vec![events(&[5, 1, 9, 3, 7, 2, 8, 4])],
            dema_engine(),
            &mut data_tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();

        let shared2 = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            run_responder(NodeId(2), &mut ctl_rx, &mut data_tx, &shared2)
        });
        ctl_tx.send(&Message::GammaUpdate { gamma: 16 }).unwrap();
        ctl_tx
            .send(&Message::CandidateRequest {
                window: WindowId(0),
                slices: vec![1],
            })
            .unwrap();

        let _syn = data_rx.recv().unwrap();
        let _end = data_rx.recv().unwrap();
        match data_rx.recv().unwrap() {
            Message::CandidateReply {
                node,
                window,
                slices,
            } => {
                assert_eq!(node, NodeId(2));
                assert_eq!(window, WindowId(0));
                assert_eq!(slices.len(), 1);
                assert_eq!(slices[0].0, 1);
                let vals: Vec<i64> = slices[0].1.iter().map(|e| e.value).collect();
                assert_eq!(vals, vec![5, 7, 8, 9]);
            }
            other => panic!("{other:?}"),
        }
        drop(ctl_tx); // root done → responder exits cleanly
        handle.join().unwrap().unwrap();
        assert_eq!(shared.gamma.load(Ordering::Relaxed), 16);
        assert!(shared.store.lock().is_empty(), "served window evicted");
    }

    #[test]
    fn candidate_reply_shares_the_stored_buffer() {
        // Zero-copy witness for the candidate-fetch hot path: the run inside
        // the responder's reply must be a view into the very allocation the
        // store holds (Arc::ptr_eq), not a copy of it.
        use dema_core::shared::SharedRun;
        let (mut data_tx, mut data_rx) = link(NetworkCounters::new_shared());
        let (mut ctl_tx, mut ctl_rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(4);
        let close_times: CloseTimes = new_close_times();
        run_local(
            NodeId(1),
            vec![events(&[5, 1, 9, 3, 7, 2, 8, 4])],
            dema_engine(),
            &mut data_tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();
        // Capture the stored run before the responder evicts the window.
        let stored_run = shared.store.lock()[&0][1].events.clone();

        let shared2 = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            run_responder(NodeId(1), &mut ctl_rx, &mut data_tx, &shared2)
        });
        ctl_tx
            .send(&Message::CandidateRequest {
                window: WindowId(0),
                slices: vec![1],
            })
            .unwrap();
        let _syn = data_rx.recv().unwrap();
        let _end = data_rx.recv().unwrap();
        match data_rx.recv().unwrap() {
            Message::CandidateReply { slices, .. } => {
                assert!(
                    SharedRun::ptr_eq(&slices[0].1, &stored_run),
                    "reply run must share the stored window's allocation"
                );
            }
            other => panic!("{other:?}"),
        }
        drop(ctl_tx);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn responder_rejects_unknown_window() {
        let (mut data_tx, _data_rx) = link(NetworkCounters::new_shared());
        let (mut ctl_tx, mut ctl_rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(4);
        ctl_tx
            .send(&Message::CandidateRequest {
                window: WindowId(7),
                slices: vec![0],
            })
            .unwrap();
        drop(ctl_tx);
        let res = run_responder(NodeId(0), &mut ctl_rx, &mut data_tx, &shared);
        assert!(matches!(res, Err(ClusterError::Protocol(_))));
    }

    #[test]
    fn store_is_bounded() {
        let (mut tx, rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(2);
        let close_times: CloseTimes = new_close_times();
        let windows: Vec<Vec<Event>> = (0..100).map(|_| events(&[1, 2])).collect();
        run_local(
            NodeId(0),
            windows,
            dema_engine(),
            &mut tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();
        assert!(shared.store.lock().len() <= STORE_WINDOW_CAP);
        drop(rx);
    }

    #[test]
    fn empty_window_still_reports() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(4);
        let close_times: CloseTimes = new_close_times();
        run_local(
            NodeId(0),
            vec![vec![]],
            dema_engine(),
            &mut tx,
            &shared,
            &close_times,
            None,
        )
        .unwrap();
        match rx.recv().unwrap() {
            Message::SynopsisBatch { synopses, .. } => assert!(synopses.is_empty()),
            other => panic!("{other:?}"),
        }
    }
}
