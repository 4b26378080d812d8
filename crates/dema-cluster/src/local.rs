//! The local-node shell: per-window engine duties, the sent cache,
//! watermarks, and the close-time map.
//!
//! A local node consumes its pre-grouped window inputs in order. Per window
//! it invokes the engine's local duty (behind the
//! [`crate::engines::LocalEngine`] trait — sort + slice + synopses for
//! Dema, sort-and-ship for DecSort, ship-raw for the centralized engines,
//! sketch for the distributed ones) and moves on — it never blocks on the
//! root. Dema's calculation step is served by a second role on the same
//! reactor shard, the *responder*, that shares the node's slice store, so
//! identification of window `w + 1` can overlap the calculation step of
//! window `w`, exactly as in the paper ("the local nodes then proceed to
//! process the next local windows").

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

pub use crate::engines::dema::{responder_step, LocalShared, ResponderStatus};

/// Wall-clock instants at which each `(node, window)` closed — the latency
/// clock starts here.
pub type CloseTimes = Arc<Mutex<HashMap<(u32, u64), Instant>>>;

/// Build an empty [`CloseTimes`] map behind its ranked lock
/// (`cluster.close_times`, DESIGN.md §8).
pub fn new_close_times() -> CloseTimes {
    Arc::new(Mutex::new(rank::CLOSE_TIMES, HashMap::new()))
}

/// Data-plane sender that, on resilient runs, remembers the last message
/// it forwarded; [`LocalStepper::step`] files it in the node's `sent`
/// cache once the duty returns. It holds no [`LocalShared`] borrow: a
/// [`MsgSender`] is `Send` and the shared cells are not `Sync`.
/// Transparent (no clone) when the run is not resilient.
struct SentCache<'a> {
    inner: &'a mut dyn MsgSender,
    retain: bool,
    last: Option<Message>,
}

impl MsgSender for SentCache<'_> {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        if self.retain {
            self.last = Some(msg.clone());
        }
        self.inner.send(msg)
    }

    fn flush_pending(&mut self) -> Result<bool, NetError> {
        self.inner.flush_pending()
    }
}

/// File `msg` under `key` in `shared.sent` for the responder's
/// `ResendWindow` replays. Bounded like the slice store; the stream-end
/// slot survives.
fn file_sent(shared: &LocalShared, key: u64, msg: Message) {
    let mut sent = shared.sent.borrow_mut();
    sent.insert(key, msg);
    while sent.len() > STORE_WINDOW_CAP {
        let Some(&oldest) = sent.keys().filter(|&&k| k != END_KEY).min() else {
            break;
        };
        sent.remove(&oldest);
    }
}

/// Drives one local node one window at a time — the single-step seam
/// shared by the reactor runtime's local role (`crate::host`), the
/// deterministic interleaving explorer in `dema-model`, and the layer walk
/// in `benchmark/`. Each [`LocalStepper::step`] closes the next window
/// through the engine's local duty with the same per-window sent-cache
/// semantics everywhere, and a final step sends the `StreamEnd` marker. No
/// pacing and no close-time stamps here: the caller owns time.
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
                    retain: self.shared.retain_sent,
                    last: None,
                };
                let res = self.duty.on_window(self.node, window, events, &mut cache);
                // Filed also when the send failed: a ResendWindow NACK
                // replays it once the uplink is back.
                if let Some(msg) = cache.last {
                    file_sent(self.shared, window.0, msg);
                }
                res?;
            }
            None => {
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
                if self.shared.retain_sent {
                    file_sent(self.shared, END_KEY, bye.clone());
                }
                to_root.send(&bye)?;
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

    /// Step a fresh stepper over `windows` until it has sent `StreamEnd`;
    /// returns the number of steps taken.
    fn run_stepper(
        node: NodeId,
        windows: Vec<Vec<Event>>,
        engine: EngineKind,
        to_root: &mut dyn MsgSender,
        shared: &LocalShared,
    ) -> usize {
        let mut stepper = LocalStepper::new(node, windows, engine, shared);
        let mut steps = 0;
        while stepper.step(to_root).unwrap() {
            steps += 1;
        }
        assert!(stepper.is_done());
        assert!(!stepper.step(to_root).unwrap(), "done stepper is inert");
        steps
    }

    #[test]
    fn dema_local_sends_synopses_and_stores_slices() {
        let counters = NetworkCounters::new_shared();
        let (mut tx, mut rx) = link(counters);
        let shared = LocalShared::new(4);
        let steps = run_stepper(
            NodeId(1),
            vec![events(&[5, 1, 9, 3, 7, 2, 8, 4])],
            dema_engine(),
            &mut tx,
            &shared,
        );
        assert_eq!(steps, 2, "1 window + StreamEnd");
        match rx.try_recv().unwrap().unwrap() {
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
        assert!(matches!(
            rx.try_recv().unwrap().unwrap(),
            Message::StreamEnd { .. }
        ));
        assert!(shared.store.borrow().contains_key(&0));
        assert!(shared.sent.borrow().is_empty(), "seed runs cache nothing");
    }

    #[test]
    fn decsort_local_ships_sorted() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(2);
        run_stepper(
            NodeId(0),
            vec![events(&[3, 1, 2])],
            EngineKind::DecSort,
            &mut tx,
            &shared,
        );
        match rx.try_recv().unwrap().unwrap() {
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
        run_stepper(
            NodeId(0),
            vec![events(&[3, 1, 2])],
            EngineKind::Centralized,
            &mut tx,
            &shared,
        );
        match rx.try_recv().unwrap().unwrap() {
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
        let vals: Vec<i64> = (0..1000).collect();
        run_stepper(
            NodeId(0),
            vec![events(&vals)],
            EngineKind::TdigestDistributed { compression: 50.0 },
            &mut tx,
            &shared,
        );
        match rx.try_recv().unwrap().unwrap() {
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
        let vals: Vec<i64> = (0..5000).collect();
        run_stepper(
            NodeId(0),
            vec![events(&vals)],
            EngineKind::KllDistributed { k: 128 },
            &mut tx,
            &shared,
        );
        match rx.try_recv().unwrap().unwrap() {
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
    fn responder_serves_candidates_and_gamma() {
        let (mut data_tx, mut data_rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(4);
        run_stepper(
            NodeId(2),
            vec![events(&[5, 1, 9, 3, 7, 2, 8, 4])],
            dema_engine(),
            &mut data_tx,
            &shared,
        );
        let serve = |msg: Message, to_root: &mut dyn MsgSender| {
            responder_step(NodeId(2), msg, to_root, &shared).unwrap()
        };
        let status = serve(Message::GammaUpdate { gamma: 16 }, &mut data_tx);
        assert_eq!(status, ResponderStatus::Continue);
        let status = serve(
            Message::CandidateRequest {
                window: WindowId(0),
                slices: vec![1],
            },
            &mut data_tx,
        );
        assert_eq!(status, ResponderStatus::Continue);

        let _syn = data_rx.try_recv().unwrap().unwrap();
        let _end = data_rx.try_recv().unwrap().unwrap();
        match data_rx.try_recv().unwrap().unwrap() {
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
        assert_eq!(shared.gamma.get(), 16);
        assert!(shared.store.borrow().is_empty(), "served window evicted");
    }

    #[test]
    fn candidate_reply_shares_the_stored_buffer() {
        // Zero-copy witness for the candidate-fetch hot path: the run inside
        // the responder's reply must be a view into the very allocation the
        // store holds (Arc::ptr_eq), not a copy of it.
        use dema_core::shared::SharedRun;
        let (mut data_tx, mut data_rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(4);
        run_stepper(
            NodeId(1),
            vec![events(&[5, 1, 9, 3, 7, 2, 8, 4])],
            dema_engine(),
            &mut data_tx,
            &shared,
        );
        // Capture the stored run before the responder evicts the window.
        let stored_run = shared.store.borrow()[&0][1].events.clone();
        let request = Message::CandidateRequest {
            window: WindowId(0),
            slices: vec![1],
        };
        responder_step(NodeId(1), request, &mut data_tx, &shared).unwrap();
        let _syn = data_rx.try_recv().unwrap().unwrap();
        let _end = data_rx.try_recv().unwrap().unwrap();
        match data_rx.try_recv().unwrap().unwrap() {
            Message::CandidateReply { slices, .. } => {
                assert!(
                    SharedRun::ptr_eq(&slices[0].1, &stored_run),
                    "reply run must share the stored window's allocation"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    /// The sent cache is filed after the duty returns — also when the
    /// uplink send failed — so a `ResendWindow` replays the very bytes the
    /// failed send carried, window and stream end alike.
    #[test]
    fn failed_send_is_still_filed_for_resend() {
        let (mut dead_tx, dead_rx) = link(NetworkCounters::new_shared());
        drop(dead_rx);
        let shared = LocalShared::resilient(4);
        let mut stepper = LocalStepper::new(
            NodeId(3),
            vec![events(&[5, 1, 9, 3, 7, 2, 8, 4])],
            dema_engine(),
            &shared,
        );
        assert!(stepper.step(&mut dead_tx).is_err(), "uplink is gone");
        assert!(matches!(
            shared.sent.borrow().get(&0),
            Some(Message::SynopsisBatch { .. })
        ));
        assert!(stepper.step(&mut dead_tx).is_err(), "uplink is gone");
        assert!(!stepper.is_done(), "an unsent StreamEnd is not done");
        assert!(matches!(
            shared.sent.borrow().get(&END_KEY),
            Some(Message::StreamEnd { .. })
        ));

        let (mut up_tx, mut up_rx) = link(NetworkCounters::new_shared());
        for key in [0, END_KEY] {
            let nack = Message::ResendWindow {
                window: WindowId(key),
                attempt: 1,
            };
            let status = responder_step(NodeId(3), nack, &mut up_tx, &shared).unwrap();
            assert_eq!(status, ResponderStatus::Continue);
            let cached = shared.sent.borrow()[&key].to_bytes();
            assert_eq!(up_rx.try_recv().unwrap().unwrap().to_bytes(), cached);
        }
    }

    #[test]
    fn store_is_bounded() {
        for shared in [LocalShared::new(2), LocalShared::resilient(2)] {
            let (mut tx, rx) = link(NetworkCounters::new_shared());
            let windows: Vec<Vec<Event>> = (0..100).map(|_| events(&[1, 2])).collect();
            run_stepper(NodeId(0), windows, dema_engine(), &mut tx, &shared);
            assert!(shared.store.borrow().len() <= STORE_WINDOW_CAP);
            let sent = shared.sent.borrow();
            assert!(sent.len() <= STORE_WINDOW_CAP);
            assert_eq!(
                sent.contains_key(&END_KEY),
                shared.retain_sent,
                "the stream-end slot survives on resilient runs"
            );
            drop(rx);
        }
    }

    #[test]
    fn empty_window_still_reports() {
        let (mut tx, mut rx) = link(NetworkCounters::new_shared());
        let shared = LocalShared::new(4);
        run_stepper(NodeId(0), vec![vec![]], dema_engine(), &mut tx, &shared);
        match rx.try_recv().unwrap().unwrap() {
            Message::SynopsisBatch { synopses, .. } => assert!(synopses.is_empty()),
            other => panic!("{other:?}"),
        }
    }
}
