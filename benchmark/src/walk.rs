//! The layer walk: one thread pushes windows through the public entry points
//! of every layer in protocol order, timing each step from outside.
//!
//! Per window, inside a `window` span:
//! `LocalStepper::step` on every leaf into a capturing sender → the captured
//! synopsis messages over the workload's transport → `RootNode::handle` →
//! the root's captured `CandidateRequest`s over the transport →
//! `responder_step` → the replies over the transport → `RootNode::handle`
//! until the window's outcome appears.
//!
//! The cluster and transport calls hide the kernels they run, so after each
//! window, inside a `replay` span that is not part of the window's time, the
//! walk calls the `dema-core` kernels (and, on TCP, the frame codec) on the
//! same data. `Layers::from_spans` subtracts the replayed time from the
//! span that ran the same kernel out of sight.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dema_cluster::local::{new_close_times, responder_step, LocalShared, LocalStepper};
use dema_cluster::root::RootNode;
use dema_cluster::TransportKind;
use dema_core::event::{Event, NodeId, WindowId};
use dema_core::merge::select_kth;
use dema_core::par::sort_events_with;
use dema_core::quantile::Quantile;
use dema_core::selector::{select, SelectionStrategy};
use dema_core::slice::{cut_into_slices, Slice, SliceSynopsis};
use dema_metrics::NetworkCounters;
use dema_net::tcp::{accept, listen, TcpSender};
use dema_net::{MsgReceiver, MsgSender, NetError, SharedCounters};
use dema_wire::frame::encode_frame_into;
use dema_wire::Message;

use crate::spec::{Workload, THREADS};
use crate::trace::{Recorder, Span};

/// How long one message may take to cross a loopback link.
const LINK_TIMEOUT: Duration = Duration::from_secs(5);

/// One unidirectional link of the workload's transport.
struct Lane {
    tx: Box<dyn MsgSender>,
    rx: Box<dyn MsgReceiver>,
}

impl Lane {
    /// Wired as `dema-cluster`'s runner wires its links: a mem channel, or a
    /// nonblocking loopback TCP pair.
    fn open(kind: TransportKind, counters: &SharedCounters) -> Result<Lane, String> {
        let counters = SharedCounters::clone(counters);
        match kind {
            TransportKind::Tcp => {
                let err = |e: NetError| format!("loopback link: {e}");
                let listener = listen(([127, 0, 0, 1], 0).into()).map_err(err)?;
                let addr = listener.local_addr().map_err(|e| format!("loopback link: {e}"))?;
                let tx = TcpSender::connect_timeout(addr, counters, LINK_TIMEOUT).map_err(err)?;
                let rx = accept(&listener).map_err(err)?;
                Ok(Lane {
                    tx: Box::new(tx.into_nonblocking().map_err(err)?),
                    rx: Box::new(rx.into_nonblocking().map_err(err)?),
                })
            }
            _ => {
                let (tx, rx) = dema_net::link(counters);
                Ok(Lane { tx: Box::new(tx), rx: Box::new(rx) })
            }
        }
    }

    fn send(&mut self, msg: &Message) -> Result<(), String> {
        self.tx.send(msg).map_err(|e| format!("send: {e}"))?;
        let deadline = Instant::now() + LINK_TIMEOUT;
        while !self.tx.flush_pending().map_err(|e| format!("send: {e}"))? {
            if Instant::now() > deadline {
                return Err("send: socket stayed full".into());
            }
            std::hint::spin_loop();
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Message, String> {
        let deadline = Instant::now() + LINK_TIMEOUT;
        loop {
            if let Some(msg) = self.rx.try_recv().map_err(|e| format!("recv: {e}"))? {
                return Ok(msg);
            }
            if Instant::now() > deadline {
                return Err("recv: message never arrived".into());
            }
            std::hint::spin_loop();
        }
    }
}

/// Records what a layer sends instead of sending it, tagged with the leaf
/// the link belongs to.
struct Capture {
    leaf: usize,
    out: mpsc::Sender<(usize, Message)>,
}

impl MsgSender for Capture {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        self.out.send((self.leaf, msg.clone())).map_err(|_| NetError::Disconnected)
    }
}

/// What the layers handed to their capturing senders, on its way over the
/// workload's links. The buffers are reused across windows so the walk's own
/// allocations stay out of the spans.
struct Wires {
    captured: mpsc::Receiver<(usize, Message)>,
    batch: Vec<(usize, Message)>,
    arrived: Vec<(usize, Message)>,
    /// Every message of the current window as it arrived, kept for the codec
    /// replay (TCP only: mem links never encode).
    window_msgs: Vec<Message>,
    keep_msgs: bool,
}

impl Wires {
    /// Send everything captured since the last call over `lanes[leaf]` and
    /// receive it on the other side into `arrived`.
    fn carry<R: Recorder>(
        &mut self,
        rec: &mut R,
        w: u32,
        parent: u32,
        lanes: &mut [Lane],
    ) -> Result<(), String> {
        self.batch.clear();
        self.batch.extend(self.captured.try_iter());
        let calls = self.batch.len() as u32;
        let s = rec.open("net.send", w, Some(parent));
        for (leaf, msg) in &self.batch {
            lanes[*leaf].send(msg)?;
        }
        rec.close(s, calls);
        self.arrived.clear();
        let s = rec.open("net.recv", w, Some(parent));
        for (leaf, _) in &self.batch {
            self.arrived.push((*leaf, lanes[*leaf].recv()?));
        }
        rec.close(s, calls);
        if self.keep_msgs {
            self.window_msgs.extend(self.arrived.iter().map(|(_, m)| m.clone()));
        }
        Ok(())
    }
}

/// What one pass over the windows produced.
pub struct WalkPass {
    /// Wall time of each window's protocol steps (the `window` span's
    /// interval, timed the same way whether or not spans are recorded).
    pub window_ns: Vec<u64>,
    /// The root's answer per window.
    pub values: Vec<Option<i64>>,
    /// The replayed kernels' answer per window.
    pub replay_values: Vec<i64>,
    /// Bytes on the synopsis uplinks (stream ends included), the candidate
    /// reply uplinks and the control downlinks, over the whole pass.
    pub ident_bytes: u64,
    pub calc_bytes: u64,
    pub control_bytes: u64,
}

/// Walk `inputs[leaf][window]` through the layers, reporting spans to `rec`.
pub fn walk<R: Recorder>(wl: &Workload, inputs: &[Vec<Vec<Event>>], rec: &mut R) -> Result<WalkPass, String> {
    let windows = inputs[0].len();
    let engine = wl.config(None).engine;
    let err = |e: dema_cluster::ClusterError| e.to_string();

    let ident = NetworkCounters::new_shared();
    let calc = NetworkCounters::new_shared();
    let control = NetworkCounters::new_shared();
    let mut data_lanes = Vec::with_capacity(wl.leaves);
    let mut reply_lanes = Vec::with_capacity(wl.leaves);
    let mut control_lanes = Vec::with_capacity(wl.leaves);
    for _ in 0..wl.leaves {
        data_lanes.push(Lane::open(wl.transport, &ident)?);
        reply_lanes.push(Lane::open(wl.transport, &calc)?);
        control_lanes.push(Lane::open(wl.transport, &control)?);
    }

    let (captured_tx, captured) = mpsc::channel::<(usize, Message)>();
    let capture = |leaf| Capture { leaf, out: captured_tx.clone() };
    let shareds: Vec<Arc<LocalShared>> =
        (0..wl.leaves).map(|_| LocalShared::configured(wl.gamma, false, THREADS)).collect();
    let mut steppers: Vec<LocalStepper<'_>> = inputs
        .iter()
        .zip(&shareds)
        .enumerate()
        .map(|(n, (leaf, shared))| LocalStepper::new(NodeId(n as u32), leaf.clone(), engine, shared))
        .collect();
    let mut leaf_out: Vec<Capture> = (0..wl.leaves).map(capture).collect();
    let root_control: Vec<Box<dyn MsgSender>> =
        (0..wl.leaves).map(|n| Box::new(capture(n)) as Box<dyn MsgSender>).collect();
    let mut root =
        RootNode::new(Quantile::MEDIAN, engine, wl.leaves, windows as u64, root_control, new_close_times());

    let mut pass = WalkPass {
        window_ns: Vec::with_capacity(windows),
        values: Vec::new(),
        replay_values: Vec::with_capacity(windows),
        ident_bytes: 0,
        calc_bytes: 0,
        control_bytes: 0,
    };
    let mut wires = Wires {
        captured,
        batch: Vec::with_capacity(wl.leaves),
        arrived: Vec::with_capacity(wl.leaves),
        window_msgs: Vec::new(),
        keep_msgs: wl.transport == TransportKind::Tcp,
    };
    let mut frames: Vec<Vec<u8>> = Vec::new();

    for w in 0..windows {
        let wid = w as u32;
        let started = Instant::now();
        let win = rec.open("window", wid, None);

        let s = rec.open("cluster.local_step", wid, Some(win));
        for (stepper, out) in steppers.iter_mut().zip(&mut leaf_out) {
            stepper.step(out).map_err(err)?;
        }
        rec.close(s, wl.leaves as u32);
        wires.carry(rec, wid, win, &mut data_lanes)?;

        let s = rec.open("cluster.root_ident", wid, Some(win));
        let calls = wires.arrived.len();
        for (_, msg) in wires.arrived.drain(..) {
            root.handle(msg).map_err(err)?;
        }
        rec.close(s, calls as u32);
        wires.carry(rec, wid, win, &mut control_lanes)?;

        let s = rec.open("cluster.responder", wid, Some(win));
        let calls = wires.arrived.len();
        for (leaf, request) in wires.arrived.drain(..) {
            responder_step(NodeId(leaf as u32), request, &mut leaf_out[leaf], &shareds[leaf]).map_err(err)?;
        }
        rec.close(s, calls as u32);
        wires.carry(rec, wid, win, &mut reply_lanes)?;

        let s = rec.open("cluster.root_calc", wid, Some(win));
        let calls = wires.arrived.len();
        for (_, msg) in wires.arrived.drain(..) {
            root.handle(msg).map_err(err)?;
        }
        rec.close(s, calls as u32);

        rec.close(win, 1);
        pass.window_ns.push(started.elapsed().as_nanos() as u64);
        if root.completed_windows() != w as u64 + 1 {
            return Err(format!("window {w} did not resolve in one round trip"));
        }

        let value = replay(wl, inputs, w, rec, &wires.window_msgs, &mut frames)?;
        pass.replay_values.push(value);
        wires.window_msgs.clear();
    }

    // Stream ends: part of the run's wire bytes, so part of the walk's.
    for (stepper, out) in steppers.iter_mut().zip(&mut leaf_out) {
        stepper.step(out).map_err(err)?;
    }
    for (leaf, msg) in wires.captured.try_iter() {
        data_lanes[leaf].send(&msg)?;
        root.handle(data_lanes[leaf].recv()?).map_err(err)?;
    }
    if !root.finished() {
        return Err("root did not finish after every stream end".into());
    }
    pass.values = root.into_results().0.into_iter().map(|o| o.value).collect();
    pass.ident_bytes = ident.snapshot().bytes;
    pass.calc_bytes = calc.snapshot().bytes;
    pass.control_bytes = control.snapshot().bytes;
    Ok(pass)
}

/// Call the kernels the cluster spans ran out of sight, on the same data:
/// sort and slice every leaf's window, order the synopses and run the
/// window-cut, select the rank among the candidate runs; on TCP also encode
/// and decode every message of the window. Returns the kernels' answer.
fn replay<R: Recorder>(
    wl: &Workload,
    inputs: &[Vec<Vec<Event>>],
    w: usize,
    rec: &mut R,
    window_msgs: &[Message],
    frames: &mut Vec<Vec<u8>>,
) -> Result<i64, String> {
    let wid = w as u32;
    let err = |e: dema_core::DemaError| e.to_string();
    let mut unsorted: Vec<Vec<Event>> = inputs.iter().map(|leaf| leaf[w].clone()).collect();
    let root_span = rec.open("replay", wid, None);

    let s = rec.open("core.sort", wid, Some(root_span));
    for events in &mut unsorted {
        sort_events_with(events, THREADS);
    }
    rec.close(s, wl.leaves as u32);

    let s = rec.open("core.slice", wid, Some(root_span));
    let mut slices: Vec<Vec<Slice>> = Vec::with_capacity(wl.leaves);
    let mut synopses: Vec<SliceSynopsis> = Vec::new();
    for (n, events) in unsorted.into_iter().enumerate() {
        let cut = cut_into_slices(NodeId(n as u32), WindowId(w as u64), events, wl.gamma).map_err(err)?;
        for slice in &cut {
            synopses.push(slice.synopsis(cut.len() as u32).map_err(err)?);
        }
        slices.push(cut);
    }
    rec.close(s, wl.leaves as u32);

    let s = rec.open("core.select", wid, Some(root_span));
    synopses.sort_unstable_by_key(|s| (s.first, s.last, s.id));
    let rank = Quantile::MEDIAN.pos(wl.global_events()).map_err(err)?;
    let selection = select(&synopses, rank, SelectionStrategy::WindowCut).map_err(err)?;
    rec.close(s, 1);

    let runs: Vec<_> = selection
        .candidates
        .iter()
        .map(|id| slices[id.node.0 as usize][id.index as usize].events.clone())
        .collect();
    let s = rec.open("core.merge", wid, Some(root_span));
    let event = select_kth(&runs, selection.rank_within_candidates()).map_err(err)?;
    rec.close(s, 1);

    if !window_msgs.is_empty() {
        frames.resize_with(window_msgs.len(), Vec::new);
        let s = rec.open("wire.encode", wid, Some(root_span));
        for (msg, frame) in window_msgs.iter().zip(frames.iter_mut()) {
            frame.clear();
            encode_frame_into(msg, frame);
        }
        rec.close(s, window_msgs.len() as u32);
        let s = rec.open("wire.decode", wid, Some(root_span));
        for frame in frames.iter() {
            let msg = Message::decode(&frame[4..]).map_err(|e| format!("decode: {e}"))?;
            std::hint::black_box(msg);
        }
        rec.close(s, window_msgs.len() as u32);
    }
    rec.close(root_span, 1);
    Ok(event.value)
}

/// Per-window time of every layer in µs, from one traced pass. Time a
/// cluster or transport span spent in a kernel the replay timed is the
/// kernel's, not the span's.
#[derive(Default, Clone)]
pub struct Layers {
    pub sort: f64,
    pub slice: f64,
    pub select: f64,
    pub merge: f64,
    pub encode: f64,
    pub decode: f64,
    pub send: f64,
    pub recv: f64,
    pub local_step: f64,
    pub root_ident: f64,
    pub responder: f64,
    pub root_calc: f64,
    /// The `window` span.
    pub walk: f64,
    /// The `window` span's self time: the walk's own bookkeeping.
    pub glue: f64,
}

impl Layers {
    /// One `Layers` per window of the recording.
    pub fn from_spans(spans: &[Span], windows: usize) -> Vec<Layers> {
        let selfs = crate::trace::self_times_ns(spans);
        let mut raw = vec![Layers::default(); windows];
        for (span, self_ns) in spans.iter().zip(selfs) {
            let l = &mut raw[span.window as usize];
            let us = span.duration_ns() as f64 / 1e3;
            match span.name {
                "core.sort" => l.sort += us,
                "core.slice" => l.slice += us,
                "core.select" => l.select += us,
                "core.merge" => l.merge += us,
                "wire.encode" => l.encode += us,
                "wire.decode" => l.decode += us,
                "net.send" => l.send += us,
                "net.recv" => l.recv += us,
                "cluster.local_step" => l.local_step += us,
                "cluster.root_ident" => l.root_ident += us,
                "cluster.responder" => l.responder += us,
                "cluster.root_calc" => l.root_calc += us,
                "window" => {
                    l.walk += us;
                    l.glue += self_ns as f64 / 1e3;
                }
                _ => {}
            }
        }
        for l in &mut raw {
            l.local_step = (l.local_step - l.sort - l.slice).max(0.0);
            l.root_ident = (l.root_ident - l.select).max(0.0);
            l.root_calc = (l.root_calc - l.merge).max(0.0);
            l.send = (l.send - l.encode).max(0.0);
            l.recv = (l.recv - l.decode).max(0.0);
        }
        raw
    }

    /// Sum of the layers' self times; equals `walk` when the replayed
    /// kernels took as long as they did inside the cluster calls.
    pub fn self_sum(&self) -> f64 {
        self.sort
            + self.slice
            + self.select
            + self.merge
            + self.encode
            + self.decode
            + self.send
            + self.recv
            + self.local_step
            + self.root_ident
            + self.responder
            + self.root_calc
            + self.glue
    }
}

/// Spans one pass records: eleven per window walk, up to seven per replay.
pub fn spans_per_pass(windows: usize) -> usize {
    windows * 18
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NoSpans, Spans};

    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            why: "",
            leaves: 3,
            events_per_leaf: 40,
            gamma: 8,
            transport: TransportKind::Mem,
            period_ms: 1,
        }
    }

    #[test]
    fn walk_answers_match_the_oracle_and_bytes_add_up() {
        for transport in [TransportKind::Mem, TransportKind::Tcp] {
            let wl = Workload { transport, ..tiny() };
            let inputs = crate::child::generate(&wl, 3, 5);
            let oracle = crate::child::oracle(&inputs);
            let mut rec = Spans::with_capacity(spans_per_pass(5));
            let pass = walk(&wl, &inputs, &mut rec).unwrap();
            assert_eq!(pass.values, oracle.iter().map(|v| Some(*v)).collect::<Vec<_>>());
            assert_eq!(pass.replay_values, oracle);

            // The walk puts on its links exactly the bytes a cluster run
            // reports, split by round.
            let report = dema_cluster::run_cluster(&wl.config(None), inputs.clone()).unwrap();
            let total = report.total_traffic().bytes;
            assert_eq!(pass.ident_bytes + pass.calc_bytes + pass.control_bytes, total);
            assert_eq!(pass.control_bytes, report.control_traffic.bytes);

            let spans = rec.into_spans();
            let layers = Layers::from_spans(&spans, 5);
            for l in &layers {
                assert!(l.walk > 0.0 && l.self_sum() > 0.0);
                assert_eq!(l.encode > 0.0, transport == TransportKind::Tcp);
                assert_eq!(l.decode > 0.0, transport == TransportKind::Tcp);
            }

            // Recording compiled out walks the same protocol.
            let quiet = walk(&wl, &inputs, &mut NoSpans).unwrap();
            assert_eq!(quiet.values, pass.values);
            assert_eq!(quiet.ident_bytes, pass.ident_bytes);
        }
    }
}
