//! Poll-based reactor: one event loop hosting many protocol state
//! machines (DESIGN.md §13).
//!
//! The vendored dependency set has no `epoll`/`kqueue` shim, so readiness
//! is *level-triggered polling*: every registered [`Source`] (an
//! in-process channel, a scheduler-visible step queue, or a nonblocking
//! TCP parser) exposes a cheap non-blocking poll, and the loop sweeps
//! them round-robin, draining each before moving on. Between sweeps the
//! loop backs off exactly like the threaded runner's drive loop did
//! (yield briefly, then sleep a few µs, bounded by the next timer
//! deadline), so idle reactors cost near-nothing while busy ones run
//! syscall-free on in-memory links.
//!
//! Deadlines are a binary-heap timer wheel: handlers arm one-shot timers
//! ([`Ops::arm_timer`]) and receive [`ReactorEvent::Timer`] when they
//! come due. Timers are never cancelled — a stale fire is delivered and
//! the handler re-checks its own state, which keeps the heap free of
//! tombstone bookkeeping (the retry `Supervisor` re-derives its real
//! deadlines on every tick anyway).
//!
//! Event delivery order within one sweep is deterministic: due timers in
//! deadline order, then each source in registration order (drained
//! fully), then writability retries, then wakes — so a single-shard
//! reactor is a sequential, reproducible schedule over its handlers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dema_metrics::ReactorStats;
use dema_wire::Message;

use crate::step::StepQueue;
use crate::tcp::NbTcpReceiver;
use crate::{MsgReceiver, NetError};

/// What a [`Source`] poll produced.
#[derive(Debug)]
pub enum Polled {
    /// One message, ready now.
    Msg(Message),
    /// Nothing available; poll again later.
    Empty,
    /// The peer is gone; the source will never produce again.
    Closed,
}

/// A non-blocking message producer the reactor can sweep.
pub trait Source {
    /// Poll once without blocking.
    ///
    /// # Errors
    /// Transport failures other than orderly shutdown (which is
    /// [`Polled::Closed`]).
    fn poll(&mut self) -> Result<Polled, NetError>;
}

/// Adapter: any [`MsgReceiver`] whose `try_recv` is genuinely
/// non-blocking (the mem and throttled links) is a reactor source.
/// Blocking-backed receivers (TCP) should convert to [`NbTcpReceiver`]
/// instead — their `try_recv` burns a timed wait per poll.
pub struct RecvSource(pub Box<dyn MsgReceiver>);

impl Source for RecvSource {
    fn poll(&mut self) -> Result<Polled, NetError> {
        match self.0.try_recv() {
            Ok(Some(msg)) => Ok(Polled::Msg(msg)),
            Ok(None) => Ok(Polled::Empty),
            Err(NetError::Disconnected) => Ok(Polled::Closed),
            Err(e) => Err(e),
        }
    }
}

impl Source for StepQueue {
    /// A step queue never disconnects — exhaustion is just [`Polled::Empty`].
    fn poll(&mut self) -> Result<Polled, NetError> {
        Ok(self.pop().map_or(Polled::Empty, Polled::Msg))
    }
}

impl Source for NbTcpReceiver {
    fn poll(&mut self) -> Result<Polled, NetError> {
        match self.poll_msg() {
            Ok(Some(msg)) => Ok(Polled::Msg(msg)),
            Ok(None) => Ok(Polled::Empty),
            Err(NetError::Disconnected) => Ok(Polled::Closed),
            Err(e) => Err(e),
        }
    }
}

/// An event delivered to a registered handler.
#[derive(Debug)]
pub enum ReactorEvent {
    /// A message arrived on the handler's link `link`.
    Readable {
        /// Handler-local link id (chosen at registration).
        link: usize,
        /// The decoded message.
        msg: Message,
    },
    /// Link `link` closed; no further `Readable` events will follow.
    Closed {
        /// Handler-local link id.
        link: usize,
    },
    /// A sender the handler flagged via [`Ops::watch_writable`] may have
    /// socket space again — retry its pending bytes.
    Writable {
        /// Handler-local link id.
        link: usize,
    },
    /// A timer armed via [`Ops::arm_timer`] came due.
    Timer {
        /// The token the handler armed the timer with.
        token: u64,
    },
    /// Self-scheduled continuation (requested via [`Ops::wake`]), also
    /// delivered once to every handler when the loop starts.
    Wake,
}

/// Effects a handler requests while processing an event; applied by the
/// reactor after the handler returns.
#[derive(Default)]
pub struct Ops {
    timers: Vec<(Instant, u64)>,
    writable: Vec<usize>,
    wake: bool,
}

impl Ops {
    /// Arm a one-shot timer for the calling handler: a
    /// [`ReactorEvent::Timer`] with `token` fires at (or shortly after)
    /// `at`.
    pub fn arm_timer(&mut self, at: Instant, token: u64) {
        self.timers.push((at, token));
    }

    /// Ask for a [`ReactorEvent::Writable`] for `link` on the next sweep
    /// (a sender reported pending bytes after `WouldBlock`).
    pub fn watch_writable(&mut self, link: usize) {
        self.writable.push(link);
    }

    /// Ask for a [`ReactorEvent::Wake`] on the next sweep — the handler
    /// has more self-driven work (e.g. the next window to close) but
    /// yields the loop for fairness.
    pub fn wake(&mut self) {
        self.wake = true;
    }

    fn clear(&mut self) {
        self.timers.clear();
        self.writable.clear();
        self.wake = false;
    }
}

/// A protocol state machine hosted on the reactor.
pub trait Handler<E> {
    /// React to one event, optionally requesting follow-ups via `ops`.
    ///
    /// # Errors
    /// A fatal error aborts the whole reactor loop; handlers that should
    /// outlive a peer failure must absorb it and report `done` instead.
    fn on_event(&mut self, ev: ReactorEvent, ops: &mut Ops) -> Result<(), E>;

    /// An I/O error on one of the handler's sources (corruption or a
    /// transport fault other than orderly close).
    ///
    /// # Errors
    /// Same contract as [`Handler::on_event`].
    fn on_io_error(&mut self, link: usize, err: NetError) -> Result<(), E>;

    /// `true` once the handler needs no further events. The loop exits
    /// when every handler is done.
    ///
    /// The loop asks on every sweep (and before each timer, writability or
    /// wake delivery), and hosts typically ask again after every event, so
    /// this must be O(1): keep a count beside the state rather than scanning
    /// it.
    fn done(&self) -> bool;
}

struct SourceEntry {
    handler: usize,
    link: usize,
    src: Box<dyn Source>,
    open: bool,
}

/// The event loop: registered sources, a timer heap, and per-sweep
/// bookkeeping. One reactor runs one thread (a *shard*); a cluster run
/// hosts one reactor per configured shard plus one for the root.
pub struct Reactor {
    sources: Vec<SourceEntry>,
    /// Min-heap on (deadline, sequence); the sequence makes equal
    /// deadlines FIFO and the ordering total.
    timers: BinaryHeap<Reverse<(Instant, u64, usize, u64)>>,
    timer_seq: u64,
    stats: Arc<ReactorStats>,
    /// Sweeps with zero events before the loop starts sleeping.
    spin_sweeps: u32,
}

/// Spin this many empty sweeps (yielding) before sleeping, mirroring the
/// threaded runner's drive-loop backoff.
const SPIN_SWEEPS: u32 = 64;

/// Idle nap once spinning gives up; short enough that a burst wakes the
/// loop with negligible latency, long enough to not busy a core.
const IDLE_NAP: Duration = Duration::from_micros(20);

impl Reactor {
    /// An empty reactor recording loop behavior into `stats`.
    pub fn new(stats: Arc<ReactorStats>) -> Reactor {
        Reactor {
            sources: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            stats,
            spin_sweeps: SPIN_SWEEPS,
        }
    }

    /// Register `src` as handler `handler`'s link `link`. Sources are
    /// swept in registration order.
    pub fn register(&mut self, handler: usize, link: usize, src: Box<dyn Source>) {
        self.sources.push(SourceEntry {
            handler,
            link,
            src,
            open: true,
        });
    }

    fn push_timer(&mut self, handler: usize, at: Instant, token: u64) {
        self.timer_seq += 1;
        self.timers
            .push(Reverse((at, self.timer_seq, handler, token)));
    }

    /// Apply the effects a handler requested.
    fn absorb_ops(
        &mut self,
        handler: usize,
        ops: &mut Ops,
        wakes: &mut Vec<usize>,
        writables: &mut Vec<(usize, usize)>,
    ) {
        for (at, token) in ops.timers.drain(..) {
            self.push_timer(handler, at, token);
        }
        if ops.wake {
            wakes.push(handler);
        }
        for link in ops.writable.drain(..) {
            writables.push((handler, link));
        }
        ops.clear();
    }

    /// Drive every handler to completion.
    ///
    /// Each sweep delivers, in order: due timers (deadline order), then
    /// every open source's pending messages (registration order, each
    /// source drained fully — the protocol is bursty, so draining
    /// amortizes sweeps), then writability retries, then wakes requested
    /// by the previous sweep. The loop exits when all handlers report
    /// done.
    ///
    /// # Errors
    /// The first handler error aborts the loop and is returned.
    pub fn run<E>(&mut self, handlers: &mut [&mut dyn Handler<E>]) -> Result<(), E> {
        let mut ops = Ops::default();
        let mut wakes: Vec<usize> = (0..handlers.len()).collect();
        let mut writables: Vec<(usize, usize)> = Vec::new();
        let mut due_timers: Vec<(Instant, usize, u64)> = Vec::new();
        // Next-sweep carry buffers, hoisted out of the sweep loop: the
        // end-of-sweep swap hands each sweep the (drained, capacity-warm)
        // vectors of the previous one, so the steady-state dispatch loop
        // performs no allocator round-trips.
        let mut next_wakes: Vec<usize> = Vec::new();
        let mut next_writables: Vec<(usize, usize)> = Vec::new();
        let mut idle_sweeps = 0u32;
        // hot-path: reactor-dispatch
        loop {
            let mut events = 0u64;
            let mut timer_events = 0u64;

            // Due timers, in deadline order. The due set is snapshotted
            // before dispatch: a handler that arms an already-due timer
            // from inside its callback (e.g. a deadline derived from a
            // quiescence instant in the past) fires next sweep, after the
            // sources — otherwise the drain loop re-admits it and the
            // sweep never reaches the source polls (timer starvation).
            let now = Instant::now();
            while let Some(&Reverse((due, ..))) = self.timers.peek() {
                if due > now {
                    break;
                }
                let Some(Reverse((due, _, handler, token))) = self.timers.pop() else {
                    break;
                };
                due_timers.push((due, handler, token));
            }
            for (due, handler, token) in due_timers.drain(..) {
                self.stats
                    .record_timer_lag(now.saturating_duration_since(due).as_micros() as u64);
                events += 1;
                timer_events += 1;
                if handlers[handler].done() {
                    continue;
                }
                handlers[handler].on_event(ReactorEvent::Timer { token }, &mut ops)?;
                self.absorb_ops(handler, &mut ops, &mut next_wakes, &mut next_writables);
            }

            // Sources, in registration order, each drained fully.
            for i in 0..self.sources.len() {
                while self.sources[i].open {
                    let (handler, link) = (self.sources[i].handler, self.sources[i].link);
                    match self.sources[i].src.poll() {
                        Ok(Polled::Msg(msg)) => {
                            events += 1;
                            handlers[handler]
                                .on_event(ReactorEvent::Readable { link, msg }, &mut ops)?;
                        }
                        Ok(Polled::Empty) => break,
                        Ok(Polled::Closed) => {
                            self.sources[i].open = false;
                            events += 1;
                            handlers[handler].on_event(ReactorEvent::Closed { link }, &mut ops)?;
                        }
                        Err(e) => {
                            self.sources[i].open = false;
                            events += 1;
                            handlers[handler].on_io_error(link, e)?;
                        }
                    }
                    self.absorb_ops(handler, &mut ops, &mut next_wakes, &mut next_writables);
                }
            }

            // Writability retries and wakes carried over from last sweep.
            for (handler, link) in writables.drain(..) {
                if handlers[handler].done() {
                    continue;
                }
                events += 1;
                handlers[handler].on_event(ReactorEvent::Writable { link }, &mut ops)?;
                self.absorb_ops(handler, &mut ops, &mut next_wakes, &mut next_writables);
            }
            for handler in wakes.drain(..) {
                if handlers[handler].done() {
                    continue;
                }
                events += 1;
                handlers[handler].on_event(ReactorEvent::Wake, &mut ops)?;
                self.absorb_ops(handler, &mut ops, &mut next_wakes, &mut next_writables);
            }
            std::mem::swap(&mut wakes, &mut next_wakes);
            std::mem::swap(&mut writables, &mut next_writables);

            self.stats.record_tick(events, timer_events);
            if handlers.iter().all(|h| h.done()) {
                return Ok(());
            }

            if events > 0 || !wakes.is_empty() || !writables.is_empty() {
                idle_sweeps = 0;
                continue;
            }
            // Idle: spin briefly for latency, then nap — never past the
            // next timer deadline.
            idle_sweeps += 1;
            if idle_sweeps <= self.spin_sweeps {
                std::thread::yield_now();
            } else {
                let nap = self.timers.peek().map_or(IDLE_NAP, |&Reverse((due, ..))| {
                    due.saturating_duration_since(Instant::now()).min(IDLE_NAP)
                });
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
    }
}

/// Spawn a named OS thread hosting one reactor shard. Thread creation for
/// the cluster's node hosting lives here — the reactor runtime is the
/// sanctioned thread owner; ad-hoc spawns in the cluster crates stay
/// forbidden (lint R9).
///
/// # Errors
/// Propagates the OS thread-creation failure.
pub fn spawn_shard<T, F>(name: String, f: F) -> std::io::Result<std::thread::JoinHandle<T>>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new().name(name).spawn(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::link;
    use crate::MsgSender;
    use dema_metrics::NetworkCounters;

    /// Collects everything it sees; done after `quota` events.
    struct Probe {
        seen: Vec<String>,
        quota: usize,
    }

    impl Handler<NetError> for Probe {
        fn on_event(&mut self, ev: ReactorEvent, ops: &mut Ops) -> Result<(), NetError> {
            match ev {
                ReactorEvent::Readable { link, msg } => {
                    self.seen.push(format!("r{link}:{}", msg.variant_name()));
                }
                ReactorEvent::Closed { link } => self.seen.push(format!("c{link}")),
                ReactorEvent::Writable { link } => self.seen.push(format!("w{link}")),
                ReactorEvent::Timer { token } => self.seen.push(format!("t{token}")),
                ReactorEvent::Wake => {
                    self.seen.push("wake".to_string());
                    if self.seen.len() < 2 {
                        ops.wake();
                    }
                }
            }
            Ok(())
        }

        fn on_io_error(&mut self, link: usize, err: NetError) -> Result<(), NetError> {
            self.seen.push(format!("e{link}:{err}"));
            Ok(())
        }

        fn done(&self) -> bool {
            self.seen.len() >= self.quota
        }
    }

    #[test]
    fn delivers_messages_then_close() {
        let (mut tx, rx) = link(NetworkCounters::new_shared());
        tx.send(&Message::GammaUpdate { gamma: 1 }).unwrap();
        tx.send(&Message::GammaUpdate { gamma: 2 }).unwrap();
        drop(tx);
        let mut reactor = Reactor::new(ReactorStats::new_shared());
        reactor.register(0, 7, Box::new(RecvSource(Box::new(rx))));
        let mut probe = Probe {
            seen: Vec::new(),
            quota: 4,
        };
        reactor.run::<NetError>(&mut [&mut probe]).unwrap();
        // Both messages (the source is drained in one sweep), the close,
        // then the loop-start wake (wakes land after sources in a sweep).
        assert_eq!(
            probe.seen,
            vec!["r7:GammaUpdate", "r7:GammaUpdate", "c7", "wake"]
        );
    }

    #[test]
    fn timers_fire_in_deadline_order_with_lag_recorded() {
        let stats = ReactorStats::new_shared();
        let mut reactor = Reactor::new(Arc::clone(&stats));
        let mut probe = Probe {
            seen: Vec::new(),
            quota: 4,
        };
        let now = Instant::now();
        reactor.push_timer(0, now + Duration::from_millis(12), 2);
        reactor.push_timer(0, now + Duration::from_millis(4), 1);
        reactor.push_timer(0, now, 0);
        reactor.run::<NetError>(&mut [&mut probe]).unwrap();
        assert_eq!(probe.seen, vec!["t0", "wake", "t1", "t2"]);
        let snap = stats.snapshot();
        assert_eq!(snap.timers, 3);
        assert!(snap.ticks > 0);
    }

    #[test]
    fn wake_reschedules_once_per_sweep() {
        let mut reactor = Reactor::new(ReactorStats::new_shared());
        let mut probe = Probe {
            seen: Vec::new(),
            quota: 2,
        };
        reactor.run::<NetError>(&mut [&mut probe]).unwrap();
        assert_eq!(probe.seen, vec!["wake", "wake"]);
    }

    #[test]
    fn step_queue_is_a_source_without_disconnect() {
        let (tx, q) = crate::step::step_link(NetworkCounters::new_shared());
        let mut tx = tx;
        tx.send(&Message::GammaUpdate { gamma: 9 }).unwrap();
        let mut q = q;
        assert!(matches!(q.poll(), Ok(Polled::Msg(_))));
        assert!(matches!(q.poll(), Ok(Polled::Empty)));
        drop(tx);
        // Still just Empty: step links have no disconnect signal.
        assert!(matches!(q.poll(), Ok(Polled::Empty)));
    }
}
