//! TCP transport: real sockets, length-prefixed frames, same accounting as
//! the in-memory links.
//!
//! One `TcpStream` carries one unidirectional message flow (the cluster
//! wires two streams per node pair). `TCP_NODELAY` is set — the protocol is
//! request/response-ish per window, so Nagle would serialize the
//! identification/calculation round trips.
//!
//! A link is set up blocking ([`TcpSender::connect_timeout`], [`accept`])
//! and switched to nonblocking with `into_nonblocking` before it carries a
//! frame; only the nonblocking halves send or receive. [`NbTcpSender`]
//! appends each frame to the connection's reused outbound buffer
//! ([`encode_frame_into`]) and writes as much as the socket takes;
//! [`NbTcpReceiver`] parses frames off its inbound buffer
//! ([`decode_frame`]).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use dema_wire::frame::{decode_frame, encode_frame_into};
use dema_wire::Message;

use crate::{MsgReceiver, MsgSender, NetError, SharedCounters};

/// `true` for the I/O error kinds that mean "the peer is gone" rather than
/// a transient or environmental failure.
fn is_disconnect(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
    )
}

/// The sending end of a connected link, not yet nonblocking.
pub struct TcpSender {
    stream: TcpStream,
    counters: SharedCounters,
}

/// The receiving end of an accepted link, not yet nonblocking.
pub struct TcpReceiver {
    stream: TcpStream,
}

impl TcpSender {
    /// Connect to a listening peer, failing after `timeout` instead of
    /// hanging on an unresponsive address. The resulting I/O error (timed
    /// out, refused, unreachable…) is surfaced as [`NetError::Io`].
    pub fn connect_timeout(
        addr: SocketAddr,
        counters: SharedCounters,
        timeout: Duration,
    ) -> Result<TcpSender, NetError> {
        let stream = TcpStream::connect_timeout(&addr, timeout).map_err(NetError::Io)?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        Ok(TcpSender { stream, counters })
    }

    /// Convert into the reactor-friendly nonblocking sender.
    pub fn into_nonblocking(self) -> Result<NbTcpSender, NetError> {
        self.stream.set_nonblocking(true).map_err(NetError::Io)?;
        Ok(NbTcpSender {
            stream: self.stream,
            pending: Vec::new(),
            flushed: 0,
            counters: self.counters,
        })
    }
}

/// Nonblocking TCP sender for reactor hosting. A `send` frames the message
/// into a per-connection outbound buffer and writes as much as the socket
/// accepts; on `WouldBlock` the remainder stays buffered and
/// [`MsgSender::flush_pending`] retries it when the reactor reports the
/// socket writable again. Byte accounting happens at frame time, so
/// counters are independent of how the kernel slices the writes.
pub struct NbTcpSender {
    stream: TcpStream,
    /// Framed-but-unwritten bytes; `flushed` marks how far the socket got.
    pending: Vec<u8>,
    flushed: usize,
    counters: SharedCounters,
}

impl NbTcpSender {
    /// Bytes buffered and not yet accepted by the socket.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len() - self.flushed
    }
}

impl MsgSender for NbTcpSender {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let before = self.pending.len();
        encode_frame_into(msg, &mut self.pending);
        self.counters
            .record((self.pending.len() - before) as u64, msg.event_units());
        self.flush_pending().map(|_| ())
    }

    fn flush_pending(&mut self) -> Result<bool, NetError> {
        while self.flushed < self.pending.len() {
            match self.stream.write(&self.pending[self.flushed..]) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.flushed += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if is_disconnect(e.kind()) => return Err(NetError::Disconnected),
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        self.pending.clear();
        self.flushed = 0;
        Ok(true)
    }
}

impl TcpReceiver {
    /// Wrap an accepted stream.
    pub fn from_stream(stream: TcpStream) -> Result<TcpReceiver, NetError> {
        stream.set_nodelay(true).map_err(NetError::Io)?;
        Ok(TcpReceiver { stream })
    }

    /// Convert into the reactor-friendly nonblocking receiver.
    pub fn into_nonblocking(self) -> Result<NbTcpReceiver, NetError> {
        self.stream.set_nonblocking(true).map_err(NetError::Io)?;
        Ok(NbTcpReceiver {
            stream: self.stream,
            buf: Vec::new(),
            start: 0,
            closed: false,
        })
    }
}

/// Nonblocking TCP receiver for reactor hosting: an incremental frame
/// parser over a nonblocking socket. Each poll reads whatever the socket
/// has, returning one decoded message at a time; partial frames stay
/// buffered across polls.
pub struct NbTcpReceiver {
    stream: TcpStream,
    /// Raw bytes read but not yet parsed; `start` is the parse offset.
    buf: Vec<u8>,
    start: usize,
    closed: bool,
}

impl NbTcpReceiver {
    /// Parse one frame out of the buffer, if a complete one is there.
    fn take_frame(&mut self) -> Result<Option<Message>, NetError> {
        let Some((msg, used)) =
            decode_frame(&self.buf[self.start..]).map_err(|e| NetError::Corrupt(e.to_string()))?
        else {
            return Ok(None);
        };
        self.start += used;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(msg))
    }
}

impl MsgReceiver for NbTcpReceiver {
    /// Poll for one message without blocking. `Ok(None)` when no complete
    /// frame is available yet; [`NetError::Disconnected`] once the peer
    /// has closed cleanly between frames (EOF mid-frame is corruption).
    fn try_recv(&mut self) -> Result<Option<Message>, NetError> {
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(Some(msg));
            }
            if self.closed {
                return if self.start < self.buf.len() {
                    Err(NetError::Corrupt("stream ended mid-frame".to_string()))
                } else {
                    Err(NetError::Disconnected)
                };
            }
            // Compact before growing so the buffer stays bounded by the
            // largest in-flight frame, not the connection's history.
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => self.closed = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(e.kind()) => self.closed = true,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

/// Bind a listener on `addr` (use port 0 for an ephemeral port).
pub fn listen(addr: SocketAddr) -> Result<TcpListener, NetError> {
    TcpListener::bind(addr).map_err(NetError::Io)
}

/// Accept one inbound link.
pub fn accept(listener: &TcpListener) -> Result<TcpReceiver, NetError> {
    let (stream, _) = listener.accept().map_err(NetError::Io)?;
    TcpReceiver::from_stream(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dema_core::event::{Event, NodeId, WindowId};
    use dema_metrics::NetworkCounters;

    /// A connected loopback link, both halves nonblocking.
    fn loopback_pair() -> (NbTcpSender, NbTcpReceiver, SharedCounters) {
        let listener = listen("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = NetworkCounters::new_shared();
        let tx = TcpSender::connect_timeout(
            addr,
            SharedCounters::clone(&counters),
            Duration::from_secs(5),
        )
        .unwrap();
        let rx = accept(&listener).unwrap();
        (
            tx.into_nonblocking().unwrap(),
            rx.into_nonblocking().unwrap(),
            counters,
        )
    }

    /// Poll until a message arrives.
    fn next(rx: &mut NbTcpReceiver) -> Message {
        loop {
            if let Some(m) = rx.try_recv().unwrap() {
                return m;
            }
            std::thread::yield_now();
        }
    }

    fn msg(n: u64) -> Message {
        Message::EventBatch {
            node: NodeId(1),
            window: WindowId(2),
            sorted: true,
            events: (0..n).map(|i| Event::new(i as i64 - 5, i, i)).collect(),
        }
    }

    #[test]
    fn roundtrip_over_loopback() {
        let (mut tx, mut rx, counters) = loopback_pair();
        assert!(rx.try_recv().unwrap().is_none(), "nothing sent yet");
        let m = msg(50);
        tx.send(&m).unwrap();
        assert_eq!(next(&mut rx), m);
        let s = counters.snapshot();
        assert_eq!(s.bytes, m.encoded_len() as u64 + 4);
        assert_eq!(s.events, 50);
    }

    #[test]
    fn many_messages_in_order() {
        let (mut tx, mut rx, _) = loopback_pair();
        let h = std::thread::spawn(move || {
            for i in 0..500 {
                tx.send(&Message::GammaUpdate { gamma: i }).unwrap();
                while !tx.flush_pending().unwrap() {
                    std::thread::yield_now();
                }
            }
        });
        for i in 0..500 {
            assert_eq!(next(&mut rx), Message::GammaUpdate { gamma: i });
        }
        h.join().unwrap();
    }

    #[test]
    fn connect_timeout_connects_and_surfaces_refusal() {
        // Happy path: a listener is up, the bounded connect succeeds.
        let (mut tx, mut rx, _) = loopback_pair();
        tx.send(&Message::GammaUpdate { gamma: 3 }).unwrap();
        assert_eq!(next(&mut rx), Message::GammaUpdate { gamma: 3 });

        // Nothing listening: the error comes back as a real NetError::Io
        // instead of a hang or a panic.
        let listener = listen("127.0.0.1:0".parse().unwrap()).unwrap();
        let dead = listener.local_addr().unwrap();
        drop(listener);
        let err = TcpSender::connect_timeout(
            dead,
            NetworkCounters::new_shared(),
            Duration::from_millis(500),
        );
        assert!(matches!(err, Err(NetError::Io(_))));
    }

    #[test]
    fn nonblocking_sender_buffers_on_full_socket_and_drains() {
        // Fill the loopback socket until a write would block: the sender
        // must buffer the remainder instead of erroring, then finish the
        // job via flush_pending as the reader drains.
        let (mut tx, mut rx, _) = loopback_pair();
        let big = msg(20_000);
        let mut sent = 0u64;
        while tx.pending_bytes() == 0 && sent < 256 {
            tx.send(&big).unwrap();
            sent += 1;
        }
        assert!(tx.pending_bytes() > 0, "socket never filled");
        assert!(!tx.flush_pending().unwrap(), "still pending while unread");
        let mut got = 0u64;
        while got < sent {
            let _ = tx.flush_pending().unwrap();
            match rx.try_recv().unwrap() {
                Some(m) => {
                    assert_eq!(m, big);
                    got += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        assert!(tx.flush_pending().unwrap(), "fully drained");
        assert_eq!(tx.pending_bytes(), 0);
    }

    #[test]
    fn peer_close_is_disconnect() {
        // Frames the peer sent before closing are delivered first; only
        // then does the receiver report the close.
        let (mut tx, mut rx, _) = loopback_pair();
        tx.send(&Message::GammaUpdate { gamma: 1 }).unwrap();
        tx.send(&msg(10)).unwrap();
        assert!(tx.flush_pending().unwrap());
        drop(tx);
        assert_eq!(next(&mut rx), Message::GammaUpdate { gamma: 1 });
        assert_eq!(next(&mut rx), msg(10));
        loop {
            match rx.try_recv() {
                Ok(Some(m)) => panic!("unexpected {m:?}"),
                Ok(None) => std::thread::yield_now(),
                Err(NetError::Disconnected) => break,
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn nonblocking_peer_close_is_disconnect() {
        let (tx, mut rx, _) = loopback_pair();
        drop(tx);
        loop {
            match rx.try_recv() {
                Ok(Some(_)) => panic!("nothing was sent"),
                Ok(None) => std::thread::yield_now(),
                Err(NetError::Disconnected) => break,
                Err(e) => panic!("{e}"),
            }
        }
    }
}
