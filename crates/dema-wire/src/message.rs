//! Protocol messages and their binary encoding.
//!
//! Each tag's layout is written once, as one row of the table in the
//! private `schema` module: the tag constant and byte, the [`Message`]
//! variant, and the variant's fields in wire order. Every field type
//! implements the private `Field` trait (`put`, `take`, `size`), and the
//! table generates [`TAGS`], [`Message::tag`], [`Message::variant_name`],
//! the encoder, [`Message::encoded_len`] and the decoder from the rows — so
//! `encoded_len` is, by construction, the tag byte plus the sizes of the
//! fields the encoder writes. Adding a tag is one variant plus one row.

use bytes::{Bytes, BytesMut};
use dema_core::event::{Event, NodeId, WindowId};
use dema_core::shared::SharedRun;
use dema_core::slice::{SliceId, SliceSynopsis};
use dema_sketch::tdigest::Centroid;

pub use schema::TAGS;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer ended before the message did.
    Truncated,
    /// Unknown message tag byte.
    BadTag(u8),
    /// A length field exceeds sanity limits (corruption guard).
    BadLength(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadLength(l) => write!(f, "implausible length field {l}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Hard cap on any element count in a decoded message; frames larger than
/// this indicate corruption, not workload.
const MAX_ELEMS: u64 = 1 << 28;

/// Every message of the Dema cluster protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Local → root (identification step): synopses of one closed local
    /// window.
    SynopsisBatch {
        /// Sender.
        node: NodeId,
        /// Window the synopses describe.
        window: WindowId,
        /// One synopsis per slice, ascending slice index.
        synopses: Vec<SliceSynopsis>,
    },
    /// Root → local (calculation step): request the events of these slices.
    CandidateRequest {
        /// Window being resolved.
        window: WindowId,
        /// Slice indices (within the receiver's slice sequence) to ship.
        slices: Vec<u32>,
    },
    /// Local → root (calculation step): the requested candidate events.
    ///
    /// The runs are [`SharedRun`] views: building a reply from the local
    /// store bumps refcounts, and cloning the message (e.g. into an
    /// in-memory transport) never copies events.
    CandidateReply {
        /// Sender.
        node: NodeId,
        /// Window being resolved.
        window: WindowId,
        /// `(slice index, sorted events)` per requested slice.
        slices: Vec<(u32, SharedRun)>,
    },
    /// Local → root: raw events of one window (the centralized and
    /// decentralized-sort baselines; `sorted` distinguishes them).
    EventBatch {
        /// Sender.
        node: NodeId,
        /// Window the events belong to.
        window: WindowId,
        /// `true` if the sender pre-sorted the batch (Desis-style).
        sorted: bool,
        /// The events.
        events: Vec<Event>,
    },
    /// Local → root: a t-digest of one window (distributed Tdigest mode).
    DigestBatch {
        /// Sender.
        node: NodeId,
        /// Window the digest summarizes.
        window: WindowId,
        /// Observations absorbed.
        count: u64,
        /// Digest compression δ.
        compression: f64,
        /// Digest centroids, ascending mean.
        centroids: Vec<Centroid>,
    },
    /// Root → local: γ for the next windows (adaptive slice factor).
    GammaUpdate {
        /// New slice factor.
        gamma: u64,
    },
    /// Root → observers: final aggregate of one global window.
    WindowResult {
        /// The window.
        window: WindowId,
        /// Quantile value.
        value: i64,
        /// Global window size `l_G`.
        total_events: u64,
    },
    /// Local → root: this node will send nothing further.
    StreamEnd {
        /// Sender.
        node: NodeId,
        /// Events this node dropped as late (behind its watermark).
        late_events: u64,
    },
    /// Local → root: a mergeable weighted-sample sketch of one window
    /// (distributed sketch engines, e.g. KLL). Items are `(value, weight)`
    /// pairs; weights sum to `count`.
    SketchBatch {
        /// Sender.
        node: NodeId,
        /// Window the sketch summarizes.
        window: WindowId,
        /// Observations absorbed.
        count: u64,
        /// Exact smallest observation (retained items may lose extremes).
        min: f64,
        /// Exact largest observation.
        max: f64,
        /// Weighted items, ascending value.
        items: Vec<(f64, u64)>,
    },
    /// Relay envelope (root → relay tiers): deliver `inner` to local
    /// `dest`. Relays whose children are leaves unwrap it; deeper relays
    /// forward it unchanged. Never nested.
    Routed {
        /// The local node the inner message is for.
        dest: NodeId,
        /// The wrapped control message.
        inner: Box<Message>,
    },
    /// Root → local (retry protocol): the root's deadline for this window's
    /// uplink message expired — resend it from the local's sent-cache.
    /// `attempt` is the retry epoch (sequence number), monotonically
    /// increasing per window so stale retransmissions are identifiable.
    ResendWindow {
        /// Window whose uplink message is missing at the root.
        window: WindowId,
        /// Retry epoch, starting at 1 for the first resend request.
        attempt: u32,
    },
    /// Root → local (retry protocol): re-request candidate slices after a
    /// lost [`Message::CandidateRequest`] or [`Message::CandidateReply`].
    /// Unlike the original request it carries an `attempt` epoch, and
    /// locals serve it idempotently from the retained store.
    CandidateRetry {
        /// Window being resolved.
        window: WindowId,
        /// Slice indices (within the receiver's slice sequence) to ship.
        slices: Vec<u32>,
        /// Retry epoch, starting at 1 for the first re-request.
        attempt: u32,
    },
    /// Local → root (membership protocol): this node wants to join the
    /// cluster effective at a window boundary — it will produce windows
    /// `>= window` and nothing earlier.
    JoinRequest {
        /// The joining node.
        node: NodeId,
        /// First window the joiner will report (the epoch boundary).
        window: WindowId,
    },
    /// Root → local (membership protocol): the join is staged; the root
    /// will expect the joiner's reports from `window` on and counts it as
    /// a member of `epoch`.
    JoinAccept {
        /// The accepted joiner.
        node: NodeId,
        /// Membership epoch the joiner becomes a member of.
        epoch: u64,
        /// First window the root expects from the joiner.
        window: WindowId,
        /// Slice factor the joiner must cut its first windows with.
        gamma: u64,
    },
    /// Local → root (membership protocol): this node is leaving — it has
    /// produced every window `< window` and will produce nothing later,
    /// but keeps its responder serving until the root confirms the drain.
    LeaveAnnounce {
        /// The leaving node.
        node: NodeId,
        /// First window the leaver will NOT report (the epoch boundary).
        window: WindowId,
    },
    /// Root → local (membership protocol): every window the leaver owed —
    /// including its `SentCache` replay obligations — is resolved; the
    /// node may shut down its responder and exit.
    DrainComplete {
        /// The drained node.
        node: NodeId,
        /// Membership epoch the node left at the start of.
        epoch: u64,
    },
    /// Root → locals (membership protocol): broadcast at a window
    /// boundary when staged joins/leaves take effect. Every window
    /// `>= window` is computed under `epoch`'s membership.
    EpochSwitch {
        /// The new membership epoch.
        epoch: u64,
        /// First window of the new epoch.
        window: WindowId,
        /// Nodes that became members at this boundary.
        joined: Vec<NodeId>,
        /// Nodes that ceased to be members at this boundary.
        left: Vec<NodeId>,
    },
}

/// Static metadata for one wire tag: the on-wire tag byte and the
/// [`Message`] variant name it decodes to. Consumed by the protocol
/// specification in `dema-model` and the spec-conformance lint rules, so
/// both always agree with the codec about which tags exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagInfo {
    /// The one-byte tag that starts every encoded message of this variant.
    pub tag: u8,
    /// The `Message` variant name, e.g. `"SynopsisBatch"`.
    pub name: &'static str,
}

/// Look up the metadata for a wire tag byte, if one is defined.
pub fn tag_info(tag: u8) -> Option<TagInfo> {
    TAGS.iter().copied().find(|t| t.tag == tag)
}

/// Look up the metadata for a [`Message`] variant name, if one is defined.
pub fn tag_by_name(name: &str) -> Option<TagInfo> {
    TAGS.iter().copied().find(|t| t.name == name)
}

impl Message {
    /// Encode into `buf`. The encoding is deterministic; `encoded_len`
    /// predicts the exact size.
    pub fn encode(&self, buf: &mut BytesMut) {
        buf.reserve(self.encoded_len());
        self.encode_impl(buf);
    }

    /// Encode into a caller-provided plain `Vec<u8>` (appending), e.g. a
    /// connection's reused outbound buffer. Produces exactly the same bytes
    /// as [`Message::encode`].
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(self.encoded_len());
        self.encode_impl(buf);
    }

    /// Encode into a fresh buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode one message from `buf`, which must contain exactly one
    /// encoded message (as produced by [`Message::encode`]).
    pub fn decode(mut buf: &[u8]) -> Result<Message, WireError> {
        let msg = schema::decode_inner(&mut buf, true)?;
        if !buf.is_empty() {
            return Err(WireError::BadLength(buf.len() as u64));
        }
        Ok(msg)
    }

    /// The paper's events-on-the-wire cost of this message: raw events carry
    /// themselves; a synopsis carries its two endpoint events; control
    /// messages are free. (Byte counts are tracked separately.)
    pub fn event_units(&self) -> u64 {
        match self {
            Message::SynopsisBatch { synopses, .. } => 2 * synopses.len() as u64,
            Message::CandidateReply { slices, .. } => {
                slices.iter().map(|(_, ev)| ev.len() as u64).sum()
            }
            Message::EventBatch { events, .. } => events.len() as u64,
            // A centroid is a compressed pair, not an event; count them like
            // synopsis endpoints for comparability.
            Message::DigestBatch { centroids, .. } => centroids.len() as u64,
            // Same accounting for weighted sketch items.
            Message::SketchBatch { items, .. } => items.len() as u64,
            // The envelope adds no events of its own.
            Message::Routed { inner, .. } => inner.event_units(),
            _ => 0,
        }
    }

    /// The `(sender, window)` key of a window-keyed data-plane message —
    /// the unit of per-node traffic attribution. Control traffic (stream
    /// ends, membership handshakes, retries, γ updates) carries no key:
    /// it reflects the fault and reconfiguration layers, not a node's
    /// contribution to a window.
    pub fn data_source(&self) -> Option<(NodeId, WindowId)> {
        match self {
            Message::SynopsisBatch { node, window, .. }
            | Message::CandidateReply { node, window, .. }
            | Message::EventBatch { node, window, .. }
            | Message::DigestBatch { node, window, .. }
            | Message::SketchBatch { node, window, .. } => Some((*node, *window)),
            Message::Routed { inner, .. } => inner.data_source(),
            _ => None,
        }
    }
}

/// Bytes per encoded event.
pub const EVENT_LEN: usize = 8 + 8 + 8;

/// Events per block of the strided batch codec: 64 events fill a 1536-byte
/// stack buffer — small enough to stay cache-hot, large enough that the
/// fill loop autovectorizes and the generic [`bytes::BufMut`] machinery is
/// paid once per block instead of three times per event.
const EVENT_BLOCK: usize = 64;

// hot-path: codec
/// The wire schema: the `Field` codec of every field type, the table with
/// one row per tag, and the decoder.
mod schema {
    use super::*;
    use bytes::BufMut;

    /// One field of a wire layout: how a value is written, read back and
    /// sized. Fixed-width integers are little-endian.
    trait Field: Sized {
        /// Fewest bytes an encoded value takes. A decoded count of values is
        /// validated against the bytes left before anything is allocated.
        /// (Not `MIN`: `u32::MIN` would name the integer's inherent 0.)
        const MIN_SIZE: usize;
        /// Every value takes exactly `MIN_SIZE` bytes, so a list of them is
        /// sized by one multiplication instead of a walk. A type that
        /// overrides `size` must set it to `false`.
        const FIXED: bool = true;
        /// Append the value's bytes.
        fn put<B: BufMut>(&self, buf: &mut B);
        /// Read a value off the front of `buf`.
        fn take(buf: &mut &[u8]) -> Result<Self, WireError>;
        /// Exactly the number of bytes `put` appends.
        fn size(&self) -> usize {
            Self::MIN_SIZE
        }
    }

    macro_rules! le_fields {
        ($($t:ty),*) => {$(
            impl Field for $t {
                const MIN_SIZE: usize = std::mem::size_of::<$t>();
                fn put<B: BufMut>(&self, buf: &mut B) {
                    buf.put_slice(&self.to_le_bytes());
                }
                fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
                    let (head, rest) = buf.split_first_chunk().ok_or(WireError::Truncated)?;
                    *buf = rest;
                    Ok(<$t>::from_le_bytes(*head))
                }
            }
        )*};
    }
    le_fields!(u8, u32, u64, i64, f64);

    macro_rules! newtype_fields {
        ($($t:ident($inner:ty)),*) => {$(
            impl Field for $t {
                const MIN_SIZE: usize = <$inner as Field>::MIN_SIZE;
                fn put<B: BufMut>(&self, buf: &mut B) {
                    self.0.put(buf);
                }
                fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
                    Ok($t(<$inner>::take(buf)?))
                }
            }
        )*};
    }
    newtype_fields!(NodeId(u32), WindowId(u64));

    impl Field for bool {
        const MIN_SIZE: usize = 1;
        fn put<B: BufMut>(&self, buf: &mut B) {
            u8::from(*self).put(buf);
        }
        fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(u8::take(buf)? != 0)
        }
    }

    impl<A: Field, B: Field> Field for (A, B) {
        const MIN_SIZE: usize = A::MIN_SIZE + B::MIN_SIZE;
        const FIXED: bool = A::FIXED && B::FIXED;
        fn put<M: BufMut>(&self, buf: &mut M) {
            self.0.put(buf);
            self.1.put(buf);
        }
        fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok((A::take(buf)?, B::take(buf)?))
        }
        fn size(&self) -> usize {
            self.0.size() + self.1.size()
        }
    }

    impl Field for Centroid {
        const MIN_SIZE: usize = 8 + 8;
        fn put<B: BufMut>(&self, buf: &mut B) {
            self.mean.put(buf);
            self.weight.put(buf);
        }
        fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(Centroid {
                mean: f64::take(buf)?,
                weight: u64::take(buf)?,
            })
        }
    }

    /// The 32-byte synopsis record. Its `node` and `window` travel once, in
    /// the batch header; `decode_inner` stamps them onto every record.
    impl Field for SliceSynopsis {
        const MIN_SIZE: usize = 4 + 8 + 8 + 8 + 4;
        fn put<B: BufMut>(&self, buf: &mut B) {
            self.id.index.put(buf);
            self.first.put(buf);
            self.last.put(buf);
            self.count.put(buf);
            self.total_slices.put(buf);
        }
        fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
            Ok(SliceSynopsis {
                id: SliceId {
                    node: NodeId(0),
                    window: WindowId(0),
                    index: u32::take(buf)?,
                },
                first: i64::take(buf)?,
                last: i64::take(buf)?,
                count: u64::take(buf)?,
                total_slices: u32::take(buf)?,
            })
        }
    }

    /// A `u32` count, then the elements.
    impl<T: Field> Field for Vec<T> {
        const MIN_SIZE: usize = 4;
        const FIXED: bool = false;
        fn put<B: BufMut>(&self, buf: &mut B) {
            buf.put_u32_le(self.len() as u32);
            for x in self {
                x.put(buf);
            }
        }
        fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
            let n = take_count(buf, T::MIN_SIZE)?;
            let mut out = Vec::with_capacity(n);
            for _ in 0..n {
                out.push(T::take(buf)?);
            }
            Ok(out)
        }
        fn size(&self) -> usize {
            4 + if T::FIXED {
                self.len() * T::MIN_SIZE
            } else {
                self.iter().map(T::size).sum()
            }
        }
    }

    /// Events go through the strided block codec, not per field.
    impl Field for Vec<Event> {
        const MIN_SIZE: usize = 4;
        const FIXED: bool = false;
        fn put<B: BufMut>(&self, buf: &mut B) {
            put_events(buf, self);
        }
        fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
            take_events(buf)
        }
        fn size(&self) -> usize {
            4 + self.len() * EVENT_LEN
        }
    }

    impl Field for SharedRun {
        const MIN_SIZE: usize = 4;
        const FIXED: bool = false;
        fn put<B: BufMut>(&self, buf: &mut B) {
            put_events(buf, self.as_ref());
        }
        fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
            take_events(buf).map(SharedRun::from_vec)
        }
        fn size(&self) -> usize {
            4 + self.len() * EVENT_LEN
        }
    }

    /// The `Routed` payload: a whole inner message, its tag included.
    impl Field for Box<Message> {
        const MIN_SIZE: usize = 1;
        const FIXED: bool = false;
        fn put<B: BufMut>(&self, buf: &mut B) {
            self.encode_impl(buf);
        }
        fn take(buf: &mut &[u8]) -> Result<Self, WireError> {
            let inner = decode_inner(buf, false)?;
            Ok(Box::new(inner)) // lint: allow(R15): Box is the Routed variant's representation; relay control path
        }
        fn size(&self) -> usize {
            self.encoded_len()
        }
    }

    /// The table: `TAG_CONST = byte => Variant { fields in wire order }`.
    /// Field types are the variant's own; every generated item below reads
    /// the same rows.
    macro_rules! wire_schema {
        ($($tag:ident = $byte:literal => $variant:ident { $($field:ident),* },)*) => {
            $(pub(super) const $tag: u8 = $byte;)*

            /// Every wire tag, ascending by tag byte: one entry per schema
            /// row, so one per [`Message`] variant.
            pub const TAGS: [TagInfo; [$($byte),*].len()] =
                [$(TagInfo { tag: $tag, name: stringify!($variant) }),*];

            impl Message {
                /// The wire tag byte this message encodes with — always the
                /// first byte of [`Message::encode`] output.
                pub fn tag(&self) -> u8 {
                    match self {
                        $(Message::$variant { .. } => $tag,)*
                    }
                }

                /// The variant name as recorded in [`TAGS`], e.g.
                /// `"SynopsisBatch"`.
                pub fn variant_name(&self) -> &'static str {
                    match self {
                        $(Message::$variant { .. } => stringify!($variant),)*
                    }
                }

                /// Exact size [`Message::encode`] will produce, in bytes: the
                /// tag byte plus the size of every field of the row.
                pub fn encoded_len(&self) -> usize {
                    match self {
                        $(Message::$variant { $($field),* } => 1 $(+ $field.size())*,)*
                    }
                }

                pub(super) fn encode_impl<B: BufMut>(&self, buf: &mut B) {
                    match self {
                        $(Message::$variant { $($field),* } => {
                            buf.put_u8($tag);
                            $($field.put(buf);)*
                        })*
                    }
                }

                /// Decode the fields that follow `tag`.
                fn take_fields(tag: u8, buf: &mut &[u8]) -> Result<Message, WireError> {
                    match tag {
                        $($tag => {
                            $(let $field = Field::take(buf)?;)*
                            Ok(Message::$variant { $($field),* })
                        })*
                        other => Err(WireError::BadTag(other)),
                    }
                }
            }
        };
    }

    wire_schema! {
        TAG_SYNOPSIS_BATCH = 1 => SynopsisBatch { node, window, synopses },
        TAG_CANDIDATE_REQUEST = 2 => CandidateRequest { window, slices },
        TAG_CANDIDATE_REPLY = 3 => CandidateReply { node, window, slices },
        TAG_EVENT_BATCH = 4 => EventBatch { node, window, sorted, events },
        TAG_DIGEST_BATCH = 5 => DigestBatch { node, window, count, compression, centroids },
        TAG_GAMMA_UPDATE = 6 => GammaUpdate { gamma },
        TAG_WINDOW_RESULT = 7 => WindowResult { window, value, total_events },
        TAG_STREAM_END = 8 => StreamEnd { node, late_events },
        TAG_SKETCH_BATCH = 9 => SketchBatch { node, window, count, min, max, items },
        TAG_ROUTED = 10 => Routed { dest, inner },
        TAG_RESEND_WINDOW = 11 => ResendWindow { window, attempt },
        TAG_CANDIDATE_RETRY = 12 => CandidateRetry { window, attempt, slices },
        TAG_JOIN_REQUEST = 13 => JoinRequest { node, window },
        TAG_JOIN_ACCEPT = 14 => JoinAccept { node, epoch, window, gamma },
        TAG_LEAVE_ANNOUNCE = 15 => LeaveAnnounce { node, window },
        TAG_DRAIN_COMPLETE = 16 => DrainComplete { node, epoch },
        TAG_EPOCH_SWITCH = 17 => EpochSwitch { epoch, window, joined, left },
    }

    pub(super) fn decode_inner(buf: &mut &[u8], allow_routed: bool) -> Result<Message, WireError> {
        let tag = u8::take(buf)?;
        // An envelope inside an envelope is corruption, not topology: relays
        // forward a routed frame unchanged, they never re-wrap it.
        if tag == TAG_ROUTED && !allow_routed {
            return Err(WireError::BadTag(tag));
        }
        let mut msg = Message::take_fields(tag, buf)?;
        if let Message::SynopsisBatch {
            node,
            window,
            synopses,
        } = &mut msg
        {
            for s in synopses {
                (s.id.node, s.id.window) = (*node, *window);
            }
        }
        Ok(msg)
    }

    /// Encode a `u32` event count, then the events in fixed-stride blocks.
    ///
    /// Byte-for-byte identical to encoding each event as
    /// `put_i64_le(value), put_u64_le(ts), put_u64_le(id)` — the layout is
    /// the same 24-byte little-endian record, only the write granularity
    /// changes (one `put_slice` per block). The frame-level golden test
    /// below pins the equivalence.
    fn put_events<B: BufMut>(buf: &mut B, events: &[Event]) {
        buf.put_u32_le(events.len() as u32);
        let mut block = [0u8; EVENT_BLOCK * EVENT_LEN];
        for chunk in events.chunks(EVENT_BLOCK) {
            for (rec, e) in block.chunks_exact_mut(EVENT_LEN).zip(chunk) {
                rec[..8].copy_from_slice(&e.value.to_le_bytes());
                rec[8..16].copy_from_slice(&e.ts.to_le_bytes());
                rec[16..24].copy_from_slice(&e.id.to_le_bytes());
            }
            buf.put_slice(&block[..chunk.len() * EVENT_LEN]);
        }
    }

    /// Decode a `u32` count and that many fixed-stride event records.
    ///
    /// Verifies the full `n · EVENT_LEN` bytes are present up front (any
    /// truncation inside the batch still fails, now before allocating),
    /// then strides through the raw records — no per-field bounds checks.
    fn take_events(buf: &mut &[u8]) -> Result<Vec<Event>, WireError> {
        let n = take_count(buf, EVENT_LEN)?;
        let (records, rest) = buf.split_at(n * EVENT_LEN);
        let mut events = Vec::with_capacity(n);
        let mut word = [0u8; 8];
        for rec in records.chunks_exact(EVENT_LEN) {
            word.copy_from_slice(&rec[..8]);
            let value = i64::from_le_bytes(word);
            word.copy_from_slice(&rec[8..16]);
            let ts = u64::from_le_bytes(word);
            word.copy_from_slice(&rec[16..24]);
            let id = u64::from_le_bytes(word);
            events.push(Event { value, ts, id });
        }
        *buf = rest;
        Ok(events)
    }

    /// Read a `u32` element count and validate it before anything is
    /// allocated: above [`MAX_ELEMS`] is corruption, and `n` elements of at
    /// least `min_size` bytes each must actually be left in `buf`. The
    /// output vector is then sized exactly once from the validated count,
    /// so decode loops never grow mid-flight (lint rule R15, `codec`
    /// region) and a lying count fails *before* allocating instead of after.
    fn take_count(buf: &mut &[u8], min_size: usize) -> Result<usize, WireError> {
        let n = u64::from(u32::take(buf)?);
        if n > MAX_ELEMS {
            return Err(WireError::BadLength(n));
        }
        let n = n as usize;
        let bytes = n
            .checked_mul(min_size)
            .ok_or(WireError::BadLength(n as u64))?;
        if buf.len() < bytes {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::schema::*;
    use super::*;
    use bytes::BufMut;

    fn roundtrip(msg: Message) {
        let bytes = msg.to_bytes();
        assert_eq!(
            bytes.len(),
            msg.encoded_len(),
            "encoded_len mismatch for {msg:?}"
        );
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, msg);
    }

    fn sample_events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| Event::new(i as i64 * 3 - 50, i * 7, i))
            .collect()
    }

    fn sample_run(n: u64) -> SharedRun {
        SharedRun::from_vec(sample_events(n))
    }

    /// Golden frame-level check: the strided block codec produces exactly
    /// the bytes the original per-field codec did. The reference encoder
    /// below is the retired implementation, kept verbatim.
    #[test]
    fn strided_event_codec_is_bit_identical_to_per_field_codec() {
        fn put_event_reference<B: BufMut>(buf: &mut B, e: &Event) {
            buf.put_i64_le(e.value);
            buf.put_u64_le(e.ts);
            buf.put_u64_le(e.id);
        }
        // 150 events: two full 64-event blocks plus a 22-event tail.
        let events = sample_events(150);
        let batch = Message::EventBatch {
            node: NodeId(3),
            window: WindowId(9),
            sorted: true,
            events: events.clone(),
        };
        let reply = Message::CandidateReply {
            node: NodeId(3),
            window: WindowId(9),
            slices: vec![
                (0, SharedRun::from_vec(events.clone())),
                (1, sample_run(1)),
                (2, sample_run(0)),
            ],
        };

        let mut expect = BytesMut::new();
        expect.put_u8(TAG_EVENT_BATCH);
        expect.put_u32_le(3);
        expect.put_u64_le(9);
        expect.put_u8(1);
        expect.put_u32_le(150);
        for e in &events {
            put_event_reference(&mut expect, e);
        }
        assert_eq!(batch.to_bytes(), expect.freeze());

        let mut expect = BytesMut::new();
        expect.put_u8(TAG_CANDIDATE_REPLY);
        expect.put_u32_le(3);
        expect.put_u64_le(9);
        expect.put_u32_le(3);
        for (idx, run) in [(0u32, &events[..]), (1, &sample_events(1)), (2, &[])] {
            expect.put_u32_le(idx);
            expect.put_u32_le(run.len() as u32);
            for e in run {
                put_event_reference(&mut expect, e);
            }
        }
        assert_eq!(reply.to_bytes(), expect.freeze());

        // And the strided decoder inverts it.
        roundtrip(batch);
        roundtrip(reply);
    }

    /// One instance of every `Message` variant, in `TAGS` order.
    fn sample_of_every_variant() -> Vec<Message> {
        vec![
            Message::SynopsisBatch {
                node: NodeId(1),
                window: WindowId(2),
                synopses: vec![SliceSynopsis {
                    id: SliceId {
                        node: NodeId(1),
                        window: WindowId(2),
                        index: 0,
                    },
                    first: -1,
                    last: 1,
                    count: 2,
                    total_slices: 1,
                }],
            },
            Message::CandidateRequest {
                window: WindowId(2),
                slices: vec![0],
            },
            Message::CandidateReply {
                node: NodeId(1),
                window: WindowId(2),
                slices: vec![(0, sample_run(2))],
            },
            Message::EventBatch {
                node: NodeId(1),
                window: WindowId(2),
                sorted: false,
                events: sample_events(2),
            },
            Message::DigestBatch {
                node: NodeId(1),
                window: WindowId(2),
                count: 2,
                compression: 100.0,
                centroids: vec![Centroid {
                    mean: 0.5,
                    weight: 2,
                }],
            },
            Message::GammaUpdate { gamma: 8 },
            Message::WindowResult {
                window: WindowId(2),
                value: 7,
                total_events: 2,
            },
            Message::StreamEnd {
                node: NodeId(1),
                late_events: 0,
            },
            Message::SketchBatch {
                node: NodeId(1),
                window: WindowId(2),
                count: 2,
                min: 0.0,
                max: 1.0,
                items: vec![(0.5, 2)],
            },
            Message::Routed {
                dest: NodeId(1),
                inner: Box::new(Message::GammaUpdate { gamma: 8 }),
            },
            Message::ResendWindow {
                window: WindowId(2),
                attempt: 1,
            },
            Message::CandidateRetry {
                window: WindowId(2),
                slices: vec![0],
                attempt: 1,
            },
            Message::JoinRequest {
                node: NodeId(1),
                window: WindowId(2),
            },
            Message::JoinAccept {
                node: NodeId(1),
                epoch: 1,
                window: WindowId(2),
                gamma: 8,
            },
            Message::LeaveAnnounce {
                node: NodeId(1),
                window: WindowId(2),
            },
            Message::DrainComplete {
                node: NodeId(1),
                epoch: 1,
            },
            Message::EpochSwitch {
                epoch: 1,
                window: WindowId(2),
                joined: vec![NodeId(1)],
                left: vec![NodeId(3)],
            },
        ]
    }

    #[test]
    fn tags_cover_every_variant() {
        let samples = sample_of_every_variant();
        assert_eq!(samples.len(), TAGS.len(), "one sample per TAGS entry");
        for (sample, info) in samples.iter().zip(TAGS.iter()) {
            assert_eq!(sample.tag(), info.tag, "TAGS order for {}", info.name);
            assert_eq!(sample.variant_name(), info.name);
            // The tag byte is the first byte on the wire.
            assert_eq!(sample.to_bytes()[0], info.tag, "{}", info.name);
            // The debug name of the variant matches the TAGS name.
            let debug = format!("{sample:?}");
            assert!(
                debug.starts_with(info.name),
                "{debug} should start with {}",
                info.name
            );
        }
    }

    #[test]
    fn tag_lookup_is_consistent() {
        for info in TAGS {
            assert_eq!(tag_info(info.tag), Some(info));
            assert_eq!(tag_by_name(info.name), Some(info));
        }
        assert_eq!(tag_info(0), None);
        assert_eq!(tag_info(200), None);
        assert_eq!(tag_by_name("NoSuchVariant"), None);
        // Tag bytes and names are unique.
        let mut tags: Vec<u8> = TAGS.iter().map(|t| t.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), TAGS.len());
    }

    #[test]
    fn roundtrip_synopsis_batch() {
        let node = NodeId(3);
        let window = WindowId(9);
        roundtrip(Message::SynopsisBatch {
            node,
            window,
            synopses: (0..5)
                .map(|i| SliceSynopsis {
                    id: SliceId {
                        node,
                        window,
                        index: i,
                    },
                    first: -100 + i as i64,
                    last: i as i64 * 10,
                    count: 150,
                    total_slices: 5,
                })
                .collect(),
        });
        roundtrip(Message::SynopsisBatch {
            node,
            window,
            synopses: vec![],
        });
    }

    #[test]
    fn roundtrip_candidate_request() {
        roundtrip(Message::CandidateRequest {
            window: WindowId(1),
            slices: vec![0, 7, 42],
        });
        roundtrip(Message::CandidateRequest {
            window: WindowId(u64::MAX),
            slices: vec![],
        });
    }

    #[test]
    fn roundtrip_candidate_reply() {
        roundtrip(Message::CandidateReply {
            node: NodeId(1),
            window: WindowId(2),
            slices: vec![
                (0, sample_run(10)),
                (3, SharedRun::empty()),
                (4, sample_run(1)),
            ],
        });
    }

    #[test]
    fn roundtrip_event_batch() {
        roundtrip(Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: true,
            events: sample_events(100),
        });
        roundtrip(Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: false,
            events: vec![],
        });
    }

    #[test]
    fn roundtrip_digest_batch() {
        roundtrip(Message::DigestBatch {
            node: NodeId(2),
            window: WindowId(5),
            count: 1000,
            compression: 100.0,
            centroids: vec![
                Centroid {
                    mean: -5.5,
                    weight: 10,
                },
                Centroid {
                    mean: 0.0,
                    weight: 980,
                },
                Centroid {
                    mean: 99.25,
                    weight: 10,
                },
            ],
        });
    }

    #[test]
    fn roundtrip_control_messages() {
        roundtrip(Message::GammaUpdate { gamma: 10_000 });
        roundtrip(Message::WindowResult {
            window: WindowId(7),
            value: -42,
            total_events: 1_000_000,
        });
        roundtrip(Message::StreamEnd {
            node: NodeId(99),
            late_events: 12345,
        });
    }

    #[test]
    fn roundtrip_sketch_batch() {
        roundtrip(Message::SketchBatch {
            node: NodeId(4),
            window: WindowId(11),
            count: 1000,
            min: -3.5,
            max: 999.0,
            items: vec![(-3.5, 1), (0.25, 16), (999.0, 4)],
        });
        roundtrip(Message::SketchBatch {
            node: NodeId(0),
            window: WindowId(0),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            items: vec![],
        });
    }

    #[test]
    fn roundtrip_retry_messages() {
        roundtrip(Message::ResendWindow {
            window: WindowId(12),
            attempt: 1,
        });
        roundtrip(Message::ResendWindow {
            window: WindowId(u64::MAX),
            attempt: u32::MAX,
        });
        roundtrip(Message::CandidateRetry {
            window: WindowId(3),
            slices: vec![0, 5, 9],
            attempt: 2,
        });
        roundtrip(Message::CandidateRetry {
            window: WindowId(0),
            slices: vec![],
            attempt: 1,
        });
    }

    #[test]
    fn roundtrip_membership_messages() {
        roundtrip(Message::JoinRequest {
            node: NodeId(7),
            window: WindowId(3),
        });
        roundtrip(Message::JoinAccept {
            node: NodeId(7),
            epoch: 2,
            window: WindowId(3),
            gamma: 16,
        });
        roundtrip(Message::LeaveAnnounce {
            node: NodeId(2),
            window: WindowId(5),
        });
        roundtrip(Message::DrainComplete {
            node: NodeId(2),
            epoch: 3,
        });
        roundtrip(Message::EpochSwitch {
            epoch: 3,
            window: WindowId(5),
            joined: vec![NodeId(4), NodeId(5)],
            left: vec![NodeId(2)],
        });
        roundtrip(Message::EpochSwitch {
            epoch: u64::MAX,
            window: WindowId(u64::MAX),
            joined: vec![],
            left: vec![],
        });
    }

    #[test]
    fn membership_messages_are_free_control_traffic() {
        // Reconfiguration traffic shows up in byte counters but never in
        // the paper's events-on-the-wire cost model — like the retry
        // messages above.
        let switch = Message::EpochSwitch {
            epoch: 1,
            window: WindowId(4),
            joined: vec![NodeId(4)],
            left: vec![NodeId(0)],
        };
        assert_eq!(switch.event_units(), 0);
        assert_eq!(switch.encoded_len(), 1 + 8 + 8 + 4 + 4 + 4 + 4);
        let join = Message::JoinRequest {
            node: NodeId(4),
            window: WindowId(4),
        };
        assert_eq!(join.event_units(), 0);
        assert_eq!(join.encoded_len(), 13);
        // Membership control routes through relay envelopes unchanged.
        roundtrip(Message::Routed {
            dest: NodeId(4),
            inner: Box::new(switch),
        });
        roundtrip(Message::Routed {
            dest: NodeId(4),
            inner: Box::new(Message::DrainComplete {
                node: NodeId(4),
                epoch: 2,
            }),
        });
    }

    #[test]
    fn retry_messages_are_free_control_traffic() {
        // Retry traffic must show up in byte counters but never in the
        // paper's events-on-the-wire cost model.
        let resend = Message::ResendWindow {
            window: WindowId(1),
            attempt: 1,
        };
        let retry = Message::CandidateRetry {
            window: WindowId(1),
            slices: vec![1, 2, 3],
            attempt: 1,
        };
        assert_eq!(resend.event_units(), 0);
        assert_eq!(retry.event_units(), 0);
        assert_eq!(resend.encoded_len(), 13);
        assert_eq!(retry.encoded_len(), 17 + 12);
    }

    #[test]
    fn retry_messages_route_through_envelopes() {
        roundtrip(Message::Routed {
            dest: NodeId(4),
            inner: Box::new(Message::ResendWindow {
                window: WindowId(2),
                attempt: 3,
            }),
        });
        roundtrip(Message::Routed {
            dest: NodeId(9),
            inner: Box::new(Message::CandidateRetry {
                window: WindowId(2),
                slices: vec![7],
                attempt: 1,
            }),
        });
    }

    #[test]
    fn roundtrip_routed_envelope() {
        roundtrip(Message::Routed {
            dest: NodeId(7),
            inner: Box::new(Message::CandidateRequest {
                window: WindowId(3),
                slices: vec![1, 4],
            }),
        });
        roundtrip(Message::Routed {
            dest: NodeId(0),
            inner: Box::new(Message::GammaUpdate { gamma: 128 }),
        });
    }

    #[test]
    fn routed_envelope_costs_five_bytes_and_no_events() {
        let inner = Message::GammaUpdate { gamma: 9 };
        let routed = Message::Routed {
            dest: NodeId(1),
            inner: Box::new(inner.clone()),
        };
        assert_eq!(routed.encoded_len(), inner.encoded_len() + 5);
        assert_eq!(routed.event_units(), inner.event_units());
    }

    #[test]
    fn nested_routed_envelope_is_rejected() {
        let nested = Message::Routed {
            dest: NodeId(1),
            inner: Box::new(Message::Routed {
                dest: NodeId(2),
                inner: Box::new(Message::GammaUpdate { gamma: 3 }),
            }),
        };
        let bytes = nested.to_bytes();
        assert!(matches!(Message::decode(&bytes), Err(WireError::BadTag(_))));
    }

    #[test]
    fn extreme_values_roundtrip() {
        roundtrip(Message::EventBatch {
            node: NodeId(u32::MAX),
            window: WindowId(u64::MAX),
            sorted: false,
            events: vec![
                Event::new(i64::MIN, u64::MAX, u64::MAX),
                Event::new(i64::MAX, 0, 0),
            ],
        });
    }

    #[test]
    fn decode_rejects_bad_tag() {
        assert_eq!(Message::decode(&[0xFF]), Err(WireError::BadTag(0xFF)));
    }

    #[test]
    fn decode_rejects_truncation_at_every_point() {
        let reply = Message::CandidateReply {
            node: NodeId(1),
            window: WindowId(2),
            slices: vec![(0, sample_run(3))],
        };
        for msg in sample_of_every_variant().into_iter().chain([reply]) {
            // `roundtrip` also pins `encoded_len() == to_bytes().len()`.
            roundtrip(msg.clone());
            let bytes = msg.to_bytes();
            for cut in 0..bytes.len() {
                let err = Message::decode(&bytes[..cut]).unwrap_err();
                assert!(
                    matches!(err, WireError::Truncated | WireError::BadLength(_)),
                    "{} cut at {cut}: {err:?}",
                    msg.variant_name()
                );
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = Message::GammaUpdate { gamma: 5 }.to_bytes().to_vec();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn decode_rejects_implausible_count() {
        let mut buf = BytesMut::new();
        buf.put_u8(4); // EventBatch
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf.put_u8(0);
        buf.put_u32_le(u32::MAX); // absurd event count
        assert!(matches!(
            Message::decode(&buf),
            Err(WireError::BadLength(_))
        ));
    }

    #[test]
    fn lying_counts_fail_before_allocating() {
        // A count that passes the MAX_ELEMS sanity check but promises more
        // records than the frame carries must be rejected by the up-front
        // length validation — the old capped-capacity decode loops grew
        // until they hit the truncation mid-loop.
        let lying = 1_000_000u32; // < MAX_ELEMS, >> remaining bytes
        for (tag, prefix) in [
            (TAG_SYNOPSIS_BATCH, &[4, 8][..]),        // node, window
            (TAG_CANDIDATE_REQUEST, &[8][..]),        // window
            (TAG_CANDIDATE_REPLY, &[4, 8][..]),       // node, window
            (TAG_DIGEST_BATCH, &[4, 8, 8, 8][..]),    // node, window, count, δ
            (TAG_SKETCH_BATCH, &[4, 8, 8, 8, 8][..]), // node, window, count, min, max
        ] {
            let mut buf = BytesMut::new();
            buf.put_u8(tag);
            for width in prefix {
                match width {
                    4 => buf.put_u32_le(1),
                    _ => buf.put_u64_le(1),
                }
            }
            buf.put_u32_le(lying);
            assert_eq!(
                Message::decode(&buf),
                Err(WireError::Truncated),
                "tag {tag}"
            );
        }
        // EpochSwitch: both the joined and the left list count.
        for lie_in_left in [false, true] {
            let mut buf = BytesMut::new();
            buf.put_u8(TAG_EPOCH_SWITCH);
            buf.put_u64_le(1); // epoch
            buf.put_u64_le(1); // window
            if lie_in_left {
                buf.put_u32_le(1); // joined count
                buf.put_u32_le(7); // joined[0]
                buf.put_u32_le(lying);
            } else {
                buf.put_u32_le(lying);
            }
            assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
        }
        // CandidateRetry carries its count after the attempt epoch.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_CANDIDATE_RETRY);
        buf.put_u64_le(1); // window
        buf.put_u32_le(1); // attempt
        buf.put_u32_le(lying);
        assert_eq!(Message::decode(&buf), Err(WireError::Truncated));
    }

    #[test]
    fn event_units_follow_paper_cost_model() {
        let node = NodeId(0);
        let window = WindowId(0);
        let syn = Message::SynopsisBatch {
            node,
            window,
            synopses: vec![
                SliceSynopsis {
                    id: SliceId {
                        node,
                        window,
                        index: 0
                    },
                    first: 0,
                    last: 1,
                    count: 10,
                    total_slices: 2,
                };
                4
            ],
        };
        assert_eq!(syn.event_units(), 8); // 2 per synopsis
        let batch = Message::EventBatch {
            node,
            window,
            sorted: false,
            events: sample_events(7),
        };
        assert_eq!(batch.event_units(), 7);
        let reply = Message::CandidateReply {
            node,
            window,
            slices: vec![(0, sample_run(4)), (1, sample_run(6))],
        };
        assert_eq!(reply.event_units(), 10);
        assert_eq!(Message::GammaUpdate { gamma: 2 }.event_units(), 0);
    }

    #[test]
    fn encode_into_vec_matches_bytesmut_encoding() {
        let msgs = [
            Message::CandidateReply {
                node: NodeId(1),
                window: WindowId(2),
                slices: vec![(0, sample_run(10)), (3, SharedRun::empty())],
            },
            Message::EventBatch {
                node: NodeId(0),
                window: WindowId(9),
                sorted: true,
                events: sample_events(50),
            },
            Message::GammaUpdate { gamma: 77 },
        ];
        for msg in msgs {
            let mut reference = BytesMut::new();
            msg.encode(&mut reference);
            let mut pooled = vec![0xAAu8; 3]; // pre-existing content is appended to
            msg.encode_into(&mut pooled);
            assert_eq!(&pooled[..3], &[0xAA; 3]);
            assert_eq!(
                &pooled[3..],
                &reference[..],
                "byte-for-byte identical encodings"
            );
        }
    }

    #[test]
    fn synopsis_batch_is_tiny_compared_to_event_batch() {
        // The point of Dema: 1000 events ≈ 24 KB raw, but one synopsis ≈ 32 B.
        let node = NodeId(0);
        let window = WindowId(0);
        let events = Message::EventBatch {
            node,
            window,
            sorted: false,
            events: sample_events(1000),
        };
        let synopses = Message::SynopsisBatch {
            node,
            window,
            synopses: vec![SliceSynopsis {
                id: SliceId {
                    node,
                    window,
                    index: 0,
                },
                first: 0,
                last: 999,
                count: 1000,
                total_slices: 1,
            }],
        };
        assert!(synopses.encoded_len() * 100 < events.encoded_len());
    }
}
