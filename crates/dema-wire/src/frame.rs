//! Length-prefixed framing over byte streams.
//!
//! Each frame is a little-endian `u32` payload length followed by exactly
//! one encoded [`Message`]. Used by the TCP transport; the in-memory
//! transport moves decoded messages directly and only uses
//! [`Message::encoded_len`] for byte accounting. That is exact: it sums the
//! sizes of the same schema-row fields the encoder writes, so a mem link
//! charges the bytes this frame would carry. This module owns the frame
//! format in both directions: [`encode_frame_into`] appends a frame to a
//! connection's outbound buffer, [`decode_frame`] parses one off the front
//! of its inbound buffer.

use dema_core::alloc::{enter_phase, Phase};

use crate::message::{Message, WireError};

/// Frames larger than this are treated as corruption.
pub const MAX_FRAME: u32 = 1 << 30;

/// Append one complete frame (length prefix + encoded payload) to `buf`.
pub fn encode_frame_into(msg: &Message, buf: &mut Vec<u8>) {
    let _phase = enter_phase(Phase::Encode);
    let len = msg.encoded_len() as u32;
    buf.reserve(len as usize + 4);
    buf.extend_from_slice(&len.to_le_bytes());
    msg.encode_into(buf);
}

/// Parse one frame off the front of `buf`. `Ok(None)` when `buf` does not
/// yet hold a complete frame; otherwise the message and the frame's total
/// length (prefix + payload), which the caller consumes.
///
/// # Errors
/// A length prefix above [`MAX_FRAME`] is [`WireError::BadLength`]; a
/// payload that does not decode is the codec's error.
// hot-path: frame-io
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Message, usize)>, WireError> {
    let _phase = enter_phase(Phase::Decode);
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len > MAX_FRAME {
        return Err(WireError::BadLength(u64::from(len)));
    }
    let total = 4 + len as usize;
    let Some(payload) = buf.get(4..total) else {
        return Ok(None);
    };
    Ok(Some((Message::decode(payload)?, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dema_core::alloc::{armed, AllocGate};
    use dema_core::event::{Event, NodeId, WindowId};

    fn sample() -> Message {
        Message::EventBatch {
            node: NodeId(1),
            window: WindowId(2),
            sorted: true,
            events: (0..10).map(|i| Event::new(i, i as u64, i as u64)).collect(),
        }
    }

    #[test]
    fn roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        encode_frame_into(&sample(), &mut buf);
        assert_eq!(buf.len(), sample().encoded_len() + 4);
        let (msg, used) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(msg, sample());
        assert_eq!(used, buf.len());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = Vec::new();
        let msgs = vec![
            sample(),
            Message::GammaUpdate { gamma: 7 },
            Message::StreamEnd {
                node: NodeId(0),
                late_events: 0,
            },
        ];
        for m in &msgs {
            encode_frame_into(m, &mut buf);
        }
        let mut rest = &buf[..];
        for expected in &msgs {
            let (msg, used) = decode_frame(rest).unwrap().unwrap();
            assert_eq!(&msg, expected);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
        assert!(decode_frame(rest).unwrap().is_none());
    }

    #[test]
    fn encode_frame_into_appends_prefix_and_payload() {
        let msg = sample();
        let mut buf = vec![0xEE]; // existing bytes stay untouched
        encode_frame_into(&msg, &mut buf);
        assert_eq!(buf[0], 0xEE);
        let len = u32::from_le_bytes(buf[1..5].try_into().unwrap());
        assert_eq!(len as usize, msg.encoded_len());
        assert_eq!(Message::decode(&buf[5..]).unwrap(), msg);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut buf = Vec::new();
        encode_frame_into(&sample(), &mut buf);
        for cut in [0, 3, 4, buf.len() - 1] {
            assert!(decode_frame(&buf[..cut]).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn oversize_frame_rejected() {
        let buf = (MAX_FRAME + 1).to_le_bytes();
        assert_eq!(
            decode_frame(&buf).unwrap_err(),
            WireError::BadLength(u64::from(MAX_FRAME) + 1)
        );
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut buf = 1u32.to_le_bytes().to_vec();
        buf.push(0xFF); // bad tag
        assert_eq!(decode_frame(&buf).unwrap_err(), WireError::BadTag(0xFF));
    }

    #[test]
    fn codec_allocations_land_in_their_phases() {
        if !armed() {
            return;
        }
        let (encode, decode) = (Phase::Encode as usize, Phase::Decode as usize);
        let other = Phase::Other as usize;
        let msg = sample();
        let mut buf = Vec::new();
        let gate = AllocGate::steady_state();
        encode_frame_into(&msg, &mut buf);
        let enc = gate.delta();
        assert!(enc.fresh[encode] > 0, "{enc:?}");
        assert_eq!(enc.fresh[other], 0, "{enc:?}");

        let gate = AllocGate::steady_state();
        let decoded = decode_frame(&buf).unwrap();
        let dec = gate.delta();
        assert!(dec.fresh[decode] > 0, "{dec:?}");
        assert_eq!(dec.fresh[other], 0, "{dec:?}");
        assert_eq!(decoded.map(|(m, _)| m), Some(msg));
    }
}
