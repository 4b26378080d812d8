//! Property tests: every representable message survives an encode/decode
//! roundtrip, `encoded_len` is always exact, and corrupted buffers never
//! panic the decoder.

use proptest::collection::vec;
use proptest::prelude::*;

use dema_core::event::{Event, NodeId, WindowId};
use dema_core::slice::{SliceId, SliceSynopsis};
use dema_sketch::tdigest::Centroid;
use dema_wire::frame::{decode_frame, encode_frame_into};
use dema_wire::Message;

fn arb_event() -> impl Strategy<Value = Event> {
    (any::<i64>(), any::<u64>(), any::<u64>()).prop_map(|(value, ts, id)| Event { value, ts, id })
}

fn arb_synopsis(node: u32, window: u64) -> impl Strategy<Value = SliceSynopsis> {
    (
        any::<u32>(),
        any::<i64>(),
        any::<i64>(),
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(move |(index, a, b, count, total_slices)| SliceSynopsis {
            id: SliceId {
                node: NodeId(node),
                window: WindowId(window),
                index,
            },
            first: a.min(b),
            last: a.max(b),
            count,
            total_slices,
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    let node = any::<u32>();
    let window = any::<u64>();
    prop_oneof![
        (node, window).prop_flat_map(|(n, w)| {
            vec(arb_synopsis(n, w), 0..20).prop_map(move |synopses| Message::SynopsisBatch {
                node: NodeId(n),
                window: WindowId(w),
                synopses,
            })
        }),
        (window, vec(any::<u32>(), 0..20)).prop_map(|(w, slices)| Message::CandidateRequest {
            window: WindowId(w),
            slices
        }),
        (
            node,
            window,
            vec((any::<u32>(), vec(arb_event(), 0..30)), 0..5)
        )
            .prop_map(|(n, w, slices)| Message::CandidateReply {
                node: NodeId(n),
                window: WindowId(w),
                slices: slices.into_iter().map(|(i, ev)| (i, ev.into())).collect(),
            }),
        (node, window, any::<bool>(), vec(arb_event(), 0..100)).prop_map(
            |(n, w, sorted, events)| Message::EventBatch {
                node: NodeId(n),
                window: WindowId(w),
                sorted,
                events,
            }
        ),
        (
            node,
            window,
            any::<u64>(),
            10.0f64..1000.0,
            vec((any::<f64>(), 1u64..u64::MAX), 0..30)
        )
            .prop_map(|(n, w, count, compression, raw)| {
                let mut centroids: Vec<Centroid> = raw
                    .into_iter()
                    .filter(|(m, _)| m.is_finite())
                    .map(|(mean, weight)| Centroid { mean, weight })
                    .collect();
                centroids.sort_by(|a, b| a.mean.total_cmp(&b.mean));
                Message::DigestBatch {
                    node: NodeId(n),
                    window: WindowId(w),
                    count,
                    compression,
                    centroids,
                }
            }),
        any::<u64>().prop_map(|gamma| Message::GammaUpdate { gamma }),
        (window, any::<i64>(), any::<u64>()).prop_map(|(w, value, total_events)| {
            Message::WindowResult {
                window: WindowId(w),
                value,
                total_events,
            }
        }),
        (node, any::<u64>()).prop_map(|(n, late_events)| Message::StreamEnd {
            node: NodeId(n),
            late_events
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roundtrip_any_message(msg in arb_message()) {
        let bytes = msg.to_bytes();
        prop_assert_eq!(bytes.len(), msg.encoded_len(), "encoded_len mismatch");
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn truncation_never_panics_and_never_succeeds(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let bytes = msg.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(Message::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn random_bytes_never_panic(data in vec(any::<u8>(), 0..512)) {
        // Decoding arbitrary garbage must return an error or a message, never panic.
        let _ = Message::decode(&data);
    }

    #[test]
    fn bitflips_never_panic(msg in arb_message(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = msg.to_bytes().to_vec();
        if !bytes.is_empty() {
            let mut corrupted = bytes.clone();
            let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
            corrupted[pos] ^= 1 << bit;
            let _ = Message::decode(&corrupted); // must not panic
        }
    }

    #[test]
    fn framing_roundtrip(msgs in vec(arb_message(), 0..10)) {
        let mut buf = Vec::new();
        for m in &msgs {
            encode_frame_into(m, &mut buf);
        }
        let mut rest = &buf[..];
        for expected in &msgs {
            let (got, used) = decode_frame(rest).unwrap().unwrap();
            prop_assert_eq!(&got, expected);
            rest = &rest[used..];
        }
        prop_assert!(decode_frame(rest).unwrap().is_none());
    }
}
