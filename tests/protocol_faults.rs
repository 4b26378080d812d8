//! Failure injection: the system must *detect* protocol faults — corrupted
//! candidate replies, replies for unselected slices, truncated frames,
//! inconsistent synopses — rather than silently emitting wrong quantiles.

use dema::cluster::config::{EngineKind, GammaMode};
use dema::cluster::root::RootNode;
use dema::cluster::ClusterError;
use dema::core::event::{Event, NodeId, WindowId};
use dema::core::quantile::Quantile;
use dema::core::selector::SelectionStrategy;
use dema::core::slice::cut_into_slices;
use dema::core::DemaError;
use dema::metrics::NetworkCounters;
use dema::net::mem::link;
use dema::net::{MsgReceiver, MsgSender};
use dema::wire::{Message, WireError};

fn events(vals: &[i64]) -> Vec<Event> {
    vals.iter()
        .enumerate()
        .map(|(i, &v)| Event::new(v, 0, i as u64))
        .collect()
}

fn dema_root(n_locals: usize, control: Vec<Box<dyn MsgSender>>) -> RootNode {
    RootNode::new(
        Quantile::MEDIAN,
        EngineKind::Dema {
            gamma: GammaMode::Fixed(4),
            strategy: SelectionStrategy::WindowCut,
        },
        n_locals,
        1,
        control,
        dema::cluster::local::new_close_times(),
    )
}

/// Feed the root valid synopses and capture the candidate request.
fn setup_identification(
    root: &mut RootNode,
    rx: &mut dyn MsgReceiver,
) -> (Vec<dema::core::slice::Slice>, Vec<u32>) {
    let slices = cut_into_slices(
        NodeId(0),
        WindowId(0),
        events(&(0..16).collect::<Vec<i64>>()),
        4,
    )
    .unwrap();
    root.handle(Message::SynopsisBatch {
        node: NodeId(0),
        window: WindowId(0),
        synopses: slices.iter().map(|s| s.synopsis(4).unwrap()).collect(),
    })
    .unwrap();
    let Message::CandidateRequest { slices: wanted, .. } = rx.try_recv().unwrap().unwrap() else {
        panic!("expected candidate request");
    };
    (slices, wanted)
}

#[test]
fn truncated_reply_events_are_detected() {
    let (tx, mut rx) = link(NetworkCounters::new_shared());
    let mut root = dema_root(1, vec![Box::new(tx)]);
    let (slices, wanted) = setup_identification(&mut root, &mut rx);
    // Drop one event from the requested slice (runs are immutable shared
    // views, so tampering means re-wrapping a mutated copy).
    let mut tampered = slices[wanted[0] as usize].events.to_vec();
    tampered.pop();
    let payload = dema::core::shared::SharedRun::from_vec(tampered);
    let err = root
        .handle(Message::CandidateReply {
            node: NodeId(0),
            window: WindowId(0),
            slices: vec![(wanted[0], payload)],
        })
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::Core(DemaError::CorruptCandidate(_))),
        "{err:?}"
    );
}

#[test]
fn swapped_values_in_reply_are_detected() {
    let (tx, mut rx) = link(NetworkCounters::new_shared());
    let mut root = dema_root(1, vec![Box::new(tx)]);
    let (slices, wanted) = setup_identification(&mut root, &mut rx);
    // Replace the slice contents with different values of the same count.
    let fake: Vec<Event> = events(&[100, 101, 102, 103]);
    assert_eq!(fake.len(), slices[wanted[0] as usize].events.len());
    let err = root
        .handle(Message::CandidateReply {
            node: NodeId(0),
            window: WindowId(0),
            slices: vec![(wanted[0], fake.into())],
        })
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::Core(DemaError::CorruptCandidate(_))),
        "{err:?}"
    );
}

#[test]
fn unsorted_reply_is_detected() {
    let (tx, mut rx) = link(NetworkCounters::new_shared());
    let mut root = dema_root(1, vec![Box::new(tx)]);
    let (slices, wanted) = setup_identification(&mut root, &mut rx);
    let mut tampered = slices[wanted[0] as usize].events.to_vec();
    tampered.swap(1, 2);
    let payload = dema::core::shared::SharedRun::from_vec(tampered);
    let err = root
        .handle(Message::CandidateReply {
            node: NodeId(0),
            window: WindowId(0),
            slices: vec![(wanted[0], payload)],
        })
        .unwrap_err();
    assert!(
        matches!(err, ClusterError::Core(DemaError::CorruptCandidate(_))),
        "{err:?}"
    );
}

#[test]
fn reply_for_unselected_slice_is_rejected() {
    let (tx, mut rx) = link(NetworkCounters::new_shared());
    let mut root = dema_root(1, vec![Box::new(tx)]);
    let (slices, wanted) = setup_identification(&mut root, &mut rx);
    // Pick a slice index that was *not* requested.
    let unrequested = (0..slices.len() as u32)
        .find(|i| !wanted.contains(i))
        .unwrap();
    let err = root
        .handle(Message::CandidateReply {
            node: NodeId(0),
            window: WindowId(0),
            slices: vec![(unrequested, slices[unrequested as usize].events.clone())],
        })
        .unwrap_err();
    assert!(matches!(err, ClusterError::Protocol(_)), "{err:?}");
}

#[test]
fn reply_for_unknown_window_is_rejected() {
    let mut root = dema_root(1, vec![]);
    let err = root
        .handle(Message::CandidateReply {
            node: NodeId(0),
            window: WindowId(99),
            slices: vec![],
        })
        .unwrap_err();
    assert!(matches!(err, ClusterError::Protocol(_)), "{err:?}");
}

#[test]
fn event_batch_to_dema_root_is_a_protocol_error() {
    let mut root = dema_root(1, vec![]);
    let err = root
        .handle(Message::EventBatch {
            node: NodeId(0),
            window: WindowId(0),
            sorted: false,
            events: events(&[1]),
        })
        .unwrap_err();
    assert!(matches!(err, ClusterError::Protocol(_)), "{err:?}");
}

#[test]
fn corrupted_wire_bytes_never_decode() {
    // Bit-flip every byte of a valid frame payload: decoding must fail or
    // produce a *different* message — never panic.
    let msg = Message::SynopsisBatch {
        node: NodeId(3),
        window: WindowId(7),
        synopses: vec![],
    };
    let bytes = msg.to_bytes();
    for i in 0..bytes.len() {
        let mut corrupted = bytes.to_vec();
        corrupted[i] ^= 0xFF;
        match Message::decode(&corrupted) {
            Ok(decoded) => assert_ne!(decoded, msg, "flip at byte {i} went unnoticed"),
            Err(WireError::BadTag(_) | WireError::Truncated | WireError::BadLength(_)) => {}
        }
    }
}

#[test]
fn responder_failure_surfaces_as_error_not_wrong_answer() {
    // A local whose store lost the window must produce an error on the
    // responder side (protocol violation), never a fabricated reply.
    use dema::cluster::local::{responder_step, LocalShared};
    let (mut data_tx, mut data_rx) = link(NetworkCounters::new_shared());
    let shared = LocalShared::new(4);
    let request = Message::CandidateRequest {
        window: WindowId(5),
        slices: vec![0],
    };
    let res = responder_step(NodeId(0), request, &mut data_tx, &shared);
    assert!(matches!(data_rx.try_recv(), Ok(None)), "no reply was sent");
    assert!(matches!(res, Err(ClusterError::Protocol(_))));
}
