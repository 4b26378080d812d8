//! Slices and slice synopses.
//!
//! When a local window closes, its (sorted) events are cut into *slices* of
//! roughly γ events each (§3.1). For every slice, only a small **synopsis**
//! travels to the root during the identification step: the first and last
//! event values, the event count, and the slice's position among its node's
//! slices. The raw events of a slice are only shipped if the root selects the
//! slice as a candidate.

use crate::error::{DemaError, Result};
use crate::event::{Event, NodeId, WindowId};
use crate::numeric::{len_to_u32, len_to_u64, u64_to_usize};
use crate::shared::SharedRun;

/// Globally unique identifier of a slice: which node produced it, for which
/// window, and its index within that node's sorted slice sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SliceId {
    /// Producing local node.
    pub node: NodeId,
    /// Global window this slice belongs to.
    pub window: WindowId,
    /// 0-based index of the slice within the node's local window.
    pub index: u32,
}

impl std::fmt::Display for SliceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/s{}", self.node, self.window, self.index)
    }
}

/// The statistical summary of one slice, sent root-wards during the
/// identification step.
///
/// Invariant: `first <= last` and `count >= 1` (the slicer produces slices of
/// at least two events whenever the window has two or more).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceSynopsis {
    /// Identity of the summarized slice.
    pub id: SliceId,
    /// Smallest event value in the slice (events are sorted).
    pub first: i64,
    /// Largest event value in the slice.
    pub last: i64,
    /// Number of events in the slice.
    pub count: u64,
    /// Total number of slices the producing node cut its window into.
    /// Lets the root detect missing synopses.
    pub total_slices: u32,
}

impl SliceSynopsis {
    /// `true` if this slice's value interval overlaps `other`'s.
    ///
    /// Intervals are closed; touching endpoints count as overlap because an
    /// equal value could belong to either slice in the global order.
    #[inline]
    pub fn overlaps(&self, other: &SliceSynopsis) -> bool {
        self.first <= other.last && other.first <= self.last
    }

    /// `true` if this slice's value interval lies entirely within `other`'s
    /// (the paper's *cover-slice* relation: `self` is covered by `other`).
    #[inline]
    pub fn covered_by(&self, other: &SliceSynopsis) -> bool {
        other.first <= self.first && self.last <= other.last && self.id != other.id
    }
}

/// A slice with its events, as held on the local node (and shipped to the
/// root when selected as a candidate).
///
/// The events are a [`SharedRun`]: all slices cut from one window share the
/// window's single sorted buffer, and cloning a slice (to answer a candidate
/// request, say) bumps a refcount instead of copying events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slice {
    /// Identity of the slice.
    pub id: SliceId,
    /// Events of the slice in ascending order.
    pub events: SharedRun,
}

impl Slice {
    /// Build the synopsis of this slice.
    ///
    /// # Errors
    /// Returns [`DemaError::EmptyWindow`] for an empty slice (the slicer
    /// never produces one; this guards direct construction).
    pub fn synopsis(&self, total_slices: u32) -> Result<SliceSynopsis> {
        let (Some(first), Some(last)) = (self.events.first(), self.events.last()) else {
            return Err(DemaError::EmptyWindow);
        };
        debug_assert!(crate::event::is_sorted(&self.events));
        Ok(SliceSynopsis {
            id: self.id,
            first: first.value,
            last: last.value,
            count: len_to_u64(self.events.len()),
            total_slices,
        })
    }

    /// Verify delivered candidate events against the synopsis the root holds.
    ///
    /// Used by the root in the calculation step to detect corruption or
    /// truncation in transit.
    pub fn verify_against(&self, syn: &SliceSynopsis) -> Result<()> {
        if self.id != syn.id {
            return Err(DemaError::CorruptCandidate(format!(
                "slice id mismatch: got {}, expected {}",
                self.id, syn.id
            )));
        }
        if len_to_u64(self.events.len()) != syn.count {
            return Err(DemaError::CorruptCandidate(format!(
                "slice {}: {} events delivered, synopsis says {}",
                self.id,
                self.events.len(),
                syn.count
            )));
        }
        let (Some(first), Some(last)) = (self.events.first(), self.events.last()) else {
            return Err(DemaError::CorruptCandidate(format!(
                "slice {}: empty delivery for a synopsis claiming {} events",
                self.id, syn.count
            )));
        };
        if first.value != syn.first || last.value != syn.last {
            return Err(DemaError::CorruptCandidate(format!(
                "slice {}: endpoints [{}, {}] disagree with synopsis [{}, {}]",
                self.id, first.value, last.value, syn.first, syn.last
            )));
        }
        if !crate::event::is_sorted(&self.events) {
            return Err(DemaError::CorruptCandidate(format!(
                "slice {}: events not sorted",
                self.id
            )));
        }
        Ok(())
    }
}

/// Cut a sorted event run into slices of `gamma` events.
///
/// The final slice may be smaller. If it would contain a single event it is
/// folded into the previous slice (the paper requires every slice to contain
/// at least two events, since a synopsis needs two endpoints); a window with
/// exactly one event yields one single-event slice as a degenerate case.
///
/// The sorted buffer itself becomes the shared allocation; every slice is a
/// [`SharedRun`] view into it, so cutting is O(slices), not O(events), and
/// no event is ever copied.
///
/// # Errors
/// * [`DemaError::InvalidGamma`] if `gamma < 2`.
///
/// # Panics
/// Debug-asserts that `events` is sorted.
// hot-path: slicer
pub fn cut_into_slices(
    node: NodeId,
    window: WindowId,
    events: Vec<Event>,
    gamma: u64,
) -> Result<Vec<Slice>> {
    let _phase = crate::alloc::enter_phase(crate::alloc::Phase::Slice);
    if gamma < 2 {
        return Err(DemaError::InvalidGamma(gamma));
    }
    debug_assert!(crate::event::is_sorted(&events));
    if events.is_empty() {
        return Ok(Vec::new()); // lint: allow(R15): Vec::new is allocation-free; cold empty-window return
    }
    let (len, gamma) = (events.len(), u64_to_usize(gamma));
    // Fold a trailing single-event slice into its predecessor.
    let folded = len > gamma && len % gamma == 1;
    let count = len.div_ceil(gamma) - usize::from(folded);

    let run = SharedRun::from_vec(events);
    let mut slices = Vec::with_capacity(count);
    for index in 0..count {
        let start = index * gamma;
        let end = if index + 1 == count {
            len
        } else {
            start + gamma
        };
        slices.push(Slice {
            id: SliceId {
                node,
                window,
                index: len_to_u32(index),
            },
            events: run.slice(start..end),
        });
    }
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(v: i64) -> Event {
        Event::new(v, 0, v as u64)
    }

    fn sorted_events(n: i64) -> Vec<Event> {
        (0..n).map(ev).collect()
    }

    fn sid(index: u32) -> SliceId {
        SliceId {
            node: NodeId(1),
            window: WindowId(0),
            index,
        }
    }

    #[test]
    fn cut_exact_multiple() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(10), 5).unwrap();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].events.len(), 5);
        assert_eq!(slices[1].events.len(), 5);
        assert_eq!(slices[0].id, sid(0));
        assert_eq!(slices[1].id, sid(1));
    }

    #[test]
    fn cut_with_smaller_tail() {
        // Paper's example: l_a = 1000, γ = 150 → 7 slices, last holds 100.
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(1000), 150).unwrap();
        assert_eq!(slices.len(), 7);
        assert!(slices[..6].iter().all(|s| s.events.len() == 150));
        assert_eq!(slices[6].events.len(), 100);
    }

    #[test]
    fn single_trailing_event_is_folded_into_previous_slice() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(11), 5).unwrap();
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].events.len(), 5);
        assert_eq!(slices[1].events.len(), 6);
    }

    #[test]
    fn slices_partition_the_window_in_order() {
        let events = sorted_events(37);
        let slices = cut_into_slices(NodeId(2), WindowId(3), events.clone(), 7).unwrap();
        let rejoined: Vec<Event> = slices
            .iter()
            .flat_map(|s| s.events.iter().copied())
            .collect();
        assert_eq!(rejoined, events);
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.id.index as usize, i);
            assert_eq!(s.id.node, NodeId(2));
            assert_eq!(s.id.window, WindowId(3));
        }
    }

    #[test]
    fn empty_window_yields_no_slices() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), Vec::new(), 10).unwrap();
        assert!(slices.is_empty());
    }

    #[test]
    fn one_event_window_yields_degenerate_slice() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(1), 10).unwrap();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].events.len(), 1);
        let syn = slices[0].synopsis(1).unwrap();
        assert_eq!(syn.first, syn.last);
    }

    #[test]
    fn gamma_below_two_rejected() {
        assert_eq!(
            cut_into_slices(NodeId(1), WindowId(0), sorted_events(5), 1),
            Err(DemaError::InvalidGamma(1))
        );
        assert_eq!(
            cut_into_slices(NodeId(1), WindowId(0), sorted_events(5), 0),
            Err(DemaError::InvalidGamma(0))
        );
    }

    #[test]
    fn synopsis_reports_endpoints_and_count() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(10), 5).unwrap();
        let syn = slices[1].synopsis(2).unwrap();
        assert_eq!(syn.first, 5);
        assert_eq!(syn.last, 9);
        assert_eq!(syn.count, 5);
        assert_eq!(syn.total_slices, 2);
        assert_eq!(syn.id, sid(1));
    }

    #[test]
    fn overlap_relation() {
        let mk = |index, first, last| SliceSynopsis {
            id: sid(index),
            first,
            last,
            count: 2,
            total_slices: 3,
        };
        let a = mk(0, 0, 10);
        let b = mk(1, 10, 20); // touching endpoint counts as overlap
        let c = mk(2, 11, 20);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(a.overlaps(&a));
    }

    #[test]
    fn cover_relation() {
        let mk = |index, first, last| SliceSynopsis {
            id: sid(index),
            first,
            last,
            count: 2,
            total_slices: 3,
        };
        let big = mk(0, 0, 100);
        let inner = mk(1, 10, 20);
        let partial = mk(2, 50, 150);
        assert!(inner.covered_by(&big));
        assert!(!big.covered_by(&inner));
        assert!(!partial.covered_by(&big));
        // A slice does not cover itself.
        assert!(!big.covered_by(&big));
    }

    /// Rebuild a slice with its events replaced by a mutated copy
    /// (SharedRun views are immutable, so tampering means re-wrapping).
    fn tamper(slice: &Slice, mutate: impl FnOnce(&mut Vec<Event>)) -> Slice {
        let mut events = slice.events.to_vec();
        mutate(&mut events);
        Slice {
            id: slice.id,
            events: events.into(),
        }
    }

    #[test]
    fn verify_detects_count_mismatch() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(10), 5).unwrap();
        let syn = slices[0].synopsis(2).unwrap();
        let tampered = tamper(&slices[0], |ev| {
            ev.pop();
        });
        assert!(matches!(
            tampered.verify_against(&syn),
            Err(DemaError::CorruptCandidate(_))
        ));
    }

    #[test]
    fn verify_detects_endpoint_mismatch() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(10), 5).unwrap();
        let syn = slices[0].synopsis(2).unwrap();
        let tampered = tamper(&slices[0], |ev| ev[0].value = -99);
        assert!(matches!(
            tampered.verify_against(&syn),
            Err(DemaError::CorruptCandidate(_))
        ));
    }

    #[test]
    fn slices_share_one_backing_buffer() {
        use crate::shared::SharedRun;
        let window = sorted_events(20);
        let handed_over = window.as_ptr();
        let slices = cut_into_slices(NodeId(1), WindowId(0), window, 5).unwrap();
        assert_eq!(slices.len(), 4);
        // The buffer handed in is the buffer the slices view: no copy.
        assert!(std::ptr::eq(slices[0].events.as_ptr(), handed_over));
        for pair in slices.windows(2) {
            assert!(SharedRun::ptr_eq(&pair[0].events, &pair[1].events));
        }
        // Cloning a slice (what the responder does) also shares, not copies.
        let served = slices[2].clone();
        assert!(SharedRun::ptr_eq(&served.events, &slices[0].events));
    }

    #[test]
    fn verify_accepts_faithful_delivery() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(10), 5).unwrap();
        let syn = slices[1].synopsis(2).unwrap();
        assert!(slices[1].verify_against(&syn).is_ok());
    }

    #[test]
    fn verify_detects_id_mismatch() {
        let slices = cut_into_slices(NodeId(1), WindowId(0), sorted_events(10), 5).unwrap();
        let syn = slices[0].synopsis(2).unwrap();
        assert!(matches!(
            slices[1].verify_against(&syn),
            Err(DemaError::CorruptCandidate(_))
        ));
    }
}
