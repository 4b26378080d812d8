//! Reference-counted sorted event runs.
//!
//! The hot path of the protocol moves the *same* sorted events through
//! several owners: the local store keeps a window's slices until the root
//! requests candidates, the responder packages some of them into a reply,
//! and the root merges the delivered runs. Holding each of these as an owned
//! `Vec<Event>` forces a deep copy at every hand-off even though the events
//! are immutable once sorted.
//!
//! [`SharedRun`] replaces those copies with a view into one shared,
//! immutable buffer: an `Arc<Vec<Event>>` plus a sub-range. Cloning bumps a
//! refcount; slicing a window into γ-sized slices produces views over a
//! single allocation. `Deref<Target = [Event]>` keeps every read-only call
//! site (`len`, `first`, `iter`, indexing) source-compatible with the old
//! `Vec<Event>` representation.

use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::event::Event;

/// An immutable, cheaply clonable view into a shared run of sorted events.
///
/// Equality and ordering compare *contents*, not identity; use
/// [`SharedRun::ptr_eq`] to check whether two runs share a backing buffer.
#[derive(Clone)]
pub struct SharedRun {
    buf: Arc<Vec<Event>>,
    start: usize,
    end: usize,
}

impl SharedRun {
    /// An empty run (no allocation is shared).
    pub fn empty() -> SharedRun {
        SharedRun {
            buf: Arc::new(Vec::new()),
            start: 0,
            end: 0,
        }
    }

    /// Wrap an owned buffer. The `Vec` itself is held, so its heap block
    /// becomes the shared buffer: no event is copied.
    pub fn from_vec(events: Vec<Event>) -> SharedRun {
        let end = events.len();
        SharedRun {
            buf: Arc::new(events),
            start: 0,
            end,
        }
    }

    /// A view of `range` within the same backing buffer as `self`.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds or reversed.
    pub fn slice(&self, range: Range<usize>) -> SharedRun {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        SharedRun {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// `true` if `a` and `b` are views into the same backing allocation.
    ///
    /// This is the zero-copy witness: a run that travelled store → responder
    /// → reply without copying still `ptr_eq`s the stored slice.
    pub fn ptr_eq(a: &SharedRun, b: &SharedRun) -> bool {
        Arc::ptr_eq(&a.buf, &b.buf)
    }

    /// Copy the viewed events into a fresh owned `Vec`.
    pub fn to_vec(&self) -> Vec<Event> {
        self.as_slice().to_vec()
    }

    /// The viewed events.
    #[inline]
    pub fn as_slice(&self) -> &[Event] {
        &self.buf[self.start..self.end]
    }
}

impl Deref for SharedRun {
    type Target = [Event];

    #[inline]
    fn deref(&self) -> &[Event] {
        self.as_slice()
    }
}

impl AsRef<[Event]> for SharedRun {
    #[inline]
    fn as_ref(&self) -> &[Event] {
        self.as_slice()
    }
}

impl From<Vec<Event>> for SharedRun {
    fn from(events: Vec<Event>) -> SharedRun {
        SharedRun::from_vec(events)
    }
}

impl FromIterator<Event> for SharedRun {
    fn from_iter<I: IntoIterator<Item = Event>>(iter: I) -> SharedRun {
        SharedRun::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a SharedRun {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for SharedRun {
    fn eq(&self, other: &SharedRun) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for SharedRun {}

impl PartialEq<Vec<Event>> for SharedRun {
    fn eq(&self, other: &Vec<Event>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[Event]> for SharedRun {
    fn eq(&self, other: &[Event]) -> bool {
        self.as_slice() == other
    }
}

impl std::fmt::Debug for SharedRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Default for SharedRun {
    fn default() -> SharedRun {
        SharedRun::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(v: i64) -> Event {
        Event::new(v, 0, v as u64)
    }

    fn events(n: i64) -> Vec<Event> {
        (0..n).map(ev).collect()
    }

    #[test]
    fn deref_exposes_slice_api() {
        let run = SharedRun::from_vec(events(5));
        assert_eq!(run.len(), 5);
        assert_eq!(run.first().unwrap().value, 0);
        assert_eq!(run.last().unwrap().value, 4);
        assert_eq!(run[2].value, 2);
        let vals: Vec<i64> = run.iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn from_vec_holds_the_moved_buffer() {
        let owned = events(100);
        let ptr = owned.as_ptr();
        let run = SharedRun::from_vec(owned);
        assert!(std::ptr::eq(run.as_slice().as_ptr(), ptr));
    }

    #[test]
    fn clone_shares_backing_buffer() {
        let run = SharedRun::from_vec(events(100));
        let copy = run.clone();
        assert!(SharedRun::ptr_eq(&run, &copy));
        assert_eq!(run, copy);
    }

    #[test]
    fn slicing_shares_backing_buffer() {
        let run = SharedRun::from_vec(events(10));
        let a = run.slice(0..4);
        let b = run.slice(4..10);
        assert!(SharedRun::ptr_eq(&run, &a));
        assert!(SharedRun::ptr_eq(&a, &b));
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 6);
        assert_eq!(a.last().unwrap().value, 3);
        assert_eq!(b.first().unwrap().value, 4);
    }

    #[test]
    fn sub_slice_of_slice_stays_anchored() {
        let run = SharedRun::from_vec(events(10));
        let mid = run.slice(2..8);
        let inner = mid.slice(1..3);
        assert!(SharedRun::ptr_eq(&run, &inner));
        let vals: Vec<i64> = inner.iter().map(|e| e.value).collect();
        assert_eq!(vals, vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "slice out of bounds")]
    fn out_of_bounds_slice_panics() {
        let run = SharedRun::from_vec(events(3));
        let _ = run.slice(1..5);
    }

    #[test]
    fn equality_is_by_contents_not_identity() {
        let a = SharedRun::from_vec(events(5));
        let b = SharedRun::from_vec(events(5));
        assert_eq!(a, b);
        assert!(!SharedRun::ptr_eq(&a, &b));
        assert_eq!(a, events(5)); // Vec comparison
    }

    #[test]
    fn empty_run() {
        let run = SharedRun::empty();
        assert!(run.is_empty());
        assert_eq!(run, SharedRun::default());
        assert!(run.to_vec().is_empty());
    }

    #[test]
    fn for_loop_over_reference() {
        let run = SharedRun::from_vec(events(3));
        let mut sum = 0;
        for e in &run {
            sum += e.value;
        }
        assert_eq!(sum, 3);
    }
}
