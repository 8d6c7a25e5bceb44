//! The ROB-ordered in-flight window: per-instruction state keyed by
//! [`RobId`].
//!
//! The paper indexes every input queue and IOQ entry by reorder-buffer
//! entry number (§3.1). A [`RobWindow`] is the software analogue: a
//! deque kept sorted by `RobId`. Dispatch allocates ids in ascending
//! order, so an insert is a push at the back; commit frees the oldest
//! entry and a squash the youngest, so most removals touch an end.
//! Lookups binary-search. Iteration is in ROB order for free, and once
//! the deque has grown to the in-flight peak no operation allocates.
//!
//! A direct map (`rob % capacity`) is not enough: squashes leave holes,
//! so the live ids can span more than `capacity` (say 1..5 plus 11..21).
//! The window is a plain sorted map instead — inserts at any position
//! and lookups of ids it never saw behave exactly as a map's would.

use rse_pipeline::RobId;
use std::collections::VecDeque;

/// Per-instruction state keyed by [`RobId`], iterated in ROB order.
#[derive(Debug, Clone)]
pub struct RobWindow<T> {
    entries: VecDeque<(RobId, T)>,
    limit: usize,
}

impl<T> RobWindow<T> {
    /// A window holding at most `limit` live entries, with room for all
    /// of them reserved up front.
    pub fn new(limit: usize) -> RobWindow<T> {
        RobWindow {
            entries: VecDeque::with_capacity(limit),
            limit,
        }
    }

    /// A window with no entry limit and room for `reserve` entries
    /// reserved up front. It grows past `reserve` only if entries are
    /// never freed (an engine reused across runs whose last instructions
    /// never retired).
    pub fn unbounded(reserve: usize) -> RobWindow<T> {
        RobWindow {
            entries: VecDeque::with_capacity(reserve),
            limit: usize::MAX,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `Ok(index)` of `rob`, or `Err(index)` where it would be inserted.
    /// The ends are tried first: dispatch appends, commit and the commit
    /// gate touch the oldest entry, a squash the youngest.
    fn search(&self, rob: RobId) -> Result<usize, usize> {
        let (Some(&(oldest, _)), Some(&(youngest, _))) =
            (self.entries.front(), self.entries.back())
        else {
            return Err(0);
        };
        if rob <= oldest {
            return if rob == oldest { Ok(0) } else { Err(0) };
        }
        let n = self.entries.len();
        if rob >= youngest {
            return if rob == youngest { Ok(n - 1) } else { Err(n) };
        }
        self.entries.binary_search_by_key(&rob, |&(r, _)| r)
    }

    /// The entry for `rob`.
    pub fn get(&self, rob: RobId) -> Option<&T> {
        let i = self.search(rob).ok()?;
        Some(&self.entries[i].1)
    }

    /// The entry for `rob`, mutably.
    pub fn get_mut(&mut self, rob: RobId) -> Option<&mut T> {
        let i = self.search(rob).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Whether `rob` has an entry.
    pub fn contains(&self, rob: RobId) -> bool {
        self.search(rob).is_ok()
    }

    /// Writes the entry for `rob`, returning the one it replaced. A new
    /// id when the window is full is refused: `Err` hands the value back.
    pub fn try_insert(&mut self, rob: RobId, value: T) -> Result<Option<T>, T> {
        match self.search(rob) {
            Ok(i) => Ok(Some(std::mem::replace(&mut self.entries[i].1, value))),
            Err(_) if self.entries.len() >= self.limit => Err(value),
            Err(i) => {
                self.entries.insert(i, (rob, value));
                Ok(None)
            }
        }
    }

    /// Writes the entry for `rob`, returning the one it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `rob` is new and the window already holds `limit`
    /// entries.
    #[track_caller]
    pub fn insert(&mut self, rob: RobId, value: T) -> Option<T> {
        let limit = self.limit;
        match self.try_insert(rob, value) {
            Ok(old) => old,
            Err(_) => panic!("RobWindow overflow: more than {limit} live entries"),
        }
    }

    /// Frees the entry for `rob`.
    pub fn remove(&mut self, rob: RobId) -> Option<T> {
        let i = self.search(rob).ok()?;
        self.entries.remove(i).map(|(_, v)| v)
    }

    /// `(rob, entry)` pairs in ascending ROB order.
    pub fn iter(&self) -> impl Iterator<Item = (RobId, &T)> + '_ {
        self.entries.iter().map(|(rob, v)| (*rob, v))
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting
    /// them in ascending ROB order.
    pub fn retain(&mut self, mut keep: impl FnMut(RobId, &mut T) -> bool) {
        self.entries.retain_mut(|(rob, v)| keep(*rob, v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squash_holes_span_more_than_the_limit() {
        let mut w = RobWindow::new(16);
        for i in 1..=10 {
            w.insert(RobId(i), i);
        }
        for i in (6..=10).rev() {
            w.remove(RobId(i));
        }
        for i in 11..=21 {
            w.insert(RobId(i), i);
        }
        assert_eq!(w.len(), 16);
        assert_eq!(w.get(RobId(21)), Some(&21));
        assert_eq!(w.get(RobId(8)), None);
        let ids: Vec<u64> = w.iter().map(|(r, _)| r.0).collect();
        assert_eq!(ids, (1..=5).chain(11..=21).collect::<Vec<_>>());
    }

    #[test]
    fn out_of_order_inserts_iterate_sorted() {
        let mut w = RobWindow::unbounded(0);
        for i in [5, 2, 9, 2, 7] {
            w.insert(RobId(i), i * 10);
        }
        let pairs: Vec<_> = w.iter().map(|(r, v)| (r.0, *v)).collect();
        assert_eq!(pairs, vec![(2, 20), (5, 50), (7, 70), (9, 90)]);
    }

    #[test]
    fn full_window_refuses_new_ids_but_updates_live_ones() {
        let mut w = RobWindow::new(2);
        w.insert(RobId(1), 'a');
        w.insert(RobId(2), 'b');
        assert_eq!(w.try_insert(RobId(3), 'c'), Err('c'));
        assert_eq!(w.try_insert(RobId(1), 'z'), Ok(Some('a')));
        assert_eq!(w.get(RobId(1)), Some(&'z'));
    }

    #[test]
    #[should_panic(expected = "RobWindow overflow")]
    fn insert_past_the_limit_panics() {
        let mut w = RobWindow::new(1);
        w.insert(RobId(1), ());
        w.insert(RobId(2), ());
    }
}
