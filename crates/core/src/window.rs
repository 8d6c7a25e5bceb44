//! The ROB-ordered in-flight window: per-instruction state keyed by
//! [`RobId`].
//!
//! The paper indexes every input queue and IOQ entry by reorder-buffer
//! entry number (§3.1). A [`RobWindow`] is the software analogue: a ring
//! of slots indexed by `id & mask` that spans the ids from the oldest
//! live entry to the youngest. Dispatch allocates ids in ascending
//! order, so an insert extends the span at the top; commit frees the
//! oldest entry and a squash the youngest, and the span shrinks to its
//! live ends; an out-of-order execute write lands in a slot already
//! spanned. Each of these is a constant-time slot access, and iteration
//! walks the span in ROB order.
//!
//! A ring alone is not enough: squashes leave holes, so the live ids
//! can span more than the live count (say 1..5 plus 11..21), and a gap
//! can be arbitrarily wide (an engine reused by a new pipeline whose ids
//! restart at 0 while the old run's stale entries remain). The ring
//! doubles as its span grows, up to a fixed cap. An insert that would
//! stretch the span past the cap moves the ring's entries to a sorted
//! overflow map and restarts the span at the new id, so memory is
//! bounded by the live count and the cap, never by the id span.
//! Overflow keys always lie outside the span; the ring absorbs any the
//! span grows over. Inserts at any position and lookups of ids the
//! window never saw behave exactly as a map's would.

use rse_pipeline::RobId;
use std::collections::BTreeMap;

/// Fewest ids a span may cover before it spills.
const MIN_SPAN: usize = 256;
/// Most ids a span may cover before it spills.
const MAX_SPAN: usize = 1 << 16;

/// Per-instruction state keyed by [`RobId`], iterated in ROB order.
#[derive(Debug, Clone)]
pub struct RobWindow<T> {
    /// `slots[id & mask]` holds the entry of each live id in
    /// `base..top`; every other slot is empty. The length is a power of
    /// two no smaller than `top - base`.
    slots: Vec<Option<T>>,
    /// The span: empty when `base == top`, else live at both ends.
    base: u64,
    top: u64,
    /// Live slots.
    ring_live: usize,
    /// Entries whose ids lie outside the span.
    far: BTreeMap<u64, T>,
    /// Most ids the span may cover, a power of two.
    span_cap: u64,
    limit: usize,
}

impl<T> RobWindow<T> {
    /// A window holding at most `limit` live entries. Its ring starts
    /// with a slot per entry and doubles while the in-flight span grows,
    /// up to `4 × limit` ids (at least 256); a wider span spills to the
    /// overflow map.
    pub fn new(limit: usize) -> RobWindow<T> {
        RobWindow::with_limit(limit, limit)
    }

    /// A window with no entry limit whose ring starts with `reserve`
    /// slots and grows like [`RobWindow::new`]'s. Entries that are never
    /// freed (an engine reused across runs whose last instructions never
    /// retired) end up in the overflow map.
    pub fn unbounded(reserve: usize) -> RobWindow<T> {
        RobWindow::with_limit(usize::MAX, reserve)
    }

    fn with_limit(limit: usize, reserve: usize) -> RobWindow<T> {
        let span_cap = reserve.saturating_mul(4).clamp(MIN_SPAN, MAX_SPAN);
        let slots = reserve.clamp(1, span_cap).next_power_of_two();
        RobWindow {
            slots: std::iter::repeat_with(|| None).take(slots).collect(),
            base: 0,
            top: 0,
            ring_live: 0,
            far: BTreeMap::new(),
            span_cap: span_cap.next_power_of_two() as u64,
            limit,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.ring_live + self.far.len()
    }

    /// Whether the window holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The ring slot of `rob`, if the span covers it.
    fn slot(&self, rob: RobId) -> Option<usize> {
        let spanned = rob.0.wrapping_sub(self.base) < self.top - self.base;
        spanned.then_some(rob.0 as usize & self.mask())
    }

    /// The entry for `rob`.
    pub fn get(&self, rob: RobId) -> Option<&T> {
        match self.slot(rob) {
            Some(i) => self.slots[i].as_ref(),
            None if self.far.is_empty() => None,
            None => self.far.get(&rob.0),
        }
    }

    /// The entry for `rob`, mutably.
    pub fn get_mut(&mut self, rob: RobId) -> Option<&mut T> {
        match self.slot(rob) {
            Some(i) => self.slots[i].as_mut(),
            None if self.far.is_empty() => None,
            None => self.far.get_mut(&rob.0),
        }
    }

    /// Whether `rob` has an entry.
    pub fn contains(&self, rob: RobId) -> bool {
        self.get(rob).is_some()
    }

    /// Writes the entry for `rob`, returning the one it replaced. A new
    /// id when the window is full is refused: `Err` hands the value back.
    pub fn try_insert(&mut self, rob: RobId, value: T) -> Result<Option<T>, T> {
        if let Some(old) = self.get_mut(rob) {
            return Ok(Some(std::mem::replace(old, value)));
        }
        if self.len() >= self.limit {
            return Err(value);
        }
        let i = match self.slot(rob) {
            Some(i) => i,
            None => self.span(rob.0),
        };
        self.slots[i] = Some(value);
        self.ring_live += 1;
        Ok(None)
    }

    /// Stretches the span over `id`, which it does not cover yet, and
    /// returns its slot. Past the span cap the ring's entries move to
    /// `far` and the span restarts at `id`.
    fn span(&mut self, id: u64) -> usize {
        let (mut lo, mut hi) = if self.base == self.top {
            (id, id + 1)
        } else {
            (self.base.min(id), self.top.max(id + 1))
        };
        if hi - lo > self.span_cap {
            let mask = self.mask();
            for old in self.base..self.top {
                if let Some(v) = self.slots[old as usize & mask].take() {
                    self.far.insert(old, v);
                }
            }
            self.ring_live = 0;
            (lo, hi) = (id, id + 1);
            self.top = self.base;
        }
        if hi - lo > self.slots.len() as u64 {
            self.regrow((hi - lo).next_power_of_two() as usize);
        }
        let (old_base, old_top) = if self.base == self.top {
            (hi, hi)
        } else {
            (self.base, self.top)
        };
        (self.base, self.top) = (lo, hi);
        // Keep `far` outside the span: absorb what it grew over.
        if !self.far.is_empty() {
            for (from, to) in [(lo, old_base), (old_top, hi)] {
                while let Some((&k, _)) = self.far.range(from..to).next() {
                    let i = k as usize & self.mask();
                    self.slots[i] = self.far.remove(&k);
                    self.ring_live += 1;
                }
            }
        }
        id as usize & self.mask()
    }

    /// Moves the live entries into a ring of `len` slots.
    fn regrow(&mut self, len: usize) {
        let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(len).collect();
        let old_mask = self.mask();
        for id in self.base..self.top {
            slots[id as usize & (len - 1)] = self.slots[id as usize & old_mask].take();
        }
        self.slots = slots;
    }

    /// Shrinks the span to its live ends.
    fn trim(&mut self) {
        let mask = self.mask();
        while self.base < self.top && self.slots[self.base as usize & mask].is_none() {
            self.base += 1;
        }
        while self.top > self.base && self.slots[(self.top - 1) as usize & mask].is_none() {
            self.top -= 1;
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
        match self.slot(rob) {
            Some(i) => {
                let value = self.slots[i].take()?;
                self.ring_live -= 1;
                self.trim();
                Some(value)
            }
            None if self.far.is_empty() => None,
            None => self.far.remove(&rob.0),
        }
    }

    /// `(rob, entry)` pairs in ascending ROB order.
    pub fn iter(&self) -> impl Iterator<Item = (RobId, &T)> + '_ {
        let mask = self.mask();
        let ring = (self.base..self.top)
            .filter_map(move |id| Some((RobId(id), self.slots[id as usize & mask].as_ref()?)));
        let far = |(&k, v)| (RobId(k), v);
        let below = self.far.range(..self.base).map(far);
        below.chain(ring).chain(self.far.range(self.top..).map(far))
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting
    /// them in ascending ROB order.
    pub fn retain(&mut self, mut keep: impl FnMut(RobId, &mut T) -> bool) {
        let (base, top, mask) = (self.base, self.top, self.mask());
        self.far.retain(|&k, v| k >= base || keep(RobId(k), v));
        for id in base..top {
            let slot = &mut self.slots[id as usize & mask];
            if slot.as_mut().is_some_and(|v| !keep(RobId(id), v)) {
                *slot = None;
                self.ring_live -= 1;
            }
        }
        self.far.retain(|&k, v| k < top || keep(RobId(k), v));
        self.trim();
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
