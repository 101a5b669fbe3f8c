//! A deterministic slab keyed by monotonically-issued u64 ids.
//!
//! The kernel's hot tables (threads, processes, pending batches, per-program
//! scheduler state) are keyed by ids drawn from monotone counters. A
//! `BTreeMap` pays pointer-chasing and rebalancing on every lookup; this slab
//! stores entries in a dense ring indexed by `id - base`, so lookup is one
//! bounds check and one offset. Removal punches a hole; the ring's ends are
//! trimmed as holes reach them, which keeps memory bounded for FIFO-ish
//! lifecycles (batch ids) as well as grow-only ones (process records).
//!
//! Iteration order is ascending id — identical to the `BTreeMap` order it
//! replaces, so replacing one with the other cannot perturb a deterministic
//! event schedule.

use std::collections::VecDeque;

/// Dense map from monotone u64 ids to values, with ascending iteration.
#[derive(Debug)]
pub struct IdSlab<T> {
    /// Id of `slots[0]`. Meaningless while `slots` is empty.
    base: u64,
    slots: VecDeque<Option<T>>,
    live: usize,
}

impl<T> Default for IdSlab<T> {
    fn default() -> Self {
        IdSlab::new()
    }
}

impl<T> IdSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        IdSlab {
            base: 0,
            slots: VecDeque::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn index(&self, id: u64) -> Option<usize> {
        if self.slots.is_empty() || id < self.base {
            return None;
        }
        let off = (id - self.base) as usize;
        (off < self.slots.len()).then_some(off)
    }

    /// Inserts a value, returning the previous one if the id was live.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = id;
            self.slots.push_back(Some(value));
            self.live = 1;
            return None;
        }
        if id < self.base {
            // Ids are issued monotonically, so front-growth only happens on
            // out-of-order re-admission (recovery); it stays correct anyway.
            for _ in id..self.base - 1 {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = id;
            self.live += 1;
            return None;
        }
        let off = (id - self.base) as usize;
        if off >= self.slots.len() {
            self.slots.resize_with(off + 1, || None);
        }
        let prev = self.slots[off].replace(value);
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    /// Borrows the value for `id`, if live.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.index(id).and_then(|i| self.slots[i].as_ref())
    }

    /// Mutably borrows the value for `id`, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.index(id).and_then(|i| self.slots[i].as_mut())
    }

    /// Returns `true` when `id` is live.
    pub fn contains_key(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Removes and returns the value for `id`, trimming emptied ends so the
    /// ring tracks the live id span.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index(id)?;
        let prev = self.slots[i].take();
        if prev.is_some() {
            self.live -= 1;
            while matches!(self.slots.front(), Some(None)) {
                self.slots.pop_front();
                self.base += 1;
            }
            while matches!(self.slots.back(), Some(None)) {
                self.slots.pop_back();
            }
        }
        prev
    }

    /// Iterates `(id, &value)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (base + i as u64, v)))
    }

    /// Iterates `(id, &mut value)` in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        let base = self.base;
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, s)| s.as_mut().map(|v| (base + i as u64, v)))
    }

    /// Iterates values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// Iterates live ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Removes all entries, yielding `(id, value)` in ascending id order.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, T)> + '_ {
        let base = self.base;
        self.live = 0;
        self.slots
            .drain(..)
            .enumerate()
            .filter_map(move |(i, s)| s.map(|v| (base + i as u64, v)))
    }
}

impl<T> std::ops::Index<u64> for IdSlab<T> {
    type Output = T;
    fn index(&self, id: u64) -> &T {
        self.get(id).expect("no entry for id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = IdSlab::new();
        assert!(s.is_empty());
        assert_eq!(s.insert(1, "a"), None);
        assert_eq!(s.insert(2, "b"), None);
        assert_eq!(s.insert(1, "a2"), Some("a"));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1), Some(&"a2"));
        assert_eq!(s.get(0), None);
        assert_eq!(s.get(99), None);
        assert_eq!(s.remove(1), Some("a2"));
        assert_eq!(s.remove(1), None);
        assert_eq!(s.len(), 1);
        assert!(s.contains_key(2));
    }

    #[test]
    fn iteration_is_ascending_like_btreemap() {
        let mut s = IdSlab::new();
        for id in [5u64, 3, 9, 4] {
            s.insert(id, id * 10);
        }
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![(3, &30), (4, &40), (5, &50), (9, &90)]);
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![3, 4, 5, 9]);
    }

    #[test]
    fn fifo_removal_keeps_ring_bounded() {
        let mut s = IdSlab::new();
        for wave in 0u64..100 {
            s.insert(wave, wave);
            if wave > 0 {
                s.remove(wave - 1);
            }
            assert!(s.slots.len() <= 2, "ring grew to {}", s.slots.len());
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(99), Some(&99));
    }

    #[test]
    fn interior_holes_then_end_trim() {
        let mut s = IdSlab::new();
        for id in 0u64..10 {
            s.insert(id, id);
        }
        s.remove(5);
        assert_eq!(s.len(), 9);
        // Removing the ends trims through interior holes lazily.
        for id in (6..10).rev() {
            s.remove(id);
        }
        assert_eq!(s.slots.len(), 5, "tail trimmed through the hole");
        for id in 0..5 {
            s.remove(id);
        }
        assert!(s.is_empty());
        assert!(s.slots.is_empty());
    }

    #[test]
    fn drain_yields_ascending_pairs() {
        let mut s = IdSlab::new();
        s.insert(2, 'b');
        s.insert(1, 'a');
        s.insert(4, 'd');
        let got: Vec<_> = s.drain().collect();
        assert_eq!(got, vec![(1, 'a'), (2, 'b'), (4, 'd')]);
        assert!(s.is_empty());
    }
}
