//! Scan-resistant replacement policies: 2Q and segmented LRU.
//!
//! The trace workloads mix two access shapes that are hostile to plain
//! LRU when combined: tight re-read loops (Dmine's repeated passes, the
//! web server's repeated GETs) and long sequential sweeps (LU panel
//! reads, Titan tile scans). One sweep through a file larger than the
//! cache flushes the loop's hot pages out of an LRU cache even though
//! none of the swept pages will ever be touched again. The two classic
//! answers are implemented here as segment layouts over the intrusive
//! slab core ([`crate::intrusive::MultiList`]):
//!
//! - [`TwoQSet`] — Johnson & Shasha's 2Q: new pages enter a small FIFO
//!   trial queue (`A1in`); only pages re-referenced *after leaving it*
//!   (tracked by the ghost queue `A1out`, keys only) are admitted to
//!   the protected main LRU (`Am`). A scan's pages die in the trial
//!   queue without disturbing `Am`.
//! - [`SlruSet`] — segmented LRU: a probationary segment absorbs first
//!   references; a hit while probationary promotes the page to the
//!   protected segment, whose overflow demotes back to probationary
//!   rather than straight out of the cache.
//!
//! Because the segments are lists threaded through one slab with one
//! key index, a hit costs a single hash probe and a relink — the
//! same as plain LRU — where the previous three-`LruList`-plus-
//! `HashSet` layout paid up to five probes per touch (2Q's throughput
//! anomaly in the early measurements).
//!
//! Both policies are capacity-aware (unlike LRU/CLOCK/FIFO they must
//! balance their internal segments), so they take the page budget at
//! construction.

use std::fmt;

use crate::intrusive::{forward_to_slab, GroupKey, MultiList};
use crate::policy::PolicySet;

// TwoQSet's segment indices.
const A1IN: usize = 0;
const AM: usize = 1;
const A1OUT: usize = 2;

/// Johnson & Shasha's 2Q, full version (A1in / A1out / Am).
#[derive(Debug, Clone)]
pub struct TwoQSet<K: GroupKey> {
    /// `A1in` (trial FIFO, resident), `Am` (protected LRU, resident)
    /// and `A1out` (ghost queue, keys only) over one slab.
    lists: MultiList<K, 3, 2>,
    /// Target size of `A1in` (classic: ¼ of capacity).
    kin: usize,
    /// Bound on the ghost queue (classic: ½ of capacity).
    kout: usize,
}

impl<K: GroupKey> TwoQSet<K> {
    /// Creates a 2Q set for a cache of `capacity` pages, using the
    /// paper's recommended splits `Kin = capacity/4`, `Kout =
    /// capacity/2` (each at least one page).
    pub fn new(capacity: usize) -> Self {
        let kin = (capacity / 4).max(1);
        let kout = (capacity / 2).max(1);
        // Pre-size for residents plus ghosts (bounded, so absurd
        // capacities don't allocate gigabytes up front).
        let cap = capacity.min(crate::PREALLOC_PAGES_MAX);
        Self { lists: MultiList::with_capacity(cap + kout.min(cap) + 1), kin, kout }
    }

    /// [`TwoQSet::new`] under the crate-wide constructor convention.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(capacity)
    }

    /// Number of keys in the protected queue (diagnostics/tests).
    pub fn protected_len(&self) -> usize {
        self.lists.list_len(AM)
    }

    /// Number of ghost keys (diagnostics/tests).
    pub fn ghost_len(&self) -> usize {
        self.lists.list_len(A1OUT)
    }
}

impl<K> PolicySet<K> for TwoQSet<K>
where
    K: GroupKey + fmt::Debug + Send + 'static,
{
    fn with_capacity(capacity: usize) -> Self {
        TwoQSet::new(capacity)
    }

    forward_to_slab!(lists);

    /// A protected page moves to `Am`'s front. Classic 2Q: a hit inside
    /// the trial queue does not move the page — only a reference after
    /// eviction promotes.
    fn hit(&mut self, slot: usize) {
        if self.lists.list_at(slot) == AM {
            self.lists.promote(slot, AM);
        }
    }

    /// A new key enters the trial queue. A key seen before and evicted
    /// from trial (a ghost) is on its second reference — it is
    /// admitted to the protected queue.
    fn admit(&mut self, key: K, payload: u8) {
        let (slot, inserted) = self.lists.insert_front(A1IN, key);
        *self.lists.payload_at_mut(slot) = payload;
        if !inserted && self.lists.list_at(slot) == A1OUT {
            self.lists.promote(slot, AM);
        }
    }

    /// Evicts a victim. Trial pages go first once the trial queue is
    /// over its target, leaving a ghost behind; otherwise the protected
    /// queue's LRU page goes (no ghost — it had its chance).
    fn pop_victim_entry(&mut self) -> Option<(K, u8)> {
        if self.lists.list_len(A1IN) > self.kin || self.lists.list_len(AM) == 0 {
            let slot = self.lists.transfer_back(A1IN, A1OUT)?;
            let victim = (self.lists.key_at(slot).clone(), *self.lists.payload_at_mut(slot));
            while self.lists.list_len(A1OUT) > self.kout {
                self.lists.pop_back(A1OUT);
            }
            Some(victim)
        } else {
            self.lists.pop_back(AM)
        }
    }

    /// Removes the key, resident or ghost.
    fn remove_entry(&mut self, key: &K) -> Option<u8> {
        self.lists.remove(key).and_then(|(list, payload)| (list != A1OUT).then_some(payload))
    }
}

// SlruSet's segment indices.
const PROBATION: usize = 0;
const PROTECTED: usize = 1;

/// Segmented LRU: probationary + protected segments.
#[derive(Debug, Clone)]
pub struct SlruSet<K: GroupKey> {
    /// Probationary and protected segments over one slab.
    lists: MultiList<K, 2>,
    /// Cap on the protected segment (classic: ½ of capacity).
    protected_cap: usize,
}

impl<K: GroupKey> SlruSet<K> {
    /// Creates an SLRU set for a cache of `capacity` pages; the
    /// protected segment holds at most half of it (at least one page).
    pub fn new(capacity: usize) -> Self {
        let protected_cap = (capacity / 2).max(1);
        let cap = capacity.min(crate::PREALLOC_PAGES_MAX);
        Self { lists: MultiList::with_capacity(cap + 1), protected_cap }
    }

    /// [`SlruSet::new`] under the crate-wide constructor convention.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::new(capacity)
    }

    /// Number of keys in the protected segment (diagnostics/tests).
    pub fn protected_len(&self) -> usize {
        self.lists.list_len(PROTECTED)
    }
}

impl<K> PolicySet<K> for SlruSet<K>
where
    K: GroupKey + fmt::Debug + Send + 'static,
{
    fn with_capacity(capacity: usize) -> Self {
        SlruSet::new(capacity)
    }

    forward_to_slab!(lists);

    /// A repeat touch promotes to protected, demoting that segment's
    /// LRU entry back to probationary if it is full.
    fn hit(&mut self, slot: usize) {
        self.lists.promote(slot, PROTECTED);
        while self.lists.list_len(PROTECTED) > self.protected_cap {
            self.lists.transfer_back(PROTECTED, PROBATION);
        }
    }

    /// First touch lands probationary.
    fn admit(&mut self, key: K, payload: u8) {
        let (slot, _) = self.lists.insert_front(PROBATION, key);
        *self.lists.payload_at_mut(slot) = payload;
    }

    /// Evicts the probationary LRU entry, falling back to the
    /// protected segment only when probation is empty.
    fn pop_victim_entry(&mut self) -> Option<(K, u8)> {
        self.lists.pop_back(PROBATION).or_else(|| self.lists.pop_back(PROTECTED))
    }

    fn remove_entry(&mut self, key: &K) -> Option<u8> {
        self.lists.remove(key).map(|(_, payload)| payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // --- 2Q ---

    #[test]
    fn twoq_first_touch_is_trial_second_after_ghost_promotes() {
        let mut q = TwoQSet::new(8); // kin = 2, kout = 4
        assert!(q.touch(1));
        assert!(!q.touch(1), "hit inside the trial queue");
        assert_eq!(q.protected_len(), 0, "trial hits do not promote");
        // Push 1 out of the trial queue.
        q.touch(2);
        q.touch(3);
        assert_eq!(q.pop_victim(), Some(1), "trial FIFO evicts oldest");
        assert_eq!(q.ghost_len(), 1);
        // Re-reference after ghosting: promoted to Am.
        assert!(q.touch(1), "ghost hit refetches");
        assert_eq!(q.protected_len(), 1);
        assert_eq!(q.ghost_len(), 0);
    }

    #[test]
    fn twoq_scan_does_not_displace_protected() {
        let mut q = TwoQSet::new(8);
        // Build a protected working set {100, 101}.
        for k in [100u64, 101] {
            q.touch(k);
        }
        q.touch(200);
        q.touch(201); // push 100,101 toward trial eviction
        q.pop_victim();
        q.pop_victim(); // ghost 100, 101
        q.touch(100);
        q.touch(101); // promoted to Am
        assert_eq!(q.protected_len(), 2);
        // A long scan of cold pages cycles through the trial queue.
        for k in 0..1000u64 {
            q.touch(k + 10_000);
            while q.len() > 6 {
                q.pop_victim();
            }
        }
        assert!(q.contains(&100), "scan must not evict protected page 100");
        assert!(q.contains(&101), "scan must not evict protected page 101");
    }

    #[test]
    fn twoq_ghost_bounded() {
        let mut q = TwoQSet::new(8); // kout = 4
        for k in 0..100u64 {
            q.touch(k);
            while q.len() > 4 {
                q.pop_victim();
            }
        }
        assert!(q.ghost_len() <= 4, "ghost queue exceeded kout: {}", q.ghost_len());
    }

    #[test]
    fn twoq_remove_clears_ghosts_too() {
        let mut q = TwoQSet::new(8);
        q.touch(1);
        q.touch(2);
        q.touch(3);
        q.pop_victim(); // ghost 1
        assert!(!q.remove(&1), "ghost removal is not a resident removal");
        assert!(q.touch(1), "after ghost removal, 1 is a fresh trial insert");
        assert!(q.contains(&1));
        assert_eq!(q.protected_len(), 0, "fresh insert must not be promoted");
    }

    #[test]
    fn twoq_empty_pop_is_none() {
        let mut q: TwoQSet<u32> = TwoQSet::new(4);
        assert!(q.is_empty());
        assert_eq!(q.pop_victim(), None);
    }

    #[test]
    fn twoq_protected_lru_evicted_when_trial_small() {
        let mut q = TwoQSet::new(4); // kin = 1
                                     // Promote 1 and 2.
        q.touch(1);
        q.touch(2);
        q.pop_victim(); // 1 ghosted (a1in over kin)
        q.pop_victim(); // 2 ghosted
        q.touch(1);
        q.touch(2); // both in Am now
        assert_eq!(q.protected_len(), 2);
        // Trial queue empty -> victim comes from Am in LRU order.
        assert_eq!(q.pop_victim(), Some(1));
    }

    // --- SLRU ---

    #[test]
    fn slru_promotion_and_demotion() {
        let mut s = SlruSet::new(4); // protected_cap = 2
        assert!(s.touch(1));
        assert!(!s.touch(1), "second touch promotes, not inserts");
        assert_eq!(s.protected_len(), 1);
        s.touch(2);
        s.touch(2);
        s.touch(3);
        s.touch(3);
        // Protected now over cap: 1 (its LRU) demoted to probationary.
        assert_eq!(s.protected_len(), 2);
        assert!(s.contains(&1), "demoted, not evicted");
        assert_eq!(s.pop_victim(), Some(1), "demoted page is first out");
    }

    #[test]
    fn slru_scan_resistance() {
        let mut s = SlruSet::new(8);
        // Hot set, referenced twice -> protected.
        for k in [100u64, 101, 102] {
            s.touch(k);
            s.touch(k);
        }
        for k in 0..1000u64 {
            s.touch(k + 10_000);
            while s.len() > 8 {
                s.pop_victim();
            }
        }
        for k in [100u64, 101, 102] {
            assert!(s.contains(&k), "scan evicted hot page {k}");
        }
    }

    #[test]
    fn slru_victims_prefer_probationary() {
        let mut s = SlruSet::new(4);
        s.touch(1);
        s.touch(1); // protected
        s.touch(2); // probationary
        assert_eq!(s.pop_victim(), Some(2));
        assert_eq!(s.pop_victim(), Some(1), "protected drained last");
        assert_eq!(s.pop_victim(), None);
    }

    #[test]
    fn slru_remove_both_segments() {
        let mut s = SlruSet::new(4);
        s.touch(1);
        s.touch(1);
        s.touch(2);
        assert!(s.remove(&1));
        assert!(s.remove(&2));
        assert!(!s.remove(&3));
        assert!(s.is_empty());
    }

    // --- shared invariants ---

    proptest! {
        #[test]
        fn twoq_len_matches_membership(ops in proptest::collection::vec((0u8..3, 0u64..32), 0..200)) {
            let mut q = TwoQSet::new(8);
            let mut model: std::collections::HashSet<u64> = std::collections::HashSet::new();
            for (op, key) in ops {
                match op {
                    0 => {
                        q.touch(key);
                        model.insert(key);
                    }
                    1 => {
                        if let Some(v) = q.pop_victim() {
                            prop_assert!(model.remove(&v), "evicted non-resident {v}");
                        }
                    }
                    _ => {
                        let was = q.remove(&key);
                        prop_assert_eq!(was, model.remove(&key));
                    }
                }
                prop_assert_eq!(q.len(), model.len());
                for k in &model {
                    prop_assert!(q.contains(k));
                }
            }
        }

        #[test]
        fn slru_len_matches_membership(ops in proptest::collection::vec((0u8..3, 0u64..32), 0..200)) {
            let mut s = SlruSet::new(8);
            let mut model: std::collections::HashSet<u64> = std::collections::HashSet::new();
            for (op, key) in ops {
                match op {
                    0 => {
                        s.touch(key);
                        model.insert(key);
                    }
                    1 => {
                        if let Some(v) = s.pop_victim() {
                            prop_assert!(model.remove(&v), "evicted non-resident {v}");
                        }
                    }
                    _ => {
                        let was = s.remove(&key);
                        prop_assert_eq!(was, model.remove(&key));
                    }
                }
                prop_assert_eq!(s.len(), model.len());
                for k in &model {
                    prop_assert!(s.contains(k));
                }
            }
        }

        #[test]
        fn twoq_drain_returns_each_resident_once(keys in proptest::collection::hash_set(0u64..64, 1..32)) {
            let mut q = TwoQSet::new(8);
            for &k in &keys {
                q.touch(k);
            }
            let mut drained = Vec::new();
            while let Some(v) = q.pop_victim() {
                drained.push(v);
            }
            drained.sort_unstable();
            let mut expect: Vec<_> = keys.into_iter().collect();
            expect.sort_unstable();
            prop_assert_eq!(drained, expect);
        }
    }
}
