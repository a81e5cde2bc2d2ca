//! ARC (Megiddo & Modha, FAST'03): adaptive replacement cache.
//!
//! ARC splits residency into a recency list `T1` (keys seen once) and a
//! frequency list `T2` (keys seen at least twice), shadowed by ghost
//! lists `B1`/`B2` that remember *recently evicted* keys from each.
//! A ghost hit is the learning signal: a hit in `B1` means the recency
//! side was evicted too eagerly, so the adaptive target `p` (the share
//! of capacity T1 deserves) grows; a hit in `B2` shrinks it. The result
//! tracks LRU on recency-friendly streams and LFU-ish behaviour on
//! scan-heavy streams, with no tuning knob.
//!
//! This implementation is *driven*: the owning cache decides **when**
//! to evict (`pop_victim`) while ARC decides **what** — the same split
//! every policy in this crate uses, and what keeps a shard's eviction
//! stream a pure function of its own access subsequence (the shard-
//! independence property in `tests/cache_properties.rs`). Ghost keys
//! occupy no page storage; only their slab nodes, bounded to at most
//! `capacity` extra keys (`|T1|+|B1| ≤ c`, total ≤ `2c`).
//!
//! Built on [`crate::intrusive::MultiList`] with four lists, so every
//! transition — hit promotion, eviction-to-ghost, ghost resurrection —
//! relinks one node without allocating.

use std::fmt;

use crate::intrusive::{forward_to_slab, GroupKey, MultiList};
use crate::policy::PolicySet;

const T1: usize = 0;
const T2: usize = 1;
const B1: usize = 2;
const B2: usize = 3;

/// An ARC residency set over keys of type `K`.
#[derive(Debug, Clone)]
pub struct ArcSet<K: GroupKey> {
    /// `T1`/`T2` resident, `B1`/`B2` ghosts.
    lists: MultiList<K, 4, 2>,
    /// Adaptive target size of `T1`, in `0..=capacity`.
    p: usize,
    /// The page budget the ghost bounds are derived from (≥ 1).
    capacity: usize,
}

impl<K: GroupKey> ArcSet<K> {
    /// Creates an ARC set for a cache of `capacity` pages, pre-sized so
    /// resident plus ghost keys (≤ 2 × capacity, bounded by
    /// [`crate::PREALLOC_PAGES_MAX`]) never reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        let prealloc = capacity.min(crate::PREALLOC_PAGES_MAX / 2);
        Self {
            lists: MultiList::with_capacity(prealloc.saturating_mul(2)),
            p: 0,
            capacity: capacity.max(1),
        }
    }

    /// Number of keys in the frequency list `T2` (diagnostics/tests).
    pub fn frequent_len(&self) -> usize {
        self.lists.list_len(T2)
    }

    /// Number of ghost keys across `B1` and `B2` (diagnostics/tests).
    pub fn ghost_len(&self) -> usize {
        self.lists.list_len(B1) + self.lists.list_len(B2)
    }

    /// The adaptive target size of `T1` (diagnostics/tests).
    pub fn recency_target(&self) -> usize {
        self.p
    }

    /// Enforces the ghost invariants `|T1| + |B1| ≤ c` and
    /// `|T1|+|T2|+|B1|+|B2| ≤ 2c` by dropping the oldest ghosts.
    fn trim_ghosts(&mut self) {
        while self.lists.list_len(T1) + self.lists.list_len(B1) > self.capacity {
            if self.lists.pop_back(B1).is_none() {
                break;
            }
        }
        while self.lists.total_len() > 2 * self.capacity {
            if self.lists.pop_back(B2).is_none() && self.lists.pop_back(B1).is_none() {
                break;
            }
        }
    }
}

impl<K> PolicySet<K> for ArcSet<K>
where
    K: GroupKey + fmt::Debug + Send + 'static,
{
    fn with_capacity(capacity: usize) -> Self {
        ArcSet::with_capacity(capacity)
    }

    forward_to_slab!(lists);

    /// A re-reference moves the key to (the front of) `T2`.
    fn hit(&mut self, slot: usize) {
        self.lists.promote(slot, T2);
    }

    /// A new key enters `T1`. A ghost hit is the learning signal: it
    /// adapts `p` and resurrects the key straight into `T2`.
    fn admit(&mut self, key: K, payload: u8) {
        let (slot, inserted) = self.lists.insert_front(T1, key);
        *self.lists.payload_at_mut(slot) = payload;
        if inserted {
            self.trim_ghosts();
            return;
        }
        match self.lists.list_at(slot) {
            B1 => {
                // Recency ghost hit: grow T1's share.
                let delta = (self.lists.list_len(B2) / self.lists.list_len(B1).max(1)).max(1);
                self.p = (self.p + delta).min(self.capacity);
                self.lists.promote(slot, T2);
            }
            B2 => {
                // Frequency ghost hit: shrink T1's share.
                let delta = (self.lists.list_len(B1) / self.lists.list_len(B2).max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                self.lists.promote(slot, T2);
            }
            _ => {} // already resident: only the payload changes
        }
    }

    /// Evicts a victim per ARC's REPLACE rule: `T1`'s LRU key when `T1`
    /// exceeds its adaptive target `p` (or `T2` is empty), `T2`'s
    /// otherwise. The victim leaves a ghost behind in `B1`/`B2`
    /// respectively.
    fn pop_victim_entry(&mut self) -> Option<(K, u8)> {
        let t1 = self.lists.list_len(T1);
        let t2 = self.lists.list_len(T2);
        let ghosted = if t1 > 0 && (t1 > self.p || t2 == 0) {
            self.lists.transfer_back(T1, B1)
        } else if t2 > 0 {
            self.lists.transfer_back(T2, B2)
        } else {
            None
        };
        let victim =
            ghosted.map(|slot| (self.lists.key_at(slot).clone(), *self.lists.payload_at_mut(slot)));
        self.trim_ghosts();
        victim
    }

    /// Removes the key from whichever list holds it, leaving no ghost.
    fn remove_entry(&mut self, key: &K) -> Option<u8> {
        self.lists.remove(key).and_then(|(list, payload)| (list < B1).then_some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Touch-and-evict helper mimicking the cache's driving loop.
    fn fill(a: &mut ArcSet<u64>, keys: impl IntoIterator<Item = u64>, capacity: usize) {
        for k in keys {
            a.touch(k);
            while a.len() > capacity {
                a.pop_victim();
            }
        }
    }

    #[test]
    fn second_touch_promotes_to_frequent() {
        let mut a = ArcSet::with_capacity(4);
        assert!(a.touch(1));
        assert_eq!(a.frequent_len(), 0);
        assert!(!a.touch(1), "hit");
        assert_eq!(a.frequent_len(), 1, "re-reference moves T1 -> T2");
    }

    #[test]
    fn eviction_prefers_recency_list_and_leaves_a_ghost() {
        let mut a = ArcSet::with_capacity(4);
        a.touch(1);
        a.touch(1); // 1 in T2
        a.touch(2);
        a.touch(3); // 2, 3 in T1
        assert_eq!(a.pop_victim(), Some(2), "T1 LRU goes first");
        assert!(!a.contains(&2));
        assert_eq!(a.ghost_len(), 1, "victim ghosted into B1");
    }

    #[test]
    fn ghost_hit_adapts_and_resurrects_into_frequent() {
        let mut a = ArcSet::with_capacity(4);
        a.touch(1);
        a.touch(2);
        assert_eq!(a.pop_victim(), Some(1)); // 1 -> B1
        assert_eq!(a.recency_target(), 0);
        assert!(a.touch(1), "ghost hit is a miss (page must be fetched)");
        assert!(a.recency_target() > 0, "B1 hit grows the recency target");
        assert_eq!(a.frequent_len(), 1, "resurrected straight into T2");
        assert_eq!(a.ghost_len(), 0);
    }

    #[test]
    fn frequency_ghost_hit_shrinks_the_target() {
        let mut a = ArcSet::with_capacity(2);
        a.touch(1);
        a.touch(1); // 1 in T2
        a.touch(2); // T1: 2
        a.touch(3); // T1: 3,2
        a.pop_victim(); // 2 -> B1 (T1 over target)
        a.touch(2); // B1 hit: p grows
        let p_before = a.recency_target();
        assert!(p_before > 0);
        // Now evict from T2 by re-filling and force a B2 ghost hit.
        while a.len() > 1 {
            a.pop_victim();
        }
        // Find what landed in B2 — touch keys until the target shrinks.
        a.touch(1);
        assert!(a.recency_target() <= p_before, "B2 hit cannot grow the target");
    }

    #[test]
    fn scan_does_not_flush_the_frequent_working_set() {
        let capacity = 8;
        let mut a = ArcSet::with_capacity(capacity);
        // Build a hot set referenced twice -> T2, with B1 traffic having
        // taught p to favour recycling T1.
        for k in [100u64, 101, 102] {
            a.touch(k);
            a.touch(k);
        }
        // A long cold scan: every key seen exactly once.
        fill(&mut a, (0..1000).map(|k| k + 10_000), capacity);
        for k in [100u64, 101, 102] {
            assert!(a.contains(&k), "scan evicted hot page {k}");
        }
    }

    #[test]
    fn ghosts_stay_bounded() {
        let capacity = 8;
        let mut a = ArcSet::with_capacity(capacity);
        fill(&mut a, 0..10_000, capacity);
        assert!(a.ghost_len() <= 2 * capacity, "ghosts exceeded 2c: {}", a.ghost_len());
        assert!(a.len() <= capacity);
    }

    #[test]
    fn remove_clears_residents_and_ghosts() {
        let mut a = ArcSet::with_capacity(4);
        a.touch(1);
        a.touch(2);
        a.pop_victim(); // 1 -> B1
        assert!(!a.remove(&1), "ghost removal is not a resident removal");
        assert!(a.touch(1), "after ghost removal, 1 is a fresh T1 insert");
        assert_eq!(a.frequent_len(), 0, "fresh insert must not resurrect into T2");
        assert!(a.remove(&2));
        assert!(!a.remove(&99));
    }

    #[test]
    fn drain_returns_each_resident_once() {
        let mut a = ArcSet::with_capacity(8);
        a.touch(1);
        a.touch(1);
        a.touch(2);
        a.touch(3);
        let mut drained = Vec::new();
        while let Some(v) = a.pop_victim() {
            drained.push(v);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2, 3]);
        assert!(a.is_empty());
    }

    #[test]
    fn empty_set() {
        let mut a: ArcSet<u32> = ArcSet::with_capacity(0); // capacity clamped to 1
        assert!(a.is_empty());
        assert_eq!(a.pop_victim(), None);
        assert!(!a.contains(&1));
    }
}
