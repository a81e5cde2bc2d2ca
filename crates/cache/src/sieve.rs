//! SIEVE (Zhang et al., NSDI'24): lazy promotion via a visited-bit
//! hand.
//!
//! SIEVE keeps one insertion-ordered list and a *hand* that sweeps from
//! the eviction end toward the insertion end. A hit only sets the
//! node's visited bit — it never moves the node, so the hit path is a
//! single hash probe and one bit write (cheaper than LRU's relink, and
//! trivially concurrent in real systems). At eviction the hand clears
//! visited bits as it sweeps and evicts the first unvisited node it
//! meets; survivors stay put, which quickly partitions the list into a
//! hot head region the hand rarely reaches and a cold tail it churns
//! through — scan resistance without ghost queues or tuning knobs.
//!
//! Built on [`crate::intrusive::MultiList`] (one list; the per-node
//! flag is the visited bit; the hand is a stable slab slot), so a warm
//! set performs zero allocation per access.

use std::fmt;

use crate::intrusive::{forward_to_slab, GroupKey, MultiList, NIL};
use crate::policy::PolicySet;

/// A SIEVE residency set over keys of type `K`.
#[derive(Debug, Clone, Default)]
pub struct SieveSet<K: GroupKey> {
    list: MultiList<K, 1>,
    /// Slab slot the next eviction sweep starts from; [`NIL`] restarts
    /// the sweep at the tail (the oldest key).
    hand: usize,
}

impl<K: GroupKey> SieveSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self { list: MultiList::new(), hand: NIL }
    }

    /// Creates an empty set pre-sized for `capacity` keys (bounded by
    /// [`crate::PREALLOC_PAGES_MAX`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { list: MultiList::with_capacity(capacity.min(crate::PREALLOC_PAGES_MAX)), hand: NIL }
    }
}

impl<K> PolicySet<K> for SieveSet<K>
where
    K: GroupKey + fmt::Debug + Send + 'static,
{
    fn with_capacity(capacity: usize) -> Self {
        SieveSet::with_capacity(capacity)
    }

    forward_to_slab!(list);

    /// Sets the visited bit without moving the node (lazy promotion).
    fn hit(&mut self, slot: usize) {
        self.list.set_flag_at(slot, true);
    }

    /// Inserts at the head with the visited bit clear.
    fn admit(&mut self, key: K, payload: u8) {
        let (slot, _) = self.list.insert_front(0, key);
        *self.list.payload_at_mut(slot) = payload;
    }

    /// Evicts and returns the victim chosen by the hand sweep: visited
    /// nodes on the way get their bit cleared and survive; the first
    /// unvisited node goes. The hand resumes from the survivor side on
    /// the next eviction.
    fn pop_victim_entry(&mut self) -> Option<(K, u8)> {
        if self.list.is_empty() {
            return None;
        }
        let mut slot = if self.hand == NIL { self.list.tail_of(0) } else { self.hand };
        // Terminates: each visited node is cleared exactly once per
        // sweep, and a full wrap re-reaches it cleared.
        while self.list.flag_at(slot) {
            self.list.set_flag_at(slot, false);
            let prev = self.list.prev_of(slot);
            slot = if prev == NIL { self.list.tail_of(0) } else { prev };
        }
        self.hand = self.list.prev_of(slot);
        Some(self.list.remove_slot(slot))
    }

    /// The hand steps over the removed node if it was parked on it.
    fn remove_entry(&mut self, key: &K) -> Option<u8> {
        let slot = self.list.slot_of(key)?;
        if self.hand == slot {
            self.hand = self.list.prev_of(slot);
        }
        Some(self.list.remove_slot(slot).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unvisited_keys_evict_in_fifo_order() {
        let mut s = SieveSet::new();
        for k in [1, 2, 3] {
            s.touch(k);
        }
        assert_eq!(s.pop_victim(), Some(1));
        assert_eq!(s.pop_victim(), Some(2));
        assert_eq!(s.pop_victim(), Some(3));
        assert_eq!(s.pop_victim(), None);
    }

    #[test]
    fn visited_keys_survive_one_sweep() {
        let mut s = SieveSet::new();
        for k in [1, 2, 3] {
            s.touch(k);
        }
        assert!(!s.touch(1), "hit, not an insert");
        assert_eq!(s.pop_victim(), Some(2), "1 was visited, survives");
        assert!(s.contains(&1));
        // 1's bit was cleared by that sweep and the hand moved past it:
        // the sweep continues toward the head, then wraps back to 1.
        assert_eq!(s.pop_victim(), Some(3));
        assert_eq!(s.pop_victim(), Some(1));
    }

    #[test]
    fn hits_do_not_reorder_the_list() {
        // Lazy promotion: repeated hits on the oldest key leave the
        // eviction order untouched until a sweep consumes the bit.
        let mut s = SieveSet::new();
        for k in [1, 2, 3] {
            s.touch(k);
        }
        s.touch(1);
        s.touch(1);
        s.touch(1); // idempotent: one bit, not a counter
        assert_eq!(s.pop_victim(), Some(2), "single bit survives exactly one sweep");
    }

    #[test]
    fn hand_resumes_where_it_left_off() {
        let mut s = SieveSet::new();
        for k in [1, 2, 3, 4] {
            s.touch(k);
        }
        s.touch(1); // visit the tail
        assert_eq!(s.pop_victim(), Some(2), "sweep cleared 1, evicted 2");
        s.touch(1); // re-visit 1 — but the hand is already past it
        assert_eq!(s.pop_victim(), Some(3), "hand resumes at 3, not from the tail");
    }

    #[test]
    fn all_visited_wraps_and_evicts_the_tail() {
        let mut s = SieveSet::new();
        for k in [1, 2, 3] {
            s.touch(k);
            s.touch(k); // visit everything
        }
        assert_eq!(s.pop_victim(), Some(1), "full wrap clears all bits, tail goes");
    }

    #[test]
    fn remove_moves_the_hand_off_the_node() {
        let mut s = SieveSet::new();
        for k in [1, 2, 3, 4] {
            s.touch(k);
        }
        s.touch(1);
        assert_eq!(s.pop_victim(), Some(2)); // hand now parked at 3
        assert!(s.remove(&3), "remove the node under the hand");
        assert_eq!(s.pop_victim(), Some(4), "sweep continues cleanly past the removal");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_set() {
        let mut s: SieveSet<u32> = SieveSet::new();
        assert!(s.is_empty());
        assert_eq!(s.pop_victim(), None);
        assert!(!s.remove(&1));
    }
}
