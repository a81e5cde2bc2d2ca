//! The intrusive multi-list core shared by every replacement policy.
//!
//! One slab of nodes, one key index, `N` doubly-linked lists threaded
//! through the slab by index. Every policy in this crate is a thin
//! state machine over this structure:
//!
//! - LRU and FIFO are a [`MultiList`] with one list,
//! - SIEVE adds a hand cursor and uses the per-node flag as its
//!   visited bit,
//! - SLRU splits residency across two lists (probationary/protected),
//! - 2Q uses three (trial, protected, ghost),
//! - ARC uses four (T1/T2 resident, B1/B2 ghost).
//!
//! The slab is also the cache's **page table**: each node carries a
//! caller-owned payload byte (the buffer cache keeps its dirty and
//! prefetched bits there), so the owning cache needs no map of its
//! own. A key is hashed once per operation — by [`MultiList::slot_of`],
//! [`MultiList::insert_front`] or [`MultiList::remove`] — and every
//! follow-up (payload access, promotion, relinking between segments)
//! goes through the returned slot: three index writes instead of
//! removing from one hash-backed list and inserting into another.
//! Freed slots go on an internal free list and are reused, so a cache
//! that has warmed up to its capacity never allocates again — the
//! property pinned by the counting-allocator gate in
//! `tests/perf_scaling.rs`.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use crate::hash::{mix_map_with_capacity, MixMap};

/// The [`PolicySet`](crate::policy::PolicySet) methods every policy
/// built on a [`MultiList`] forwards unchanged to the list in its
/// `$field`: the resident count, the resident-only lookup, slot
/// validation, payload access, the resident walk and the boxed clone.
macro_rules! forward_to_slab {
    ($field:ident) => {
        fn len(&self) -> usize {
            self.$field.resident_len()
        }

        fn lookup(&self, key: &K) -> Option<usize> {
            self.$field.resident_slot_of(key)
        }

        fn resident_key(&self, slot: usize) -> Option<&K> {
            self.$field.resident_key_at(slot)
        }

        fn payload_mut(&mut self, slot: usize) -> &mut u8 {
            self.$field.payload_at_mut(slot)
        }

        fn visit_residents(&mut self, visit: &mut dyn FnMut(&K, &mut u8)) {
            self.$field.for_each_resident(visit);
        }

        fn boxed_clone(&self) -> Box<dyn crate::policy::PolicySet<K>> {
            Box::new(self.clone())
        }
    };
}
pub(crate) use forward_to_slab;

/// Sentinel slot index meaning "no node".
pub const NIL: usize = usize::MAX;

/// `Node::list` tag of a slot that sits on the free list (never a valid
/// list index: `N` is at most a handful).
const FREE: u8 = u8::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
    /// Which of the `N` lists this node is linked into, or [`FREE`].
    list: u8,
    /// Policy-defined mark (SIEVE's visited bit; unused elsewhere).
    flag: bool,
    /// Caller-owned bits; the list never interprets them.
    payload: u8,
}

/// `N` intrusive doubly-linked lists over one slab and one key index.
/// Lists `0..R` hold *resident* keys, lists `R..N` ghosts (keys a
/// policy remembers after evicting them); `R` defaults to `N`.
///
/// Slots are stable: a node keeps its slab index for its whole
/// lifetime, however many times it moves between lists, so callers may
/// hold slot indices (SIEVE's hand, the cache's run cursor) across
/// operations — they are invalidated only by removing that very node,
/// which [`MultiList::resident_key_at`] detects.
///
/// Each list orders nodes front (most recently pushed) to back; which
/// end means "hot" is the policy's business.
#[derive(Debug, Clone)]
pub struct MultiList<K: Eq + Hash + Clone, const N: usize, const R: usize = N> {
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    index: MixMap<K, usize>,
    head: [usize; N],
    tail: [usize; N],
    len: [usize; N],
}

impl<K: Eq + Hash + Clone, const N: usize, const R: usize> MultiList<K, N, R> {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty structure pre-sized for `capacity` keys across
    /// all lists, so a policy that stays within it never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity.min(16)),
            index: mix_map_with_capacity(capacity),
            head: [NIL; N],
            tail: [NIL; N],
            len: [0; N],
        }
    }

    /// Total number of keys across all lists.
    pub fn total_len(&self) -> usize {
        self.index.len()
    }

    /// Number of keys in `list`.
    pub fn list_len(&self, list: usize) -> usize {
        self.len[list]
    }

    /// Number of keys across the resident lists `0..R`.
    pub fn resident_len(&self) -> usize {
        self.len[..R].iter().sum()
    }

    /// Whether no keys are tracked in any list.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The slab slot of `key`, if tracked (in any list).
    pub fn slot_of(&self, key: &K) -> Option<usize> {
        self.index.get(key).copied()
    }

    /// The slab slot of `key`, if it is in a resident list.
    pub fn resident_slot_of(&self, key: &K) -> Option<usize> {
        // `R == N` (no ghost lists) folds the filter away at compile time.
        self.slot_of(key).filter(|&slot| R == N || (self.nodes[slot].list as usize) < R)
    }

    /// Which list `key` is in, if tracked.
    pub fn which_list(&self, key: &K) -> Option<usize> {
        self.slot_of(key).map(|s| self.nodes[s].list as usize)
    }

    /// The key stored in `slot`.
    pub fn key_at(&self, slot: usize) -> &K {
        &self.nodes[slot].key
    }

    /// The key stored in `slot` if that slot currently holds a
    /// resident node — `None` for a ghost, a freed slot or an index
    /// past the slab. Comparing the result with a remembered key
    /// revalidates a remembered slot without hashing.
    pub fn resident_key_at(&self, slot: usize) -> Option<&K> {
        self.nodes.get(slot).filter(|n| (n.list as usize) < R).map(|n| &n.key)
    }

    /// Which list the node in `slot` is linked into.
    pub fn list_at(&self, slot: usize) -> usize {
        self.nodes[slot].list as usize
    }

    /// The policy flag of `slot`.
    pub fn flag_at(&self, slot: usize) -> bool {
        self.nodes[slot].flag
    }

    /// Sets the policy flag of `slot`.
    pub fn set_flag_at(&mut self, slot: usize, flag: bool) {
        self.nodes[slot].flag = flag;
    }

    /// The caller-owned payload byte of `slot`.
    pub fn payload_at_mut(&mut self, slot: usize) -> &mut u8 {
        &mut self.nodes[slot].payload
    }

    /// The slot before `slot` in its list (toward the front), or
    /// [`NIL`].
    pub fn prev_of(&self, slot: usize) -> usize {
        self.nodes[slot].prev
    }

    /// The slot after `slot` in its list (toward the back), or [`NIL`].
    pub fn next_of(&self, slot: usize) -> usize {
        self.nodes[slot].next
    }

    /// The front slot of `list`, or [`NIL`] when empty.
    pub fn head_of(&self, list: usize) -> usize {
        self.head[list]
    }

    /// The back slot of `list`, or [`NIL`] when empty.
    pub fn tail_of(&self, list: usize) -> usize {
        self.tail[list]
    }

    /// The key at the back of `list`, without removing it.
    pub fn peek_back(&self, list: usize) -> Option<&K> {
        (self.tail[list] != NIL).then(|| &self.nodes[self.tail[list]].key)
    }

    fn unlink(&mut self, slot: usize) {
        let list = self.nodes[slot].list as usize;
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            self.head[list] = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail[list] = prev;
        } else {
            self.nodes[next].prev = prev;
        }
        self.len[list] -= 1;
    }

    fn link_front(&mut self, slot: usize, list: usize) {
        let old_head = self.head[list];
        {
            let node = &mut self.nodes[slot];
            node.list = list as u8;
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head].prev = slot;
        }
        self.head[list] = slot;
        if self.tail[list] == NIL {
            self.tail[list] = slot;
        }
        self.len[list] += 1;
    }

    /// Unlinks `slot`, puts it on the free list and returns its payload.
    /// The index entry is the caller's to drop.
    fn release(&mut self, slot: usize) -> u8 {
        self.unlink(slot);
        self.nodes[slot].list = FREE;
        self.free.push(slot);
        self.nodes[slot].payload
    }

    /// Inserts `key` at the front of `list` with a clear flag and a
    /// zero payload, returning `(slot, true)` — or, if the key is
    /// already tracked (in any list), changes nothing and returns
    /// `(its slot, false)`. One hash probe either way.
    pub fn insert_front(&mut self, list: usize, key: K) -> (usize, bool) {
        let vacant = match self.index.entry(key) {
            Entry::Occupied(tracked) => return (*tracked.get(), false),
            Entry::Vacant(vacant) => vacant,
        };
        let node = Node {
            key: vacant.key().clone(),
            prev: NIL,
            next: NIL,
            list: 0,
            flag: false,
            payload: 0,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s] = node;
                s
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        vacant.insert(slot);
        self.link_front(slot, list);
        (slot, true)
    }

    /// Relinks the node in `slot` to the front of `list` (possibly a
    /// different list from the one it is in). O(1), no allocation, flag
    /// and payload preserved.
    pub fn promote(&mut self, slot: usize, list: usize) {
        if self.head[list] == slot {
            return; // already the front of the target list
        }
        self.unlink(slot);
        self.link_front(slot, list);
    }

    /// Removes the node at the back of `list`, freeing its slot, and
    /// returns its key and payload.
    pub fn pop_back(&mut self, list: usize) -> Option<(K, u8)> {
        let slot = self.tail[list];
        (slot != NIL).then(|| self.remove_slot(slot))
    }

    /// Moves the back node of `from` to the front of `to`, returning
    /// its slot (which it keeps). Its flag is cleared; its payload is
    /// preserved.
    pub fn transfer_back(&mut self, from: usize, to: usize) -> Option<usize> {
        let slot = self.tail[from];
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        self.nodes[slot].flag = false;
        self.link_front(slot, to);
        Some(slot)
    }

    /// Removes `key` entirely, returning which list it was in and its
    /// payload.
    pub fn remove(&mut self, key: &K) -> Option<(usize, u8)> {
        let slot = self.index.remove(key)?;
        let list = self.nodes[slot].list as usize;
        Some((list, self.release(slot)))
    }

    /// Removes the node in `slot` entirely, returning its key and
    /// payload.
    pub fn remove_slot(&mut self, slot: usize) -> (K, u8) {
        let payload = self.release(slot);
        let key = self.nodes[slot].key.clone();
        self.index.remove(&key);
        (key, payload)
    }

    /// Calls `visit` with the key and payload of every resident node,
    /// in slab order (a pure function of the operation history, not of
    /// any hash order). O(slab size).
    pub fn for_each_resident(&mut self, visit: &mut dyn FnMut(&K, &mut u8)) {
        for node in self.nodes.iter_mut().filter(|n| (n.list as usize) < R) {
            visit(&node.key, &mut node.payload);
        }
    }

    /// Keys of `list`, front to back (test/diagnostic helper; O(n)).
    pub fn iter(&self, list: usize) -> impl Iterator<Item = &K> {
        ListIter { multi: self, cur: self.head[list] }
    }
}

impl<K: Eq + Hash + Clone, const N: usize, const R: usize> Default for MultiList<K, N, R> {
    fn default() -> Self {
        Self::new()
    }
}

struct ListIter<'a, K: Eq + Hash + Clone, const N: usize, const R: usize> {
    multi: &'a MultiList<K, N, R>,
    cur: usize,
}

impl<'a, K: Eq + Hash + Clone, const N: usize, const R: usize> Iterator for ListIter<'a, K, N, R> {
    type Item = &'a K;
    fn next(&mut self) -> Option<&'a K> {
        if self.cur == NIL {
            return None;
        }
        let node = &self.multi.nodes[self.cur];
        self.cur = node.next;
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_pop_one_list() {
        let mut m: MultiList<u32, 1> = MultiList::new();
        m.insert_front(0, 1);
        m.insert_front(0, 2);
        m.insert_front(0, 3);
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![3, 2, 1]);
        assert_eq!(m.pop_back(0), Some((1, 0)));
        assert_eq!(m.pop_back(0), Some((2, 0)));
        assert_eq!(m.pop_back(0), Some((3, 0)));
        assert_eq!(m.pop_back(0), None);
        assert!(m.is_empty());
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut m: MultiList<u32, 2> = MultiList::new();
        let (slot, inserted) = m.insert_front(0, 7);
        assert!(inserted);
        assert_eq!(m.insert_front(1, 7), (slot, false), "key already tracked in list 0");
        assert_eq!(m.which_list(&7), Some(0));
        assert_eq!(m.total_len(), 1);
    }

    #[test]
    fn promote_within_and_across_lists() {
        let mut m: MultiList<u32, 2> = MultiList::new();
        for k in [1, 2, 3] {
            m.insert_front(0, k);
        }
        let s2 = m.slot_of(&2).unwrap();
        m.promote(s2, 0); // within-list MRU move
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![2, 3, 1]);
        m.promote(s2, 1); // cross-list move keeps the slot
        assert_eq!(m.slot_of(&2), Some(s2));
        assert_eq!(m.which_list(&2), Some(1));
        assert_eq!(m.list_len(0), 2);
        assert_eq!(m.list_len(1), 1);
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn promote_head_is_a_noop() {
        let mut m: MultiList<u32, 1> = MultiList::new();
        m.insert_front(0, 1);
        m.insert_front(0, 2);
        let head = m.slot_of(&2).unwrap();
        m.promote(head, 0);
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn transfer_back_moves_between_lists() {
        let mut m: MultiList<u32, 2> = MultiList::new();
        for k in [1, 2, 3] {
            m.insert_front(0, k);
        }
        let moved = m.transfer_back(0, 1).unwrap();
        assert_eq!(*m.key_at(moved), 1);
        assert_eq!(m.which_list(&1), Some(1));
        assert_eq!(m.list_len(0), 2);
        assert_eq!(m.peek_back(1), Some(&1));
        assert_eq!(m.transfer_back(1, 0), Some(moved), "the node keeps its slot");
        assert_eq!(m.which_list(&1), Some(0));
        assert_eq!(m.iter(0).copied().collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn flags_survive_promotion_but_not_transfer() {
        let mut m: MultiList<u32, 2> = MultiList::new();
        let (s, _) = m.insert_front(0, 9);
        m.set_flag_at(s, true);
        m.insert_front(0, 10);
        m.promote(s, 1);
        assert!(m.flag_at(s), "promote preserves the flag");
        m.transfer_back(1, 0);
        assert!(!m.flag_at(s), "transfer_back clears the flag");
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut m: MultiList<u32, 1> = MultiList::new();
        m.insert_front(0, 1);
        m.insert_front(0, 2);
        let s1 = m.slot_of(&1).unwrap();
        assert_eq!(m.remove(&1), Some((0, 0)));
        assert_eq!(m.remove(&1), None);
        let (s3, _) = m.insert_front(0, 3);
        assert_eq!(s3, s1, "freed slot reused");
        assert_eq!(m.total_len(), 2);
    }

    #[test]
    fn navigation_follows_links() {
        let mut m: MultiList<u32, 1> = MultiList::new();
        for k in [1, 2, 3] {
            m.insert_front(0, k);
        }
        let tail = m.tail_of(0);
        assert_eq!(*m.key_at(tail), 1);
        let mid = m.prev_of(tail);
        assert_eq!(*m.key_at(mid), 2);
        assert_eq!(m.prev_of(m.prev_of(mid)), NIL);
        assert_eq!(m.next_of(tail), NIL);
        assert_eq!(m.head_of(0), m.prev_of(mid));
    }

    #[test]
    fn payloads_follow_their_node_and_ghost_lists_are_not_resident() {
        // Two resident lists (0, 1) and one ghost list (2).
        let mut m: MultiList<u32, 3, 2> = MultiList::new();
        let (s, _) = m.insert_front(0, 9);
        *m.payload_at_mut(s) = 0b11;
        m.insert_front(0, 10);
        m.promote(s, 1);
        assert_eq!(*m.payload_at_mut(s), 0b11, "promote preserves the payload");
        assert_eq!(m.resident_slot_of(&9), Some(s));
        assert_eq!(m.resident_key_at(s), Some(&9));
        assert_eq!(m.resident_len(), 2);

        // Ghosted: still tracked, same slot, no longer resident.
        assert_eq!(m.transfer_back(1, 2), Some(s));
        assert_eq!(m.slot_of(&9), Some(s));
        assert_eq!(m.resident_slot_of(&9), None);
        assert_eq!(m.resident_key_at(s), None);
        assert_eq!(m.resident_len(), 1);
        let mut seen = Vec::new();
        m.for_each_resident(&mut |k, bits| seen.push((*k, *bits)));
        assert_eq!(seen, vec![(10, 0)], "the walk skips ghosts");

        // Removed: the payload comes back with the key, and the freed
        // slot no longer validates — nor does one past the slab.
        assert_eq!(m.remove_slot(s), (9, 0b11));
        assert_eq!(m.resident_key_at(s), None);
        assert_eq!(m.resident_key_at(99), None);
        let (reused, _) = m.insert_front(0, 11);
        assert_eq!(reused, s);
        assert_eq!(*m.payload_at_mut(reused), 0, "a reused slot starts with a zero payload");
        assert_eq!(m.resident_key_at(s), Some(&11), "same slot, different key");
    }
}
