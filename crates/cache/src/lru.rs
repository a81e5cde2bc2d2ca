//! An O(1) least-recently-used list.
//!
//! A single-list view over the intrusive slab core
//! ([`crate::intrusive::MultiList`]). The cache touches a page on every
//! hit, so all operations — touch, insert, evict-oldest, remove — must
//! be constant-time; a `VecDeque` scan would turn trace replay into
//! O(n²). A warm list also never allocates: hits relink the node in
//! place and evictions recycle slots through the slab's free list.

use std::fmt;

use crate::intrusive::{forward_to_slab, GroupKey, MultiList};
use crate::policy::PolicySet;

/// An LRU ordering over keys of type `K`.
///
/// The list orders keys from most- to least-recently used; each key's
/// payload byte lives in its node (the cache keeps page state there).
#[derive(Debug, Clone, Default)]
pub struct LruList<K: GroupKey> {
    inner: MultiList<K, 1>,
}

impl<K: GroupKey> LruList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self { inner: MultiList::new() }
    }

    /// Creates an empty list pre-sized for `capacity` keys (bounded by
    /// [`crate::PREALLOC_PAGES_MAX`]), so a cache that fills to its
    /// configured size never rehashes or regrows in the replay hot
    /// loop.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { inner: MultiList::with_capacity(capacity.min(crate::PREALLOC_PAGES_MAX)) }
    }

    /// The least-recently used key, without removing it.
    pub fn peek_oldest(&self) -> Option<&K> {
        self.inner.peek_back(0)
    }

    /// Keys from most- to least-recently used (test/diagnostic helper;
    /// O(n)).
    pub fn iter_mru(&self) -> impl Iterator<Item = &K> {
        self.inner.iter(0)
    }
}

impl<K> PolicySet<K> for LruList<K>
where
    K: GroupKey + fmt::Debug + Send + 'static,
{
    fn with_capacity(capacity: usize) -> Self {
        LruList::with_capacity(capacity)
    }

    forward_to_slab!(inner);

    /// Moves the key to the most-recently-used end.
    fn hit(&mut self, slot: usize) {
        self.inner.promote(slot, 0);
    }

    /// Inserts as most-recently used.
    fn admit(&mut self, key: K, payload: u8) {
        let (slot, _) = self.inner.insert_front(0, key);
        *self.inner.payload_at_mut(slot) = payload;
    }

    /// Removes and returns the least-recently used key.
    fn pop_victim_entry(&mut self) -> Option<(K, u8)> {
        self.inner.pop_back(0)
    }

    fn remove_entry(&mut self, key: &K) -> Option<u8> {
        self.inner.remove(key).map(|(_, payload)| payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn touch_inserts_and_promotes() {
        let mut l = LruList::new();
        assert!(l.touch(1));
        assert!(l.touch(2));
        assert!(l.touch(3));
        assert!(!l.touch(1), "re-touch is not an insert");
        assert_eq!(l.iter_mru().copied().collect::<Vec<_>>(), vec![1, 3, 2]);
        assert_eq!(l.peek_oldest(), Some(&2));
    }

    #[test]
    fn pop_oldest_order() {
        let mut l = LruList::new();
        for i in 0..5 {
            l.touch(i);
        }
        assert_eq!(l.pop_victim(), Some(0));
        assert_eq!(l.pop_victim(), Some(1));
        l.touch(2); // promote 2
        assert_eq!(l.pop_victim(), Some(3));
        assert_eq!(l.pop_victim(), Some(4));
        assert_eq!(l.pop_victim(), Some(2));
        assert_eq!(l.pop_victim(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn remove_specific() {
        let mut l = LruList::new();
        for i in 0..4 {
            l.touch(i);
        }
        assert!(l.remove(&2));
        assert!(!l.remove(&2));
        assert!(!l.contains(&2));
        assert_eq!(l.len(), 3);
        assert_eq!(l.iter_mru().copied().collect::<Vec<_>>(), vec![3, 1, 0]);
    }

    #[test]
    fn slot_reuse_after_remove() {
        let mut l = LruList::new();
        l.touch("a");
        l.touch("b");
        l.remove(&"a");
        l.touch("c"); // reuses a's slot
        assert_eq!(l.len(), 2);
        assert_eq!(l.iter_mru().copied().collect::<Vec<_>>(), vec!["c", "b"]);
    }

    #[test]
    fn single_element_list() {
        let mut l = LruList::new();
        l.touch(42);
        assert_eq!(l.peek_oldest(), Some(&42));
        l.touch(42); // self-promotion must not corrupt links
        assert_eq!(l.pop_victim(), Some(42));
        assert_eq!(l.pop_victim(), None);
    }

    proptest! {
        #[test]
        fn matches_reference_model(ops in prop::collection::vec((0u8..3, 0u32..16), 0..200)) {
            let mut lru = LruList::new();
            let mut model: VecDeque<u32> = VecDeque::new(); // front = MRU
            for (op, key) in ops {
                match op {
                    0 => {
                        lru.touch(key);
                        model.retain(|&k| k != key);
                        model.push_front(key);
                    }
                    1 => {
                        let a = lru.pop_victim();
                        let b = model.pop_back();
                        prop_assert_eq!(a, b);
                    }
                    _ => {
                        let a = lru.remove(&key);
                        let before = model.len();
                        model.retain(|&k| k != key);
                        prop_assert_eq!(a, model.len() != before);
                    }
                }
                prop_assert_eq!(lru.len(), model.len());
                let got: Vec<u32> = lru.iter_mru().copied().collect();
                let want: Vec<u32> = model.iter().copied().collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
