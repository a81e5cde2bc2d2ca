//! Replacement policies and the [`PolicySet`] abstraction they share.
//!
//! The paper's platform (the NT cache manager) approximates LRU; this
//! module names the alternatives the ablation benches compare against
//! and defines the one interface they all answer to:
//!
//! - [`PolicySet`] — the object-safe residency-set trait every policy
//!   implements: a key-level surface (`touch` / `insert` /
//!   `pop_victim` / `remove` / `contains` / `len`, plus the crate-wide
//!   `with_capacity` constructor convention) provided on top of a
//!   slot-level one (`lookup` / `payload_mut` / `hit` / `admit` /
//!   `pop_victim_entry` / `remove_entry` / `visit_residents` /
//!   `remove_groups_where`) that
//!   makes the policy's slab the owning cache's page table,
//! - [`ReplacementPolicy`] — the serializable policy selector whose
//!   one match is the **single registry point** mapping a selector to
//!   a policy: [`ReplacementPolicy::build`] boxes it as a key-level
//!   `dyn PolicySet`, and the cache builds its compiled page table from
//!   the same arms,
//! - [`ClockSet`] — the second-chance/CLOCK approximation of LRU
//!   (reference bits swept by a hand),
//! - [`FifoSet`] — pure insertion-order eviction (no recency at all).
//!
//! The remaining policies live in their own modules:
//! [`crate::lru::LruList`], [`crate::scanres::TwoQSet`],
//! [`crate::scanres::SlruSet`], [`crate::sieve::SieveSet`] and
//! [`crate::arc::ArcSet`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::arc::ArcSet;
use crate::intrusive::{self, forward_to_slab, GroupIndex, GroupKey, MultiList};
use crate::lru::LruList;
use crate::scanres::{SlruSet, TwoQSet};
use crate::sieve::SieveSet;

/// The residency-set interface every replacement policy implements.
///
/// A policy set tracks *which* keys are resident and decides *what* to
/// evict; the owning cache decides *when* (by calling
/// [`PolicySet::pop_victim_entry`] until it is under budget). That
/// split keeps a shard's eviction stream a pure function of its own
/// access subsequence — the property `tests/cache_properties.rs` pins
/// for every policy.
///
/// The set is also the cache's page table. Every resident key owns a
/// *slot* carrying one caller-defined payload byte, and the slot-level
/// methods let the cache hash a key once and do everything else by
/// slot: [`PolicySet::lookup`] is the one probe of a hit, a miss that
/// evicts costs at most three (lookup, the victim's index entry, the
/// newcomer's — plus one per ghost a ghost-keeping policy trims), and
/// a remembered slot is revalidated by [`PolicySet::resident_key`]
/// with no probe at all. A slot stays valid until its key leaves the
/// resident set. The key-level methods are provided on top.
///
/// Implementations are selected at exactly one place, the match in
/// [`ReplacementPolicy::build`]. Everyone outside the cache uses them as
/// `Box<dyn PolicySet<K>>`, one dynamic call per set operation, and
/// this key-level surface is unchanged for them. The cache does not:
/// its page level is compiled against each concrete set (see
/// [`crate::cache`]), so its dynamic boundary sits one level up, at a
/// block run of pages, and the set's methods inline into the page step.
pub trait PolicySet<K>: fmt::Debug + Send {
    /// Creates an empty set sized for a cache of `capacity` keys (the
    /// crate-wide constructor convention; implementations bound their
    /// preallocation by [`crate::PREALLOC_PAGES_MAX`]).
    fn with_capacity(capacity: usize) -> Self
    where
        Self: Sized;

    /// Number of resident keys (ghost/shadow entries never count).
    fn len(&self) -> usize;

    /// Whether no keys are resident.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot of `key` if it is resident (a ghost is not).
    fn lookup(&self, key: &K) -> Option<usize>;

    /// The key held by `slot` if that slot currently holds a resident
    /// key; `None` once the key has been evicted, removed or ghosted.
    fn resident_key(&self, slot: usize) -> Option<&K>;

    /// The payload byte of the resident key in `slot`.
    fn payload_mut(&mut self, slot: usize) -> &mut u8;

    /// Records a reference to the resident key in `slot` — what
    /// [`PolicySet::touch`] does on a hit, without hashing.
    fn hit(&mut self, slot: usize);

    /// Makes a key that is not resident resident with `payload` — what
    /// [`PolicySet::touch`] does on a miss, ghost hits included. (If
    /// the key *is* resident only its payload is replaced.)
    fn admit(&mut self, key: K, payload: u8);

    /// Evicts the policy's chosen victim and returns it with its
    /// payload, or `None` when nothing is resident.
    fn pop_victim_entry(&mut self) -> Option<(K, u8)>;

    /// Removes a specific key (used when a file closes and its pages
    /// are purged), forgetting any ghost of it too; returns the payload
    /// if a *resident* entry was removed.
    fn remove_entry(&mut self, key: &K) -> Option<u8>;

    /// Calls `visit` with every resident key and its payload, in an
    /// order that is a pure function of the operation history.
    fn visit_residents(&mut self, visit: &mut dyn FnMut(&K, &mut u8));

    /// Removes every resident key whose [group](GroupKey::group)
    /// `select` accepts, each through [`PolicySet::remove_entry`], and
    /// hands each removed payload to `removed`. `select` and `order`
    /// judge a group by the key that stands for it
    /// ([`GroupKey::from_group`]). Keys go group by group, in the order
    /// `order` ranks the groups, and lane by lane inside a group —
    /// ascending key order for a key whose groups rank like its keys,
    /// as a page id's do. A file's close is this call.
    ///
    /// Allocates nothing while the selected groups fit the set's
    /// reservation (the slab's group count).
    fn remove_groups_where(
        &mut self,
        select: &dyn Fn(&K) -> bool,
        order: &dyn Fn(&K, &K) -> std::cmp::Ordering,
        removed: &mut dyn FnMut(u8),
    );

    /// Whether `key` is resident.
    fn contains(&self, key: &K) -> bool {
        self.lookup(key).is_some()
    }

    /// Records a reference to `key`, inserting it (with a zero
    /// payload) if absent. Returns `true` if the key was not resident
    /// before (the caller must fetch the page).
    fn touch(&mut self, key: K) -> bool {
        match self.lookup(&key) {
            Some(slot) => {
                self.hit(slot);
                false
            }
            None => {
                self.admit(key, 0);
                true
            }
        }
    }

    /// Inserts `key` without distinguishing it from a touch (policies
    /// that treat first-insert specially already do so inside
    /// [`PolicySet::admit`]).
    fn insert(&mut self, key: K) -> bool {
        self.touch(key)
    }

    /// [`PolicySet::pop_victim_entry`] without the payload.
    fn pop_victim(&mut self) -> Option<K> {
        self.pop_victim_entry().map(|(key, _)| key)
    }

    /// [`PolicySet::remove_entry`] without the payload: whether a
    /// *resident* entry was removed.
    fn remove(&mut self, key: &K) -> bool {
        self.remove_entry(key).is_some()
    }

    /// Clones the set behind the object; lets `Box<dyn PolicySet<K>>`
    /// implement `Clone` so caches stay cheaply copyable in tests.
    fn boxed_clone(&self) -> Box<dyn PolicySet<K>>;
}

impl<K> Clone for Box<dyn PolicySet<K>> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Which replacement policy the cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Exact least-recently-used (the default; NT-like).
    #[default]
    Lru,
    /// CLOCK / second chance.
    Clock,
    /// First-in first-out.
    Fifo,
    /// 2Q (Johnson & Shasha): scan-resistant trial/ghost/protected
    /// queues ([`crate::scanres::TwoQSet`]).
    TwoQ,
    /// Segmented LRU: probationary + protected segments
    /// ([`crate::scanres::SlruSet`]).
    Slru,
    /// SIEVE (Zhang et al.): lazy promotion via a visited-bit hand
    /// ([`crate::sieve::SieveSet`]).
    Sieve,
    /// ARC (Megiddo & Modha): adaptive recency/frequency lists with
    /// ghost-driven tuning ([`crate::arc::ArcSet`]).
    Arc,
}

impl ReplacementPolicy {
    /// All policies, in ablation order.
    pub const ALL: [ReplacementPolicy; 7] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Clock,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TwoQ,
        ReplacementPolicy::Slru,
        ReplacementPolicy::Sieve,
        ReplacementPolicy::Arc,
    ];

    /// Short display name for bench rows.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Clock => "CLOCK",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::TwoQ => "2Q",
            ReplacementPolicy::Slru => "SLRU",
            ReplacementPolicy::Sieve => "SIEVE",
            ReplacementPolicy::Arc => "ARC",
        }
    }

    /// Builds the residency set this selector names, sized for a cache
    /// of `capacity` keys, as a key-level `dyn PolicySet` — how every
    /// user outside the cache gets a policy. The cache builds its page
    /// table from the same (crate-private) match this boxes through.
    pub fn build<K>(self, capacity: usize) -> Box<dyn PolicySet<K>>
    where
        K: GroupKey + fmt::Debug + Send + 'static,
    {
        struct Boxed;
        impl<K: 'static> SetBuilder<K> for Boxed {
            type Built = Box<dyn PolicySet<K>>;
            fn build<P: PolicySet<K> + Clone + 'static>(capacity: usize) -> Self::Built {
                Box::new(P::with_capacity(capacity))
            }
        }
        self.build_with::<K, Boxed>(capacity)
    }

    /// Hands the concrete set type this selector names to `B`.
    ///
    /// This is the **single registry point** from selector to
    /// implementation: [`ReplacementPolicy::build`] boxes the set as a
    /// key-level `dyn PolicySet`, the cache's page level compiles its
    /// transitions against it (see [`crate::cache`]), and adding a
    /// policy means one new enum variant and one new arm here.
    pub(crate) fn build_with<K, B>(self, capacity: usize) -> B::Built
    where
        K: GroupKey + fmt::Debug + Send + 'static,
        B: SetBuilder<K>,
    {
        match self {
            ReplacementPolicy::Lru => B::build::<LruList<K>>(capacity),
            ReplacementPolicy::Clock => B::build::<ClockSet<K>>(capacity),
            ReplacementPolicy::Fifo => B::build::<FifoSet<K>>(capacity),
            ReplacementPolicy::TwoQ => B::build::<TwoQSet<K>>(capacity),
            ReplacementPolicy::Slru => B::build::<SlruSet<K>>(capacity),
            ReplacementPolicy::Sieve => B::build::<SieveSet<K>>(capacity),
            ReplacementPolicy::Arc => B::build::<ArcSet<K>>(capacity),
        }
    }
}

/// What [`ReplacementPolicy::build_with`] does with the set type a
/// selector names: a visitor over the seven concrete types, so code that
/// needs the type itself (not a `dyn PolicySet`) shares the one match.
pub(crate) trait SetBuilder<K> {
    /// What building produces.
    type Built;

    /// Builds from set type `P`, sized for a cache of `capacity` keys.
    fn build<P: PolicySet<K> + Clone + 'static>(capacity: usize) -> Self::Built;
}

/// How writes interact with the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WritePolicy {
    /// Dirty pages are written back at eviction/close (the default;
    /// what makes the paper's closes slow).
    #[default]
    WriteBack,
    /// Every write goes straight through: the write operation itself
    /// pays the writeback cost and pages are never dirty.
    WriteThrough,
}

#[derive(Debug, Clone)]
struct ClockEntry<K> {
    key: K,
    /// The key's group slot in the index (see [`GroupIndex::remove_at`]).
    group: u32,
    referenced: bool,
    payload: u8,
}

/// A position of the CLOCK buffer.
#[derive(Debug, Clone)]
enum ClockSlot<K> {
    /// A resident key.
    Live(ClockEntry<K>),
    /// A freed position, naming the position freed before it (or
    /// [`NO_SLOT`]): the free list threads through the buffer.
    Free(u32),
}

/// The end of [`ClockSet`]'s free list.
const NO_SLOT: u32 = u32::MAX;

/// CLOCK (second chance): a circular buffer of entries with reference
/// bits; the hand sweeps, clearing bits, and evicts the first clear one.
///
/// CLOCK keeps its dedicated circular-buffer layout rather than the
/// intrusive list core: its hand walks *positions*, not links, and the
/// slot array is already allocation-free once warm. A slot is a
/// position in that buffer; the payload byte sits beside the reference
/// bit.
#[derive(Debug, Clone)]
pub struct ClockSet<K: GroupKey> {
    entries: Vec<ClockSlot<K>>,
    index: GroupIndex<K>,
    /// The most recently freed position, or [`NO_SLOT`]: reuse is
    /// last-in, first-out.
    free: u32,
    hand: usize,
    /// What [`PolicySet::payload_mut`] hands out for a slot that holds
    /// no key (a caller bug the trait has no error channel for): a byte
    /// nobody reads, where a list-based set hands out the freed node's.
    scratch: u8,
}

impl<K: GroupKey> ClockSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty set pre-sized for `capacity` keys (bounded by
    /// [`crate::PREALLOC_PAGES_MAX`]).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.min(crate::PREALLOC_PAGES_MAX);
        Self {
            entries: Vec::with_capacity(capacity),
            index: GroupIndex::with_capacity(capacity),
            free: NO_SLOT,
            hand: 0,
            scratch: 0,
        }
    }

    /// The entry in `slot`, if it holds a key.
    #[inline]
    fn entry_mut(&mut self, slot: usize) -> Option<&mut ClockEntry<K>> {
        match self.entries.get_mut(slot)? {
            ClockSlot::Live(entry) => Some(entry),
            ClockSlot::Free(_) => None,
        }
    }

    /// Frees position `slot` and returns its entry, if it holds one.
    fn release(&mut self, slot: usize) -> Option<ClockEntry<K>> {
        match std::mem::replace(&mut self.entries[slot], ClockSlot::Free(self.free)) {
            ClockSlot::Live(entry) => {
                self.free = slot as u32;
                self.index.remove_at(entry.group, &entry.key);
                Some(entry)
            }
            free => {
                self.entries[slot] = free;
                None
            }
        }
    }
}

impl<K: GroupKey> Default for ClockSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> PolicySet<K> for ClockSet<K>
where
    K: GroupKey + fmt::Debug + Send + 'static,
{
    fn with_capacity(capacity: usize) -> Self {
        ClockSet::with_capacity(capacity)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn lookup(&self, key: &K) -> Option<usize> {
        self.index.get(key)
    }

    fn resident_key(&self, slot: usize) -> Option<&K> {
        match self.entries.get(slot)? {
            ClockSlot::Live(entry) => Some(&entry.key),
            ClockSlot::Free(_) => None,
        }
    }

    fn payload_mut(&mut self, slot: usize) -> &mut u8 {
        match self.entries.get_mut(slot) {
            Some(ClockSlot::Live(e)) => &mut e.payload,
            _ => &mut self.scratch,
        }
    }

    /// Sets the reference bit.
    fn hit(&mut self, slot: usize) {
        if let Some(e) = self.entry_mut(slot) {
            e.referenced = true;
        }
    }

    /// Inserts referenced, reusing a freed position if there is one.
    fn admit(&mut self, key: K, payload: u8) {
        let (entries, free) = (&mut self.entries, &mut self.free);
        let (slot, inserted) = self.index.get_or_insert_with(&key, |group| {
            let entry =
                ClockSlot::Live(ClockEntry { key: key.clone(), group, referenced: true, payload });
            let slot = *free;
            if slot == NO_SLOT {
                entries.push(entry);
                entries.len() - 1
            } else {
                let slot = slot as usize;
                if let ClockSlot::Free(next) = entries[slot] {
                    *free = next;
                }
                entries[slot] = entry;
                slot
            }
        });
        if !inserted {
            if let Some(e) = self.entry_mut(slot) {
                e.payload = payload;
            }
        }
    }

    /// Evicts the victim chosen by the clock sweep.
    fn pop_victim_entry(&mut self) -> Option<(K, u8)> {
        if self.index.is_empty() {
            return None;
        }
        loop {
            self.hand %= self.entries.len();
            let slot = self.hand;
            self.hand = (self.hand + 1) % self.entries.len();
            match &mut self.entries[slot] {
                ClockSlot::Live(e) if e.referenced => e.referenced = false,
                ClockSlot::Live(_) => return self.release(slot).map(|e| (e.key, e.payload)),
                ClockSlot::Free(_) => {}
            }
        }
    }

    fn remove_entry(&mut self, key: &K) -> Option<u8> {
        let slot = self.index.get(key)?;
        self.release(slot).map(|e| e.payload)
    }

    fn visit_residents(&mut self, visit: &mut dyn FnMut(&K, &mut u8)) {
        for slot in &mut self.entries {
            if let ClockSlot::Live(e) = slot {
                visit(&e.key, &mut e.payload);
            }
        }
    }

    fn remove_groups_where(
        &mut self,
        select: &dyn Fn(&K) -> bool,
        order: &dyn Fn(&K, &K) -> std::cmp::Ordering,
        removed: &mut dyn FnMut(u8),
    ) {
        intrusive::remove_groups_where(self, |set| &mut set.index, select, order, removed);
    }

    fn boxed_clone(&self) -> Box<dyn PolicySet<K>> {
        Box::new(self.clone())
    }
}

/// FIFO: eviction in insertion order, re-touching never promotes.
///
/// A single intrusive list where hits do nothing: the front is the
/// newest insert, the back the next victim. Rebasing on
/// [`crate::intrusive::MultiList`] (from the old `VecDeque` + lazy
/// ghost map) makes `remove` eager — no stale queue entries to skip —
/// and the warm set allocation-free.
#[derive(Debug, Clone, Default)]
pub struct FifoSet<K: GroupKey> {
    inner: MultiList<K, 1>,
}

impl<K: GroupKey> FifoSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self { inner: MultiList::new() }
    }

    /// Creates an empty set pre-sized for `capacity` keys (bounded by
    /// [`crate::PREALLOC_PAGES_MAX`]).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { inner: MultiList::with_capacity(capacity.min(crate::PREALLOC_PAGES_MAX)) }
    }
}

impl<K> PolicySet<K> for FifoSet<K>
where
    K: GroupKey + fmt::Debug + Send + 'static,
{
    fn with_capacity(capacity: usize) -> Self {
        FifoSet::with_capacity(capacity)
    }

    forward_to_slab!(inner);

    /// FIFO never reorders on re-touch.
    fn hit(&mut self, _slot: usize) {}

    fn admit(&mut self, key: K, payload: u8) {
        let (slot, _) = self.inner.insert_front(0, key);
        *self.inner.payload_at_mut(slot) = payload;
    }

    /// Evicts the oldest resident key.
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
    use std::hash::Hash;

    #[test]
    fn clock_second_chance() {
        let mut c = ClockSet::new();
        c.touch(1);
        c.touch(2);
        c.touch(3);
        // First sweep clears all reference bits, second evicts 1.
        assert_eq!(c.pop_victim(), Some(1));
        // 2 is next unless re-touched.
        c.touch(2);
        assert_eq!(c.pop_victim(), Some(3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clock_referenced_pages_survive_one_sweep() {
        let mut c = ClockSet::new();
        for i in 0..4 {
            c.touch(i);
        }
        c.pop_victim(); // evicts 0 after clearing everyone
        c.touch(1); // re-reference 1
        assert_eq!(c.pop_victim(), Some(2), "1 got its second chance");
    }

    #[test]
    fn clock_remove_and_reuse() {
        let mut c = ClockSet::new();
        c.touch("a");
        c.touch("b");
        assert!(c.remove(&"a"));
        assert!(!c.remove(&"a"));
        assert!(!c.contains(&"a"));
        c.touch("c");
        assert_eq!(c.len(), 2);
        // Victim selection skips the tombstoned slot.
        assert!(c.pop_victim().is_some());
    }

    #[test]
    fn clock_empty() {
        let mut c: ClockSet<u32> = ClockSet::new();
        assert!(c.is_empty());
        assert_eq!(c.pop_victim(), None);
    }

    #[test]
    fn fifo_order_is_insertion() {
        let mut f = FifoSet::new();
        f.touch(1);
        f.touch(2);
        f.touch(1); // re-touch does not promote
        f.touch(3);
        assert_eq!(f.pop_victim(), Some(1));
        assert_eq!(f.pop_victim(), Some(2));
        assert_eq!(f.pop_victim(), Some(3));
        assert_eq!(f.pop_victim(), None);
    }

    #[test]
    fn fifo_remove_leaves_no_ghosts() {
        let mut f = FifoSet::new();
        f.touch(1);
        f.touch(2);
        assert!(f.remove(&1));
        assert_eq!(f.len(), 1);
        assert_eq!(f.pop_victim(), Some(2), "stale queue head skipped");
        assert!(f.is_empty());
    }

    #[test]
    fn policies_serde() {
        let p: ReplacementPolicy = serde_json::from_str("\"Clock\"").unwrap();
        assert_eq!(p, ReplacementPolicy::Clock);
        let w: WritePolicy = serde_json::from_str("\"WriteThrough\"").unwrap();
        assert_eq!(w, WritePolicy::WriteThrough);
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
        assert_eq!(WritePolicy::default(), WritePolicy::WriteBack);
        // The new variants round-trip and ALL covers all seven.
        for policy in ReplacementPolicy::ALL {
            let json = serde_json::to_string(&policy).unwrap();
            let back: ReplacementPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, policy, "serde round-trip for {}", policy.name());
        }
        let s: ReplacementPolicy = serde_json::from_str("\"Sieve\"").unwrap();
        assert_eq!(s, ReplacementPolicy::Sieve);
        let a: ReplacementPolicy = serde_json::from_str("\"Arc\"").unwrap();
        assert_eq!(a, ReplacementPolicy::Arc);
        assert_eq!(ReplacementPolicy::ALL.len(), 7);
    }

    #[test]
    fn registry_builds_every_policy() {
        for policy in ReplacementPolicy::ALL {
            let mut set: Box<dyn PolicySet<u64>> = policy.build(8);
            assert!(set.is_empty(), "{} starts empty", policy.name());
            assert!(set.touch(1), "{}: first touch inserts", policy.name());
            assert!(!set.touch(1), "{}: second touch hits", policy.name());
            assert!(set.contains(&1));
            assert_eq!(set.len(), 1);
            assert!(set.insert(2), "{}: insert of a new key", policy.name());
            assert!(set.remove(&2), "{}: remove a resident key", policy.name());
            assert_eq!(set.pop_victim(), Some(1), "{}: sole key is the victim", policy.name());
            assert_eq!(set.pop_victim(), None);
        }
    }

    #[test]
    fn boxed_policy_sets_clone_independently() {
        let mut original: Box<dyn PolicySet<u64>> = ReplacementPolicy::Lru.build(8);
        original.touch(1);
        let mut copy = original.clone();
        copy.touch(2);
        assert_eq!(original.len(), 1, "clone must not alias the original");
        assert_eq!(copy.len(), 2);
    }

    /// A key whose `Hash` impl counts its invocations: every table
    /// probe, insert and removal of the index hashes one key exactly
    /// once. One lane per group, like every key that is not a page id.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Counted(u64);

    /// [`Counted`] under `PageId`'s split: eight consecutive values
    /// share a group.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct CountedPage(Counted);

    thread_local! {
        static HASHES: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    crate::intrusive::one_lane_keys!(Counted);

    impl GroupKey for CountedPage {
        type Group = Self;

        fn group(&self) -> Self {
            CountedPage(Counted(self.0 .0 / 8))
        }

        fn lane(&self) -> usize {
            (self.0 .0 % 8) as usize
        }

        fn from_group(group: &Self) -> Self {
            group.clone()
        }
    }

    impl Hash for Counted {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            HASHES.with(|h| h.set(h.get() + 1));
            self.0.hash(state);
        }
    }

    fn hashes_during(work: impl FnOnce()) -> u32 {
        let before = HASHES.with(|h| h.get());
        work();
        HASHES.with(|h| h.get()) - before
    }

    /// The hash-op budget of the group index under every policy, for
    /// keys `key(0), key(1), ..` of which `lanes` consecutive ones
    /// share a group.
    fn probe_budget<K>(key: impl Fn(u64) -> K, lanes: u64)
    where
        K: GroupKey + fmt::Debug + Send + 'static,
    {
        const CAPACITY: u64 = 64;
        for policy in ReplacementPolicy::ALL {
            let name = format!("{} x {lanes} lanes", policy.name());
            let full = || {
                let mut set: Box<dyn PolicySet<K>> = policy.build(CAPACITY as usize);
                for k in 0..CAPACITY {
                    set.touch(key(k));
                }
                set
            };

            // A sequential miss run of one group's keys at capacity:
            // the failed lookup of the first, its group entering the
            // table, and one old group leaving it as its last key is
            // evicted (ghost-keeping policies relink the victim and
            // drop their oldest ghost instead) — three for the run, not
            // three per key. Long enough for 2Q and ARC to fill and
            // trim their ghost lists, and to re-admit keys they still
            // hold ghosts of.
            //
            // Not ours to budget: once tombstones have used up its
            // spare room, std's table rehashes every group in place on
            // the next insert. That is the only thing allowed over
            // three, and it must stay rare.
            let mut set = full();
            let runs = 8 * CAPACITY;
            let mut table_rehashes = 0;
            for run in 0..runs {
                let first = CAPACITY + (run * lanes) % (3 * CAPACITY);
                let probes = hashes_during(|| {
                    for k in first..first + lanes {
                        if set.lookup(&key(k)).is_none() {
                            set.pop_victim_entry().expect("a full set has a victim");
                            set.admit(key(k), 0);
                        }
                    }
                });
                if probes > 3 {
                    assert!(
                        probes as u64 > CAPACITY / lanes,
                        "{name}: {probes} hashes for one run"
                    );
                    table_rehashes += 1;
                }
                assert_eq!(set.len(), CAPACITY as usize);
            }
            assert!(table_rehashes <= runs / 100, "{name}: {table_rehashes} rehashes");

            // A hit costs one hash when it changes the group (the fill
            // left the last one current) and none inside the current
            // group, by key or by slot. (On a set of its own: hits
            // promote, and a promoted key leaves its group's turn.)
            let mut set = full();
            let neighbour = u32::from(lanes == 1);
            assert_eq!(hashes_during(|| assert!(!set.touch(key(8)))), 1, "{name}: new group");
            assert_eq!(hashes_during(|| assert!(!set.touch(key(8)))), 0, "{name}: same key");
            assert_eq!(hashes_during(|| assert!(!set.touch(key(9)))), neighbour, "{name}: touch");
            let mut slot = 0;
            let probes = hashes_during(|| {
                slot = set.lookup(&key(10)).expect("resident");
                *set.payload_mut(slot) |= 1;
                set.hit(slot);
            });
            assert_eq!(probes, neighbour, "{name}: lookup, payload, promote by slot");

            // Run promotion: a remembered slot revalidates and promotes
            // with no hash at all.
            let probes = hashes_during(|| {
                assert_eq!(set.resident_key(slot), Some(&key(10)));
                set.hit(slot);
            });
            assert_eq!(probes, 0, "{name}: promote a remembered slot");
        }
    }

    #[test]
    fn probe_budget_holds_for_every_policy() {
        probe_budget(Counted, 1);
        probe_budget(|k| CountedPage(Counted(k)), 8);
    }

    proptest::proptest! {
        /// CLOCK and SIEVE hand a new key the slot freed last, and a
        /// fresh one only when none is free: the free list threaded
        /// through the freed slots pops in the order a `Vec` of freed
        /// slots did, which CLOCK's hand (it walks positions) and
        /// SIEVE's hand (a remembered slot) both see.
        #[test]
        fn freed_slots_are_reused_last_in_first_out(
            ops in proptest::collection::vec((0u8..3, 0u64..24), 0..200)
        ) {
            for policy in [ReplacementPolicy::Clock, ReplacementPolicy::Sieve] {
                let mut set: Box<dyn PolicySet<u64>> = policy.build(16);
                let mut slots = std::collections::HashMap::new();
                let (mut freed, mut fresh) = (Vec::new(), 0);
                for &(op, key) in &ops {
                    match op {
                        0 if !set.contains(&key) => {
                            set.admit(key, 0);
                            let want = freed.pop().unwrap_or_else(|| {
                                fresh += 1;
                                fresh - 1
                            });
                            let slot = set.lookup(&key).expect("admitted");
                            proptest::prop_assert_eq!(slot, want, "{}", policy.name());
                            slots.insert(key, slot);
                        }
                        1 if set.remove_entry(&key).is_some() => {
                            freed.push(slots.remove(&key).expect("was resident"));
                        }
                        2 => {
                            if let Some((victim, _)) = set.pop_victim_entry() {
                                freed.push(slots.remove(&victim).expect("was resident"));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn payloads_and_residency_survive_every_policys_transitions() {
        for policy in ReplacementPolicy::ALL {
            let name = policy.name();
            let mut set: Box<dyn PolicySet<u64>> = policy.build(4);
            for k in 0..4 {
                set.admit(k, k as u8 + 1);
            }
            // Hits relink nodes (SLRU even demotes others); payloads
            // stay with their keys.
            for k in [2, 0, 2, 3] {
                let slot = set.lookup(&k).expect("resident");
                set.hit(slot);
            }
            let mut seen = Vec::new();
            set.visit_residents(&mut |k, bits| seen.push((*k, *bits)));
            seen.sort_unstable();
            assert_eq!(seen, vec![(0, 1), (1, 2), (2, 3), (3, 4)], "{name}");

            // The victim comes back with its payload; 2Q and ARC keep a
            // ghost of it, which is tracked but not resident.
            let slot_of_1 = set.lookup(&1);
            let (victim, bits) = set.pop_victim_entry().expect("non-empty");
            assert_eq!(bits, victim as u8 + 1, "{name}: victim payload");
            assert_eq!(set.lookup(&victim), None, "{name}: a ghost is not resident");
            assert!(!set.contains(&victim));
            if victim == 1 {
                assert_ne!(set.resident_key(slot_of_1.expect("was resident")), Some(&1));
            }
            // Re-admission (a ghost hit for 2Q/ARC) installs the new
            // payload, not the stale one.
            set.admit(victim, 0x80);
            let slot = set.lookup(&victim).expect("resident again");
            assert_eq!(*set.payload_mut(slot), 0x80, "{name}: payload after re-admission");
            assert_eq!(set.resident_key(slot), Some(&victim));

            assert_eq!(set.remove_entry(&victim), Some(0x80), "{name}");
            assert_eq!(set.remove_entry(&victim), None, "{name}: already gone");
            assert_eq!(set.len(), 3);
        }
    }
}
