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
//! own. Every follow-up to a lookup (payload access, promotion,
//! relinking between segments) goes through the returned slot: three
//! index writes instead of removing from one hash-backed list and
//! inserting into another. Freed slots go on a free list threaded
//! through the freed nodes themselves and are reused last freed, first
//! reused, so a cache that has warmed up to its capacity never
//! allocates again — the property pinned by the counting-allocator gate
//! in `tests/perf_scaling.rs`.
//!
//! # One key index, hashed per group
//!
//! The key index (`GroupIndex`, shared with
//! [`ClockSet`](crate::policy::ClockSet)) does not hash keys, it hashes
//! *groups* of them ([`GroupKey`]): for a page id, the aligned run of
//! [`GROUP_LANES`] pages it sits in. The pages of one request differ
//! only in their low index bits, so a request walks along a group's
//! lane array and the table is consulted when the group changes:
//!
//! - [`MultiList::slot_of`] and [`MultiList::insert_front`] hash only
//!   if the key's group is not the one used last (one probe, then);
//! - [`MultiList::remove_slot`], [`MultiList::pop_back`] and
//!   [`MultiList::remove`] find the group through the slot the node
//!   remembers and touch the table only when the group's last key
//!   leaves.
//!
//! A sequential eight-page miss run at capacity costs about three hash
//! operations (the failed lookup of its first page, its group entering
//! the table, one old group leaving it) where a per-page table cost
//! twenty-four; `policy::tests::probe_budget_holds_for_every_policy`
//! pins that for all seven policies.
//!
//! **The shape this is worse for**: single-page, uniformly random
//! misses. Every page opens a group and closes one, so the table does
//! the same three operations per page as before and the lane slab is
//! an extra indirection on top. Measured when this index landed, bare
//! policy set, capacity 16 384, one random page per touch: LRU 37 ->
//! 59 ns per touch (all seven policies 1.3-1.6x); end to end, a serial
//! replay of one-byte requests at random offsets of a 1 GiB file,
//! 12.2 -> 13.3-15.4 ms per 190 k records. The same indirection, plus
//! the unpredictable "same group as last time?" branch, costs short
//! random *hit* runs a few ns per page (1-9 page runs at 99 % hits:
//! LRU 11.7 -> 14.9 ns per touch, `clio_e2e` `replay_hot` +4 %); runs
//! of sixteen pages and more are where the table's absence shows
//! (`serve_closed` -23 %, `replay_par` -20 %). No workload of the
//! repository's benchmark has the single-page shape.
//!
//! # Layout, and bytes per page
//!
//! For a [`crate::page::PageId`] key (16 bytes) the page table is four
//! arrays, each reserved up front for the capacity it is built with:
//!
//! - **Nodes**, one per tracked key: the key, `u32` list links (the
//!   end of a list, [`NIL`], is `u32::MAX`; a freed node's `next` links
//!   the free list), its group slot, list tag, flag and payload byte —
//!   32 bytes.
//! - **Groups** (`GroupIndex`), reserved at one per four keys: the
//!   group key (a [`crate::page::PageGroup`]: the file and the group
//!   index as two `u32` halves, 12 bytes), eight `u32` lane owners and
//!   a `u32` count of the live lanes. A removal decrements the count
//!   and closes the group at zero without reading another lane; a
//!   closed group's lane 0 links the group free list — 48 bytes.
//! - **The group table** (`SlotTable`, in the crate-private `hash`
//!   module): 8-byte buckets, a group slot and the low 32 bits of its
//!   hash, three per reserved group, linearly probed in Robin Hood
//!   order. It doubles once more than a third full (by the stored hash
//!   bits: no key is hashed again), and a removal shifts the rest of
//!   its run back, so open/close churn leaves no tombstones to make
//!   room for.
//! - **A gather buffer**, one `u32` per reserved group: a file's close
//!   ([`crate::policy::PolicySet::remove_groups_where`]) collects the
//!   slots of the file's groups there, sorts them by group key and
//!   walks their lanes, so it removes pages in ascending order with no
//!   list of victims.
//!
//! Per page of capacity that is 32 + 12 + 6 + 1 = 51 bytes (a table of
//! 16 384 pages reserves 0.797 MiB). Before, it was 79: 40-byte nodes
//! with `usize` links, 56-byte groups (a 16-byte page-id group key,
//! the lanes and the count), and a std `HashMap<K, u32>` — 24-byte
//! buckets plus a control byte — sized for twice the groups, 25 bytes
//! a page. A close then also grew a 16-byte-a-page victim list and an
//! 8-byte-a-slot free list. CLOCK's positions are 24 bytes (43 a page,
//! from 63); 2Q reserves 1.5 keys and ARC two keys per page, for their
//! ghosts.
//!
//! The count is what the 12-byte key pays for. A 48-byte group that
//! kept the 16-byte key and dropped the count had to scan all eight
//! lanes on every eviction and every close to learn whether the group
//! had emptied: about 8 % of `clio_e2e replay_thrash`'s `norm_cost`
//! on a 2-vCPU x86-64 container, where every random request opens a
//! group and an eviction soon closes one.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hash;

use crate::hash::{mix_hash, SlotTable};
use crate::policy::PolicySet;

/// The [`PolicySet`](crate::policy::PolicySet) methods every policy
/// built on a [`MultiList`] forwards unchanged to the list in its
/// `$field`: the resident count, the resident-only lookup, slot
/// validation, payload access, the resident walk, the group-ordered
/// removal and the boxed clone.
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

        fn remove_groups_where(
            &mut self,
            select: &dyn Fn(&K) -> bool,
            order: &dyn Fn(&K, &K) -> std::cmp::Ordering,
            removed: &mut dyn FnMut(u8),
        ) {
            crate::intrusive::remove_groups_where(
                self,
                |set| set.$field.index_mut(),
                select,
                order,
                removed,
            );
        }

        fn boxed_clone(&self) -> Box<dyn crate::policy::PolicySet<K>> {
            Box::new(self.clone())
        }
    };
}
pub(crate) use forward_to_slab;

/// Sentinel slot index meaning "no node". A slot is stored as a `u32`
/// below [`u32::MAX`], so this is that value widened: converting a
/// stored link to `usize` needs no branch.
pub const NIL: usize = END as usize;

/// A stored link that names no node: [`NIL`] as the slab stores it.
const END: u32 = u32::MAX;

/// Lanes per index group: how many neighbouring keys share one
/// hash-table entry. It divides [`crate::shard::SHARD_BLOCK_PAGES`]
/// (asserted beside `PageId`'s impl), so a page group never straddles
/// two shards.
pub const GROUP_LANES: usize = 8;

/// How a key splits into the group the index hashes and the lane inside
/// it. Keys that are neighbours in the access stream should share a
/// group: [`crate::page::PageId`] groups [`GROUP_LANES`] consecutive
/// pages of one file into a [`crate::page::PageGroup`]. A key type
/// without such neighbours is one key per group, lane 0, and is its own
/// group, as the integer and string keys implemented here are.
///
/// Contract: `a == b` iff `a.group() == b.group() && a.lane() ==
/// b.lane()`; `lane() < GROUP_LANES`; and `from_group` is injective,
/// so a group is known by the key it stands for.
pub trait GroupKey: Eq + Hash + Clone {
    /// What the index files a group under: only ever hashed and
    /// compared, so it can be smaller than a key.
    type Group: Eq + Hash + Clone + fmt::Debug + Send;

    /// The group this key belongs to (equal for all keys of the group).
    fn group(&self) -> Self::Group;

    /// This key's position inside its group.
    fn lane(&self) -> usize;

    /// A key standing for `group`, for callers that select and rank
    /// groups by key ([`PolicySet::remove_groups_where`]).
    fn from_group(group: &Self::Group) -> Self;
}

/// Implements [`GroupKey`] as one key per group, lane 0, the group
/// being the key itself.
macro_rules! one_lane_keys {
    ($($key:ty),*) => {$(
        impl $crate::intrusive::GroupKey for $key {
            type Group = Self;

            #[inline]
            fn group(&self) -> Self {
                self.clone()
            }

            #[inline]
            fn lane(&self) -> usize {
                0
            }

            fn from_group(group: &Self) -> Self {
                group.clone()
            }
        }
    )*};
}
#[cfg(test)]
pub(crate) use one_lane_keys;
one_lane_keys!(u8, u16, u32, u64, usize, i32, i64, &str, String);

/// Lane value of a key that is not tracked.
const VACANT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Group<G> {
    /// The group key the table files this slot under (stale once
    /// freed).
    key: G,
    /// Owner slot of each lane's key, or [`VACANT`]. A closed group's
    /// `lanes[0]` links the slab's free list instead.
    lanes: [u32; GROUP_LANES],
    /// Lanes not [`VACANT`]; the group leaves the table when this
    /// reaches zero, so a removal reads no other lane.
    live: u32,
}

/// The one key index of the crate: key → owner slot (a [`MultiList`]
/// node, a [`crate::policy::ClockSet`] position), hashed per *group*.
///
/// The table ([`SlotTable`]) files each open group's slot in a slab of
/// lane arrays; the key's own entry is `lanes[key.lane()]`. A one-entry
/// memo names the group used last, so every further key of the same
/// group — looked up, inserted or removed — is an array access with no
/// hash at all; and an owner that remembers the group slot
/// [`GroupIndex::get_or_insert_with`] handed it removes its key without
/// a lookup ([`GroupIndex::remove_at`]). A run of `GROUP_LANES`
/// neighbouring misses at capacity therefore hashes about three times
/// (the failed lookup, the new group entering the table, one old group
/// leaving it) where a per-key table hashes twenty-four.
///
/// The memo is a `Cell` because lookups are `&self`; it makes the index
/// `!Sync`, which its owners already are not asked to be.
#[derive(Debug, Clone)]
pub(crate) struct GroupIndex<K: GroupKey> {
    table: SlotTable,
    groups: Vec<Group<K::Group>>,
    /// Head of the list of closed slab slots, each naming the next in
    /// its `lanes[0]`; [`VACANT`] ends it.
    free: u32,
    /// Slot of the group used last, or [`VACANT`]. Never names a closed
    /// group: its slot keeps the old key until it is recycled, so a
    /// memo left there would let a neighbour of the departed keys settle
    /// in a group the table no longer holds. [`GroupIndex::remove_at`]
    /// drops the memo with the group.
    memo: Cell<u32>,
    /// Keys tracked, over all groups.
    len: usize,
    /// Where [`GroupIndex::take_groups`] gathers group slots; reserved
    /// for as many groups as the slab, so gathering allocates nothing.
    picked: Vec<u32>,
}

impl<K: GroupKey> GroupIndex<K> {
    /// An empty index for about `keys` keys. The slab, the table and
    /// the gather buffer are sized for groups that are half full — what
    /// requests of a handful of pages at arbitrary alignment leave
    /// behind. Sparser keys (down to one per group) grow them by
    /// doubling while the owner warms up.
    pub(crate) fn with_capacity(keys: usize) -> Self {
        let groups = keys.div_ceil(GROUP_LANES / 2);
        Self {
            table: SlotTable::with_capacity(groups),
            groups: Vec::with_capacity(groups),
            free: VACANT,
            memo: Cell::new(VACANT),
            len: 0,
            picked: Vec::with_capacity(groups),
        }
    }

    /// Keys tracked.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is tracked.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The memo, if it names `group`.
    #[inline]
    fn memo_for(&self, group: &K::Group) -> Option<u32> {
        let memo = self.memo.get();
        self.groups.get(memo as usize).is_some_and(|g| g.key == *group).then_some(memo)
    }

    /// One table probe for `group`, re-pointing the memo at it if it is
    /// there.
    fn probe(&self, group: &K::Group) -> Option<u32> {
        let groups = &self.groups;
        let slot = self.table.find(mix_hash(group), |s| groups[s as usize].key == *group)?;
        self.memo.set(slot);
        Some(slot)
    }

    /// One table probe that finds `group` or enters it, empty, under a
    /// recycled or fresh slab slot; the memo then names it.
    fn probe_or_open(&mut self, group: K::Group) -> u32 {
        let hash = mix_hash(&group);
        let groups = &self.groups;
        let slot = match self.table.find(hash, |s| groups[s as usize].key == group) {
            Some(slot) => slot,
            None => {
                let opened = Group { key: group, lanes: [VACANT; GROUP_LANES], live: 0 };
                let slot = self.free;
                let slot = if slot == VACANT {
                    // Fits: an open group has a key, and key owners are
                    // asserted below `VACANT`.
                    self.groups.push(opened);
                    (self.groups.len() - 1) as u32
                } else {
                    self.free = std::mem::replace(&mut self.groups[slot as usize], opened).lanes[0];
                    slot
                };
                self.table.insert(hash, slot);
                slot
            }
        };
        self.memo.set(slot);
        slot
    }

    /// Takes the emptied group in slab slot `group` out of the table
    /// and recycles the slot, dropping the memo if it named it.
    fn close_group(&mut self, group: u32) {
        let closed = &mut self.groups[group as usize];
        self.table.remove(mix_hash(&closed.key), group);
        closed.lanes[0] = std::mem::replace(&mut self.free, group);
        if self.memo.get() == group {
            self.memo.set(VACANT);
        }
    }

    /// The owner slot of `key`, if tracked.
    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<usize> {
        let group_key = key.group();
        let group = match self.memo_for(&group_key) {
            Some(group) => group,
            None => self.probe(&group_key)?,
        };
        let owner = self.groups[group as usize].lanes[key.lane()];
        (owner != VACANT).then_some(owner as usize)
    }

    /// The owner slot of `key` and `false` if it is tracked; otherwise
    /// tracks it under the slot `make` returns — `make` is given the
    /// key's group slot, which [`GroupIndex::remove_at`] wants back —
    /// and returns that slot and `true`.
    #[inline]
    pub(crate) fn get_or_insert_with(
        &mut self,
        key: &K,
        make: impl FnOnce(u32) -> usize,
    ) -> (usize, bool) {
        let group_key = key.group();
        let group = match self.memo_for(&group_key) {
            Some(group) => group,
            None => self.probe_or_open(group_key),
        };
        let lane = key.lane();
        let owner = self.groups[group as usize].lanes[lane];
        if owner != VACANT {
            return (owner as usize, false);
        }
        let owner = make(group);
        // Cannot fire short of 2^32 - 1 tracked keys: an owner slot
        // indexes a slab holding one entry per tracked key, and a
        // capacity that large is tens of GiB of slab before the first
        // insert. Kept as an assert because a wrapped slot would
        // silently alias another key.
        assert!(owner < VACANT as usize, "owner slots fit a lane");
        let entry = &mut self.groups[group as usize];
        entry.lanes[lane] = owner as u32;
        entry.live += 1;
        debug_assert_eq!(entry.live, occupied(&entry.lanes), "live counts the occupied lanes");
        self.len += 1;
        (owner, true)
    }

    /// Stops tracking `key`, which is tracked in group slot `group`.
    /// No lookup, and no other lane read; one table removal if the
    /// group empties.
    #[inline]
    pub(crate) fn remove_at(&mut self, group: u32, key: &K) {
        let entry = &mut self.groups[group as usize];
        debug_assert_eq!(entry.live, occupied(&entry.lanes), "live counts the occupied lanes");
        let lane = &mut entry.lanes[key.lane()];
        debug_assert!(*lane != VACANT && entry.key == key.group(), "key tracked in this group");
        *lane = VACANT;
        entry.live -= 1;
        self.len -= 1;
        if entry.live == 0 {
            self.close_group(group);
        }
    }

    /// The slab slots of the open groups whose key `select` accepts,
    /// sorted by group key under `order`, in the index's own gather
    /// buffer: hand it back with [`GroupIndex::return_groups`].
    fn take_groups(
        &mut self,
        select: &dyn Fn(&K) -> bool,
        order: &dyn Fn(&K, &K) -> Ordering,
    ) -> Vec<u32> {
        let mut picked = std::mem::take(&mut self.picked);
        picked.clear();
        let key = |slot: u32| K::from_group(&self.groups[slot as usize].key);
        picked.extend(self.table.slots().filter(|&slot| select(&key(slot))));
        picked.sort_unstable_by(|&a, &b| order(&key(a), &key(b)));
        picked
    }

    /// Takes back the buffer [`GroupIndex::take_groups`] lent.
    fn return_groups(&mut self, picked: Vec<u32>) {
        self.picked = picked;
    }

    /// The owner slots of group slot `group`'s lanes, [`VACANT`] where
    /// a lane is empty.
    fn owners(&self, group: u32) -> [u32; GROUP_LANES] {
        self.groups[group as usize].lanes
    }
}

/// How many of `lanes` name an owner: what a group's `live` must equal.
fn occupied(lanes: &[u32; GROUP_LANES]) -> u32 {
    lanes.iter().filter(|&&owner| owner != VACANT).count() as u32
}

/// The body of every set's
/// [`PolicySet::remove_groups_where`](crate::policy::PolicySet::remove_groups_where):
/// gathers the slots of the groups `select` accepts from the index
/// `index` reaches in `set` (four bytes a group, in a buffer the index
/// keeps), sorts them by group key under `order`, and walks their lanes
/// in order, removing each resident key through the set's own
/// [`PolicySet::remove_entry`] and handing its payload to `removed`.
///
/// A group's owners are read before its first key leaves (the group
/// may close under the walk, and its `lanes[0]` then links the free
/// list). Removal opens no group, so the slots gathered stay valid.
pub(crate) fn remove_groups_where<K, S>(
    set: &mut S,
    index: impl Fn(&mut S) -> &mut GroupIndex<K>,
    select: &dyn Fn(&K) -> bool,
    order: &dyn Fn(&K, &K) -> Ordering,
    removed: &mut dyn FnMut(u8),
) where
    K: GroupKey,
    S: PolicySet<K> + ?Sized,
{
    let picked = index(set).take_groups(select, order);
    for &group in &picked {
        for owner in index(set).owners(group) {
            if owner == VACANT {
                continue;
            }
            if let Some(key) = set.resident_key(owner as usize).cloned() {
                if let Some(payload) = set.remove_entry(&key) {
                    removed(payload);
                }
            }
        }
    }
    index(set).return_groups(picked);
}

/// `Node::list` tag of a slot that sits on the free list (never a valid
/// list index: `N` is at most a handful).
const FREE: u8 = u8::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    /// The slot before this one in its list, or [`END`].
    prev: u32,
    /// The slot after this one in its list, or [`END`]; on the free
    /// list, the next free slot.
    next: u32,
    /// The [`GroupIndex`] slot of the key's group, so the node leaves
    /// the index without a lookup.
    group: u32,
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
pub struct MultiList<K: GroupKey, const N: usize, const R: usize = N> {
    nodes: Vec<Node<K>>,
    /// The most recently freed slot, or [`END`]; freed slots link on
    /// through their `next`, so the list pops last-in, first-out.
    free: u32,
    index: GroupIndex<K>,
    head: [u32; N],
    tail: [u32; N],
    len: [usize; N],
}

impl<K: GroupKey, const N: usize, const R: usize> MultiList<K, N, R> {
    /// Creates an empty structure.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty structure pre-sized for `capacity` keys across
    /// all lists, so a policy that stays within it never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: END,
            index: GroupIndex::with_capacity(capacity),
            head: [END; N],
            tail: [END; N],
            len: [0; N],
        }
    }

    /// The key index, for [`remove_groups_where`].
    pub(crate) fn index_mut(&mut self) -> &mut GroupIndex<K> {
        &mut self.index
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
        self.index.get(key)
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
        self.nodes[slot].prev as usize
    }

    /// The slot after `slot` in its list (toward the back), or [`NIL`].
    pub fn next_of(&self, slot: usize) -> usize {
        self.nodes[slot].next as usize
    }

    /// The front slot of `list`, or [`NIL`] when empty.
    pub fn head_of(&self, list: usize) -> usize {
        self.head[list] as usize
    }

    /// The back slot of `list`, or [`NIL`] when empty.
    pub fn tail_of(&self, list: usize) -> usize {
        self.tail[list] as usize
    }

    /// The key at the back of `list`, without removing it.
    pub fn peek_back(&self, list: usize) -> Option<&K> {
        let tail = self.tail[list];
        (tail != END).then(|| &self.nodes[tail as usize].key)
    }

    fn unlink(&mut self, slot: usize) {
        let list = self.nodes[slot].list as usize;
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == END {
            self.head[list] = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == END {
            self.tail[list] = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        self.len[list] -= 1;
    }

    /// Links `slot` (below [`END`]: the index asserted it) at the front
    /// of `list`.
    fn link_front(&mut self, slot: usize, list: usize) {
        let old_head = self.head[list];
        let slot = slot as u32;
        {
            let node = &mut self.nodes[slot as usize];
            node.list = list as u8;
            node.prev = END;
            node.next = old_head;
        }
        if old_head != END {
            self.nodes[old_head as usize].prev = slot;
        }
        self.head[list] = slot;
        if self.tail[list] == END {
            self.tail[list] = slot;
        }
        self.len[list] += 1;
    }

    /// Unlinks `slot`, drops its index entry, puts it on the free list
    /// and returns its payload.
    fn release(&mut self, slot: usize) -> u8 {
        self.unlink(slot);
        let node = &mut self.nodes[slot];
        node.list = FREE;
        self.index.remove_at(node.group, &node.key);
        node.next = std::mem::replace(&mut self.free, slot as u32);
        node.payload
    }

    /// Inserts `key` at the front of `list` with a clear flag and a
    /// zero payload, returning `(slot, true)` — or, if the key is
    /// already tracked (in any list), changes nothing and returns
    /// `(its slot, false)`. At most one hash probe either way, none
    /// inside the current group.
    pub fn insert_front(&mut self, list: usize, key: K) -> (usize, bool) {
        let (nodes, free) = (&mut self.nodes, &mut self.free);
        let (slot, inserted) = self.index.get_or_insert_with(&key, |group| {
            let node = Node {
                key: key.clone(),
                prev: END,
                next: END,
                group,
                list: 0,
                flag: false,
                payload: 0,
            };
            let slot = *free;
            if slot == END {
                nodes.push(node);
                nodes.len() - 1
            } else {
                let slot = slot as usize;
                *free = std::mem::replace(&mut nodes[slot], node).next;
                slot
            }
        });
        if inserted {
            self.link_front(slot, list);
        }
        (slot, inserted)
    }

    /// Relinks the node in `slot` to the front of `list` (possibly a
    /// different list from the one it is in). O(1), no allocation, flag
    /// and payload preserved.
    pub fn promote(&mut self, slot: usize, list: usize) {
        if self.head[list] as usize == slot {
            return; // already the front of the target list
        }
        self.unlink(slot);
        self.link_front(slot, list);
    }

    /// Removes the node at the back of `list`, freeing its slot, and
    /// returns its key and payload.
    pub fn pop_back(&mut self, list: usize) -> Option<(K, u8)> {
        let slot = self.tail[list];
        (slot != END).then(|| self.remove_slot(slot as usize))
    }

    /// Moves the back node of `from` to the front of `to`, returning
    /// its slot (which it keeps). Its flag is cleared; its payload is
    /// preserved.
    pub fn transfer_back(&mut self, from: usize, to: usize) -> Option<usize> {
        let slot = self.tail[from];
        if slot == END {
            return None;
        }
        let slot = slot as usize;
        self.unlink(slot);
        self.nodes[slot].flag = false;
        self.link_front(slot, to);
        Some(slot)
    }

    /// Removes `key` entirely, returning which list it was in and its
    /// payload.
    pub fn remove(&mut self, key: &K) -> Option<(usize, u8)> {
        let slot = self.index.get(key)?;
        let list = self.nodes[slot].list as usize;
        Some((list, self.release(slot)))
    }

    /// Removes the node in `slot` entirely, returning its key and
    /// payload.
    pub fn remove_slot(&mut self, slot: usize) -> (K, u8) {
        let payload = self.release(slot);
        (self.nodes[slot].key.clone(), payload)
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

impl<K: GroupKey, const N: usize, const R: usize> Default for MultiList<K, N, R> {
    fn default() -> Self {
        Self::new()
    }
}

struct ListIter<'a, K: GroupKey, const N: usize, const R: usize> {
    multi: &'a MultiList<K, N, R>,
    cur: u32,
}

impl<'a, K: GroupKey, const N: usize, const R: usize> Iterator for ListIter<'a, K, N, R> {
    type Item = &'a K;
    fn next(&mut self) -> Option<&'a K> {
        if self.cur == END {
            return None;
        }
        let node = &self.multi.nodes[self.cur as usize];
        self.cur = node.next;
        Some(&node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{FileId, PageGroup, PageId};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn page(file: u32, index: u64) -> PageId {
        PageId { file: FileId(file), index }
    }

    #[test]
    fn a_recycled_group_slot_does_not_answer_for_the_group_it_used_to_hold() {
        let mut m: MultiList<PageId, 1> = MultiList::new();
        // Group (0, 0) takes slab slot 0 and the memo.
        let (a, _) = m.insert_front(0, page(0, 3));
        assert_eq!(m.slot_of(&page(0, 3)), Some(a));
        // Its only key leaves through the node's remembered group slot:
        // the group closes while the memo names it.
        assert_eq!(m.remove_slot(a), (page(0, 3), 0));
        assert_eq!(m.slot_of(&page(0, 3)), None);
        // A neighbour of the departed key must open the group again,
        // not settle in the closed one the memo last named: it is
        // still found once another group has taken the memo.
        let (n, _) = m.insert_front(0, page(0, 4));
        m.insert_front(0, page(5, 0));
        assert_eq!(m.slot_of(&page(0, 4)), Some(n));
        assert_eq!(m.remove(&page(0, 4)), Some((0, 0)));
        assert_eq!(m.remove(&page(5, 0)), Some((0, 0)));
        // Another group — same lane — recycles slab slot 0.
        let (b, _) = m.insert_front(0, page(7, 8 + 3));
        assert_eq!(m.slot_of(&page(7, 8 + 3)), Some(b));
        assert_eq!(m.slot_of(&page(0, 3)), None, "the old key is gone, whatever the memo says");
        assert_eq!(m.slot_of(&page(7, 3)), None, "same file, lane 3 of another group");
        // And the old group can come back beside it.
        let (c, inserted) = m.insert_front(0, page(0, 3));
        assert!(inserted);
        assert_ne!(c, b);
        assert_eq!(m.slot_of(&page(7, 8 + 3)), Some(b));
        assert_eq!(m.total_len(), 2);
    }

    proptest! {
        /// The group index against a per-key `HashMap`: same answers
        /// after every step, over keys that crowd a few groups so that
        /// groups empty, their slab slots are recycled by other groups
        /// and the memo keeps pointing at whichever was used last.
        #[test]
        fn index_matches_a_per_key_map(
            ops in prop::collection::vec((0u8..4, 0u32..2, 0u64..20), 0..300)
        ) {
            let universe: Vec<PageId> =
                (0..2).flat_map(|f| (0..20).map(move |i| page(f, i))).collect();
            let mut m: MultiList<PageId, 2> = MultiList::new();
            let mut model: HashMap<PageId, usize> = HashMap::new();
            for (op, file, index) in ops {
                let key = page(file, index);
                match op {
                    0 => {
                        let (slot, inserted) = m.insert_front(index as usize % 2, key);
                        prop_assert_eq!(inserted, !model.contains_key(&key));
                        prop_assert_eq!(*model.entry(key).or_insert(slot), slot);
                    }
                    1 => prop_assert_eq!(m.remove(&key).is_some(), model.remove(&key).is_some()),
                    2 => prop_assert_eq!(m.slot_of(&key), model.get(&key).copied()),
                    _ => {
                        // By slot: no lookup, the node names its group.
                        if let Some(slot) = model.remove(&key) {
                            prop_assert_eq!(m.remove_slot(slot).0, key);
                        }
                    }
                }
                prop_assert_eq!(m.total_len(), model.len());
                // Swept on a copy: lookups move the memo, and the next
                // step must meet it where this one left it.
                let copy = m.clone();
                for k in &universe {
                    prop_assert_eq!(copy.slot_of(k), model.get(k).copied(), "{:?}", k);
                }
                let mut slots: Vec<usize> = model.values().copied().collect();
                slots.sort_unstable();
                slots.dedup();
                prop_assert_eq!(slots.len(), model.len(), "two keys share a slot");
            }
        }
    }

    #[test]
    fn a_page_group_key_is_twelve_bytes_and_a_lane_group_forty_eight() {
        // The group's live count is paid for by the key: 12 + 32 + 4.
        assert_eq!(std::mem::size_of::<PageGroup>(), 12);
        assert_eq!(std::mem::align_of::<PageGroup>(), 4);
        assert_eq!(std::mem::size_of::<Group<PageGroup>>(), 48);
    }

    proptest! {
        /// A page group hashes exactly as the group-valued page id the
        /// index filed before it, so every table layout, probe sequence
        /// and probe count repeats; and it stands for that page id.
        #[test]
        fn a_page_group_hashes_as_the_page_id_of_its_group_index(
            file in any::<u32>(),
            index in prop_oneof![any::<u64>(), 0u64..1 << 20],
        ) {
            let group = page(file, index).group();
            let as_page = page(file, index / GROUP_LANES as u64);
            prop_assert_eq!(mix_hash(&group), mix_hash(&as_page));
            prop_assert_eq!(group.index(), as_page.index);
            prop_assert_eq!(PageId::from_group(&group), as_page);
        }

        /// CLOCK's index under admit, evict, remove and close churn over
        /// a few files: groups open and close all the time, and the
        /// debug build checks each group's live count against its lanes
        /// on every insert and removal. The set matches a resident-set
        /// model after every step, and a close removes exactly the
        /// file's resident pages.
        #[test]
        fn clock_churn_keeps_every_group_count_and_answer(
            ops in prop::collection::vec((0u8..4, 0u32..3, 0u64..40), 0..300)
        ) {
            use crate::policy::{ClockSet, PolicySet};
            const CAPACITY: usize = 16;
            let mut set: ClockSet<PageId> = ClockSet::with_capacity(CAPACITY);
            let mut model: std::collections::HashSet<PageId> = Default::default();
            for (op, file, index) in ops {
                let key = page(file, index);
                match op {
                    0 => {
                        if !model.contains(&key) && model.len() == CAPACITY {
                            let (victim, _) = set.pop_victim_entry().expect("a full set");
                            prop_assert!(model.remove(&victim), "{:?}", victim);
                        }
                        set.admit(key, 0);
                        model.insert(key);
                    }
                    1 => prop_assert_eq!(set.remove_entry(&key).is_some(), model.remove(&key)),
                    2 => {
                        let mut closed = 0;
                        set.remove_groups_where(
                            &|group| group.file == key.file,
                            &PageId::cmp,
                            &mut |_| closed += 1,
                        );
                        let before = model.len();
                        model.retain(|k| k.file != key.file);
                        prop_assert_eq!(closed, before - model.len());
                    }
                    _ => prop_assert_eq!(set.contains(&key), model.contains(&key)),
                }
                prop_assert_eq!(set.len(), model.len());
                for f in 0..3 {
                    for i in 0..40 {
                        let k = page(f, i);
                        prop_assert_eq!(set.contains(&k), model.contains(&k), "{:?}", k);
                    }
                }
            }
        }
    }

    /// A key whose hash ignores it: every key is its own group, and
    /// every group files under one home, the last bucket of the table
    /// at any size up to 256 buckets.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(u32);

    impl Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            329u64.hash(state);
        }
    }

    one_lane_keys!(Colliding);

    proptest! {
        /// The index against a per-key `HashMap` when every group
        /// collides: one probe run that wraps the table's end, grows
        /// with it, and shifts back across the end on every removal.
        #[test]
        fn colliding_groups_match_a_per_key_map(
            ops in prop::collection::vec((0u8..3, 0u32..48), 0..300)
        ) {
            prop_assert_eq!(crate::hash::mix_hash(&Colliding(7)) as u32 >> 24, 0xFF);
            let mut m: MultiList<Colliding, 1> = MultiList::with_capacity(16);
            let mut model: HashMap<u32, usize> = HashMap::new();
            for (op, k) in ops {
                match op {
                    0 => {
                        let (slot, inserted) = m.insert_front(0, Colliding(k));
                        prop_assert_eq!(inserted, !model.contains_key(&k));
                        prop_assert_eq!(*model.entry(k).or_insert(slot), slot);
                    }
                    1 => prop_assert_eq!(m.remove(&Colliding(k)).is_some(), model.remove(&k).is_some()),
                    _ => {
                        if let Some(slot) = model.remove(&k) {
                            prop_assert_eq!(m.remove_slot(slot).0, Colliding(k));
                        }
                    }
                }
                prop_assert_eq!(m.total_len(), model.len());
                for k in 0..48 {
                    prop_assert_eq!(m.slot_of(&Colliding(k)), model.get(&k).copied());
                }
            }
        }
    }

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
