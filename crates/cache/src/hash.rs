//! The one hasher every table in this crate is keyed with, and the
//! page table's group table.
//!
//! The page table (the group index under [`crate::intrusive::MultiList`]
//! and [`crate::policy::ClockSet`]) is keyed by *group*: a page id's
//! [`GroupKey::group`](crate::intrusive::GroupKey::group), the aligned
//! run of [`crate::intrusive::GROUP_LANES`] pages it sits in. It is
//! probed whenever a replayed operation moves to another group — once
//! or twice per request, not once per page — which still makes the hash
//! function the hottest arithmetic the crate has. std's default
//! SipHash-1-3 spends most of such a probe hashing sixteen bytes;
//! [`MixHasher`] replaces it with one multiply per written word and a
//! two-step avalanche.
//!
//! The group table itself is [`SlotTable`]: an array of 8-byte buckets
//! (a `u32` group slot and the low 32 bits of its hash), three per
//! group it is sized for, linearly probed in Robin Hood order, at most
//! a third full, with backward-shift deletion. It replaced a std
//! `HashMap<K, u32>` that cost 24 bytes a bucket plus a control byte
//! for a page id, and was sized for twice the groups it expected so
//! that tombstones left by open/close churn would be rehashed in place
//! rather than grow it: 25 bytes of table a page of capacity, against
//! 6 now (the layout, and the bytes of the rest of the page table, are
//! in [`crate::intrusive`]'s module docs). What linear probing gives up
//! under crafted group keys is in [`MixHasher`]'s docs, and what it
//! costs on a miss-heavy stream in [`SlotTable`]'s.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// A `HashMap` keyed with [`MixHasher`].
pub(crate) type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// `value`'s [`MixHasher`] hash: one `Hash::hash` call.
#[inline]
pub(crate) fn mix_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    BuildHasherDefault::<MixHasher>::default().hash_one(value)
}

/// 2^64 / φ, odd: the per-word multiplier.
const WORD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// The finishing multiplier (odd, unrelated to [`WORD_MUL`] and to the
/// SplitMix64 constants `ShardedBufferCache::shard_of` selects with).
const FINISH_MUL: u64 = 0xD6E8_FEB8_6659_FD93;

/// A deterministic multiply-mix hasher: `state = (rotl(state, 5) ^
/// word) * WORD_MUL` per written word, then an avalanche finish that
/// folds the high half into the low half, multiplies again and folds
/// once more.
///
/// **Why the finish.** The group table ([`SlotTable`]) keeps the low
/// 32 bits of the hash as a tag and scales them onto its bucket count
/// for a home (the tag's high bits choose it); std's `HashMap` (the
/// prefetcher's per-file map) picks a bucket from the *low* bits and
/// tags the entry with its *top seven*. A bare
/// multiply leaves the low bits a function of the key's low bits only,
/// so group indexes strided by a shard block
/// ([`crate::shard::SHARD_BLOCK_PAGES`] pages, eight groups) — or the
/// groups that land in one shard, which come eight to a block and share
/// a block selector — would pile into a few buckets. After the finish
/// both bit ranges are spread like a random function's for sequential,
/// block-strided, multi-file and single-shard keys, as page ids and as
/// the group keys the table actually holds (chi-square pinned in this
/// module's tests), and the constants differ from `shard_of`'s so a
/// shard's key subset is not a biased sample of this hash.
///
/// **What is given up.** There is no per-instance random state, so two
/// tables built anywhere hash alike — iteration order, probe sequences
/// and therefore every measured cost repeat exactly — and a trace
/// author who knows the constants can craft page ids whose groups
/// collide. The damage is bounded by what the tables can hold: a policy
/// tracks at most resident + ghost <= 2 x capacity pages, and a group
/// is in the table only while one of its pages is tracked, so at most
/// that many groups (an eighth of it when residency is dense): a probe
/// chain can grow to the table size but never with trace length, and
/// eviction keeps retiring the colliding groups. What grouping itself
/// gives up — single-page random misses open and close a group per
/// page — is measured in [`crate::intrusive`]'s module docs, not here.
///
/// **What linear probing adds to that.** Every step of the hash is a
/// bijection of the written words, so for one file a crafted trace can
/// pick page indexes whose groups share the whole 64-bit hash: the same
/// home bucket in [`SlotTable`] and the same tag. Those groups fill one
/// run of buckets; a probe that lands in the run walks it, and each
/// bucket whose tag matches costs a look at that group's key in the
/// slab. The run also takes in groups whose homes fall inside it
/// (primary clustering), so honest groups near the crafted home pay
/// too, where std's table, probing sixteen buckets at a time along a
/// spread sequence, mostly confined the cost to the colliding keys. The
/// bound is the one above: a run holds at most the groups tracked, and
/// a removal's backward shift walks at most to the run's end.
/// `intrusive::tests::colliding_groups_match_a_per_key_map` files every
/// group under the table's last bucket and checks every answer.
///
/// Nothing about trace admission
/// (`V01`-`V10`) depends on the hasher. Keys from outside the program
/// that are *not* capacity-bounded should keep std's default hasher.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MixHasher {
    state: u64,
}

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(WORD_MUL);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut x = self.state;
        x ^= x >> 32;
        x = x.wrapping_mul(FINISH_MUL);
        x ^ (x >> 29)
    }
}

/// A bucket of [`SlotTable`]: a slot and the low half of its hash.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// The low 32 bits of the slot's hash: its home bucket under any
    /// table size, and a filter that spares most mismatches a look at
    /// the slot's key.
    tag: u32,
    /// The filed slot, or [`EMPTY`].
    slot: u32,
}

/// [`Bucket::slot`] of a bucket that holds nothing.
const EMPTY: u32 = u32::MAX;

const EMPTY_BUCKET: Bucket = Bucket { tag: 0, slot: EMPTY };

/// An open-addressed, linearly probed set of `u32` slots filed by a
/// 64-bit hash: the page table's group table.
///
/// The table stores no keys. A caller hashes its key once, hands the
/// hash in, and judges a candidate slot by its own key (the group
/// index compares the group slab's key), so every probe, insert and
/// removal costs exactly one `Hash::hash` of a key — and growing the
/// table none, since a bucket's tag keeps the hash bits its home needs.
/// Runs are kept in Robin Hood order, so a search for an absent hash
/// stops early, and a removal shifts the rest of its run back into the
/// hole: churn leaves no tombstones and the table needs no headroom
/// for them.
///
/// The table is at most a third full: [`SlotTable::with_capacity`]
/// gives it three buckets for each slot it is sized for, and an insert
/// past a third doubles it. The count need not be a power of two (a
/// tag is scaled onto it), so the third costs no rounding.
///
/// **What it costs.** A search walks buckets one at a time, and how
/// many depends on the load, where std's table tests sixteen control
/// bytes at once. On a stream of misses into a cache far smaller than
/// its file — every group is looked up in vain, opened, and closed
/// again soon after — the walks show, but they are the smaller part of
/// that path. Timed on a 2-vCPU x86-64 container with `clio_e2e
/// replay_thrash` `norm_cost`: the change that brought this table in
/// place of std's also dropped the groups' live-lane count, +14 % in
/// all; the count alone is worth about 8 % (without it every removal
/// scans a group's eight lanes), so the walk costs about 4 %. With the
/// count back, a table at most half full measured -6 % where this one
/// measured -10 % in the same session, and one at most a quarter full
/// about -12 % (std's speed), but its 2 bytes a page more put 2Q's
/// 16 384-page cache over its 1.20 MiB reservation budget. A
/// control-byte (SwissTable-style) table at most a third or a quarter
/// full read 0-3 % better again on misses but 3-4 % worse on
/// `replay_hot`'s hits. Hits, and the dense groups of sequential runs,
/// are as fast as under std's table or faster.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotTable {
    buckets: Vec<Bucket>,
    len: usize,
}

impl SlotTable {
    /// An empty table that files `slots` slots without growing.
    pub(crate) fn with_capacity(slots: usize) -> Self {
        Self { buckets: vec![EMPTY_BUCKET; 3 * slots], len: 0 }
    }

    /// The bucket a tag's run starts at: the tag scaled onto the bucket
    /// count, so its high bits choose and the count need not be a power
    /// of two.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        ((u64::from(tag) * self.buckets.len() as u64) >> 32) as usize
    }

    /// The bucket after `at`, wrapping at the end.
    #[inline]
    fn after(&self, at: usize) -> usize {
        if at + 1 == self.buckets.len() {
            0
        } else {
            at + 1
        }
    }

    /// How far `bucket`, sitting at `at`, lies past its home.
    #[inline]
    fn distance(&self, bucket: Bucket, at: usize) -> usize {
        let home = self.home(bucket.tag);
        if at >= home {
            at - home
        } else {
            at + self.buckets.len() - home
        }
    }

    /// The bucket holding the filed slot `matches` accepts among those
    /// filed under `hash`. Runs keep their entries in Robin Hood order
    /// (no entry lies farther from its home than the one after it, bar
    /// a fresh home), so a search gives up at the first bucket that is
    /// empty or nearer its home than the searched hash's would be.
    #[inline]
    fn search(&self, hash: u64, mut matches: impl FnMut(u32) -> bool) -> Option<usize> {
        let tag = hash as u32;
        let mut at = self.home(tag);
        let mut distance = 0;
        loop {
            let bucket = self.buckets[at];
            if bucket.slot == EMPTY || self.distance(bucket, at) < distance {
                return None;
            }
            if bucket.tag == tag && matches(bucket.slot) {
                return Some(at);
            }
            at = self.after(at);
            distance += 1;
        }
    }

    /// The filed slot that `matches` accepts among those filed under
    /// `hash`, if any.
    #[inline]
    pub(crate) fn find(&self, hash: u64, matches: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        self.search(hash, matches).map(|at| self.buckets[at].slot)
    }

    /// Files `slot` under `hash`. The caller knows it is not filed yet.
    pub(crate) fn insert(&mut self, hash: u64, slot: u32) {
        debug_assert!(slot != EMPTY, "slots fit below the empty marker");
        if 3 * (self.len + 1) > self.buckets.len() {
            self.grow();
        }
        self.place(Bucket { tag: hash as u32, slot });
        self.len += 1;
    }

    /// Puts `carried` into its run at the first bucket that is empty or
    /// holds an entry nearer its home, and moves that entry on the same
    /// way (Robin Hood insertion).
    fn place(&mut self, mut carried: Bucket) {
        let mut at = self.home(carried.tag);
        let mut distance = 0;
        loop {
            let bucket = self.buckets[at];
            if bucket.slot == EMPTY {
                self.buckets[at] = carried;
                return;
            }
            let theirs = self.distance(bucket, at);
            if theirs < distance {
                self.buckets[at] = carried;
                carried = bucket;
                distance = theirs;
            }
            at = self.after(at);
            distance += 1;
        }
    }

    /// Unfiles `slot`, which is filed under `hash`, and shifts the rest
    /// of its run back by one, up to an empty bucket or an entry at its
    /// home, so that the run keeps its order and no tombstone is left.
    pub(crate) fn remove(&mut self, hash: u64, slot: u32) {
        // An open group is always filed, so this finds it; were it not
        // filed, there would be nothing to unfile.
        if self.len == 0 {
            return;
        }
        let Some(mut hole) = self.search(hash, |filed| filed == slot) else {
            return;
        };
        loop {
            let next = self.after(hole);
            let bucket = self.buckets[next];
            if bucket.slot == EMPTY || self.distance(bucket, next) == 0 {
                break;
            }
            self.buckets[hole] = bucket;
            hole = next;
        }
        self.buckets[hole] = EMPTY_BUCKET;
        self.len -= 1;
    }

    /// Every filed slot, in bucket order.
    pub(crate) fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.buckets.iter().map(|b| b.slot).filter(|&slot| slot != EMPTY)
    }

    /// Doubles the bucket count (eight buckets if there are none),
    /// refiling every slot by its tag: no key is hashed again.
    #[cold]
    fn grow(&mut self) {
        let size = (2 * self.buckets.len()).max(8);
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY_BUCKET; size]);
        for bucket in old.into_iter().filter(|b| b.slot != EMPTY) {
            self.place(bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::intrusive::{GroupKey, GROUP_LANES};
    use crate::page::{FileId, PageId};
    use crate::shard::{ShardedBufferCache, SHARD_BLOCK_PAGES};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<MixHasher>::default().hash_one(value)
    }

    fn page(file: u32, index: u64) -> PageId {
        PageId { file: FileId(file), index }
    }

    /// Pearson's chi-square of `keys` over the `1 << bits` cells
    /// selected by `cell`, against the uniform expectation.
    fn chi_square(keys: &[PageId], bits: u32, cell: impl Fn(u64) -> u64) -> f64 {
        let mut counts = vec![0u32; 1 << bits];
        for key in keys {
            counts[cell(hash_of(key)) as usize] += 1;
        }
        let expect = keys.len() as f64 / counts.len() as f64;
        counts.iter().map(|&c| (f64::from(c) - expect).powi(2) / expect).sum()
    }

    /// Asserts both bit ranges std's table reads are spread no worse
    /// than five standard deviations above a random function's
    /// chi-square (mean = dof, variance = 2 x dof): below 4548 for the
    /// 4096 low-12-bit cells, below 207 for the 128 top-7-bit cells.
    fn assert_well_spread(name: &str, keys: &[PageId]) {
        let bound = |dof: f64| dof + 5.0 * (2.0 * dof).sqrt();
        let low = chi_square(keys, 12, |h| h & 0xFFF);
        let top = chi_square(keys, 7, |h| h >> 57);
        assert!(low < bound(4095.0), "{name}: low-12-bit chi-square {low:.0}");
        assert!(top < bound(127.0), "{name}: top-7-bit chi-square {top:.0}");
    }

    #[test]
    fn sequential_strided_and_multi_file_page_ids_spread_over_both_bit_ranges() {
        let n = 1u64 << 16;
        let sequential: Vec<PageId> = (0..n).map(|i| page(0, i)).collect();
        let offset: Vec<PageId> = (0..n).map(|i| page(3, (1 << 20) + i)).collect();
        let strided: Vec<PageId> = (0..n).map(|j| page(0, j * SHARD_BLOCK_PAGES)).collect();
        let multi_file: Vec<PageId> =
            (0..64).flat_map(|f| (0..1024).map(move |i| page(f, i))).collect();
        assert_well_spread("sequential", &sequential);
        assert_well_spread("sequential, high offset", &offset);
        assert_well_spread("block-strided", &strided);
        assert_well_spread("multi-file", &multi_file);
    }

    #[test]
    fn the_keys_of_one_shard_are_not_a_biased_sample() {
        // A shard's table only ever sees the page ids `shard_of` routes
        // to it; if the two hashes were correlated those would crowd a
        // fraction of the buckets.
        let cache = ShardedBufferCache::new(CacheConfig::default(), 16);
        for shard in [0usize, 5, 15] {
            let keys: Vec<PageId> = (0..4)
                .flat_map(|f| (0..400_000).map(move |i| page(f, i)))
                .filter(|id| cache.shard_of(*id) == shard)
                .take(1 << 15)
                .collect();
            assert_eq!(keys.len(), 1 << 15);
            assert_well_spread(&format!("shard {shard} of 16"), &keys);
        }
    }

    /// The distinct groups of `pages`, in first-seen order — the keys
    /// the table holds while those pages are tracked — each as the page
    /// id it stands for, after checking that the group hashes exactly
    /// as that page id does (so the spread measured is the groups').
    fn groups_of(pages: impl IntoIterator<Item = PageId>) -> Vec<PageId> {
        let mut groups: Vec<PageId> = pages
            .into_iter()
            .map(|id| {
                let group = id.group();
                let key = PageId::from_group(&group);
                assert_eq!(hash_of(&group), hash_of(&key), "{key:?}");
                key
            })
            .collect();
        groups.dedup();
        groups
    }

    #[test]
    fn group_keys_spread_over_both_bit_ranges() {
        let lanes = GROUP_LANES as u64;
        let n = 1u64 << 16;
        let sequential = groups_of((0..n * lanes).map(|i| page(0, i)));
        let offset = groups_of((0..n * lanes).map(|i| page(3, (1 << 23) + i)));
        // One group per shard block: group indexes strided by the
        // groups of a block.
        let strided = groups_of((0..n).map(|j| page(0, j * SHARD_BLOCK_PAGES)));
        let multi_file =
            groups_of((0..64).flat_map(|f| (0..1024 * lanes).map(move |i| page(f, i))));
        for keys in [&sequential, &offset, &strided, &multi_file] {
            assert_eq!(keys.len(), 1 << 16);
        }
        assert_eq!(strided[1].index, SHARD_BLOCK_PAGES / lanes);
        assert_well_spread("sequential groups", &sequential);
        assert_well_spread("sequential groups, high offset", &offset);
        assert_well_spread("block-strided groups", &strided);
        assert_well_spread("multi-file groups", &multi_file);
    }

    #[test]
    fn group_keys_spread_over_the_tag_bits_that_choose_a_home() {
        // The group table scales the low 32 bits onto its bucket count,
        // so bits 20-31 choose among 4096 buckets.
        let lanes = GROUP_LANES as u64;
        let n = 1u64 << 16;
        let sequential = groups_of((0..n * lanes).map(|i| page(0, i)));
        let strided = groups_of((0..n).map(|j| page(0, j * SHARD_BLOCK_PAGES)));
        let multi_file =
            groups_of((0..64).flat_map(|f| (0..1024 * lanes).map(move |i| page(f, i))));
        let bound = 4095.0 + 5.0 * (2.0 * 4095.0f64).sqrt();
        for (name, keys) in
            [("sequential", &sequential), ("strided", &strided), ("multi-file", &multi_file)]
        {
            let chi = chi_square(keys, 12, |h| (h >> 20) & 0xFFF);
            assert!(chi < bound, "{name} groups: tag-home chi-square {chi:.0}");
        }
    }

    #[test]
    fn the_groups_of_one_shard_are_not_a_biased_sample() {
        // A shard's table holds the groups of the blocks `shard_of`
        // routes to it: runs of eight consecutive group indexes with
        // hash-selected gaps between the runs.
        let cache = ShardedBufferCache::new(CacheConfig::default(), 16);
        for shard in [0usize, 5, 15] {
            let mut keys = groups_of(
                (0..4)
                    .flat_map(|f| (0..1_400_000).map(move |i| page(f, i)))
                    .filter(|id| cache.shard_of(*id) == shard),
            );
            keys.truncate(1 << 15);
            assert_eq!(keys.len(), 1 << 15);
            assert_well_spread(&format!("groups of shard {shard} of 16"), &keys);
        }
    }

    /// The hash [`SlotTable`] tests file slot `k` under: two homes, the
    /// table's last bucket and its first, whatever its size (with two
    /// tags each), so runs collide, wrap past the end and shift back
    /// across it.
    fn colliding_hash(k: u32) -> u64 {
        [u64::MAX, u64::MAX - 1, 1 << 40, 3][k as usize % 4]
    }

    fn find(table: &SlotTable, k: u32) -> Option<u32> {
        table.find(colliding_hash(k), |slot| slot == k)
    }

    #[test]
    fn a_removal_shifts_a_run_back_across_the_tables_end() {
        // Twelve buckets hold four slots: all homed at bucket 11, they
        // fill 11, 0, 1, 2.
        let mut table = SlotTable::with_capacity(4);
        assert_eq!(table.buckets.len(), 12);
        for k in [0, 4, 8, 12] {
            table.insert(colliding_hash(k), k);
        }
        assert_eq!(table.buckets[11].slot, 0);
        table.remove(colliding_hash(0), 0);
        // The run moved back by one across the end; nothing was lost.
        assert_eq!(table.buckets[11].slot, 4);
        assert_eq!(table.buckets[2].slot, EMPTY);
        for k in [4, 8, 12] {
            assert_eq!(find(&table, k), Some(k));
        }
        assert_eq!(find(&table, 0), None);
    }

    proptest::proptest! {
        /// The table against a set model, over two shared homes: the
        /// same answer for every slot after every insert and removal,
        /// the same count, and growth (from no buckets at all) keeps
        /// every slot findable without hashing a key again.
        #[test]
        fn slot_table_matches_a_set_under_colliding_hashes(
            reserve in 0usize..12,
            ops in proptest::collection::vec((proptest::bool::ANY, 0u32..40), 0..400)
        ) {
            let mut table = SlotTable::with_capacity(reserve);
            let mut model = std::collections::HashSet::new();
            for (insert, k) in ops {
                if insert {
                    if model.insert(k) {
                        table.insert(colliding_hash(k), k);
                    }
                } else if model.remove(&k) {
                    table.remove(colliding_hash(k), k);
                }
                proptest::prop_assert_eq!(table.len, model.len());
                proptest::prop_assert_eq!(table.slots().count(), model.len());
                proptest::prop_assert!(3 * table.len <= table.buckets.len());
                for k in 0..40 {
                    proptest::prop_assert_eq!(find(&table, k), model.contains(&k).then_some(k));
                }
            }
        }
    }

    #[test]
    fn hashes_are_a_pure_function_of_the_written_words() {
        assert_eq!(hash_of(&page(1, 2)), hash_of(&page(1, 2)));
        assert_ne!(hash_of(&page(1, 2)), hash_of(&page(2, 1)));
        // Byte-slice keys (test keys are strings) hash by 8-byte words
        // with a zero-padded tail, so a trailing partial word counts.
        assert_ne!(hash_of(&"12345678"), hash_of(&"123456789"));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
    }
}
