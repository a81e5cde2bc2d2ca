//! The one hasher every table in this crate is keyed with.
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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`MixHasher`].
pub(crate) type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// An empty [`MixMap`] with room for `capacity` entries.
pub(crate) fn mix_map_with_capacity<K, V>(capacity: usize) -> MixMap<K, V> {
    HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
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
/// **Why the finish.** std's `HashMap` picks a bucket from the *low*
/// bits of the hash and tags the entry with its *top seven*. A bare
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
    /// the table holds while those pages are tracked.
    fn groups_of(pages: impl IntoIterator<Item = PageId>) -> Vec<PageId> {
        let mut groups: Vec<PageId> = pages.into_iter().map(|id| id.group()).collect();
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
