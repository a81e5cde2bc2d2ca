//! Page identity and offset arithmetic.

use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::intrusive::{GroupKey, GROUP_LANES};
use crate::shard::SHARD_BLOCK_PAGES;

/// Default page size: 4 KiB, matching the x86 page and the NT cache
/// manager granularity of the paper's testbed.
pub const PAGE_SIZE_DEFAULT: u64 = 4096;

/// Identifies a registered file within one cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FileId(pub u32);

/// Identifies one cached page: a file and a page number within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PageId {
    /// Owning file.
    pub file: FileId,
    /// Zero-based page index within the file.
    pub index: u64,
}

impl PageId {
    /// The page covering byte `offset` of `file`.
    pub fn containing(file: FileId, offset: u64, page_size: u64) -> Self {
        debug_assert!(page_size > 0);
        PageId { file, index: offset / page_size }
    }

    /// The page immediately after this one in the same file.
    pub fn next(self) -> Self {
        PageId { file: self.file, index: self.index + 1 }
    }
}

/// Pages per index group, as a page-index divisor.
const GROUP_PAGES: u64 = GROUP_LANES as u64;

// A shard owns whole blocks, so a group inside one block has one owner.
const _: () = assert!(SHARD_BLOCK_PAGES % GROUP_PAGES == 0);

/// The index group of a [`PageId`]: [`GROUP_LANES`] consecutive pages
/// of one file, aligned. Twelve bytes, 4-aligned (the group index is
/// stored as two `u32` halves), where a group-valued `PageId` took
/// sixteen: the four bytes pay for the group's live-lane count.
///
/// It hashes exactly as `PageId { file, index: group }` does (`file`
/// as a `u32`, then the group index as a `u64`), so every table layout
/// and probe sequence is that of the page id it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageGroup {
    /// Owning file.
    pub file: FileId,
    /// The group index (page index / [`GROUP_LANES`]), low half first.
    halves: [u32; 2],
}

impl PageGroup {
    /// The group's index: its first page's index / [`GROUP_LANES`].
    pub fn index(&self) -> u64 {
        u64::from(self.halves[0]) | u64::from(self.halves[1]) << 32
    }
}

impl Hash for PageGroup {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.file.hash(state);
        self.index().hash(state);
    }
}

/// [`GROUP_LANES`] consecutive pages of one file, aligned, share an
/// index group: the pages of one request differ only in their lane.
impl GroupKey for PageId {
    type Group = PageGroup;

    #[inline]
    fn group(&self) -> PageGroup {
        let index = self.index / GROUP_PAGES;
        PageGroup { file: self.file, halves: [index as u32, (index >> 32) as u32] }
    }

    #[inline]
    fn lane(&self) -> usize {
        (self.index % GROUP_PAGES) as usize
    }

    /// The page whose index is the group's: a page id ranks and hashes
    /// like the group it stands for.
    fn from_group(group: &PageGroup) -> Self {
        PageId { file: group.file, index: group.index() }
    }
}

/// The inclusive page-index range `[first, last]` touched by the byte
/// range `[offset, offset + len)`. A zero-length range touches the
/// single page containing `offset` (matching how a read of zero bytes
/// still faults the header page on the paper's platform). A range that
/// would run past `u64::MAX` ends at the last addressable page.
pub fn page_span(offset: u64, len: u64, page_size: u64) -> (u64, u64) {
    // A caller contract: every page size in the crate comes from a
    // `CacheConfig`, and a core refuses a zero one at construction.
    assert!(page_size > 0, "page size must be positive");
    let first = offset / page_size;
    if len == 0 {
        return (first, first);
    }
    let last = offset.saturating_add(len - 1) / page_size;
    (first, last)
}

/// Number of pages in the span of `(offset, len)`.
pub fn pages_touched(offset: u64, len: u64, page_size: u64) -> u64 {
    let (first, last) = page_span(offset, len, page_size);
    last - first + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn containing_page() {
        let f = FileId(1);
        assert_eq!(PageId::containing(f, 0, 4096).index, 0);
        assert_eq!(PageId::containing(f, 4095, 4096).index, 0);
        assert_eq!(PageId::containing(f, 4096, 4096).index, 1);
    }

    #[test]
    fn next_page() {
        let p = PageId { file: FileId(2), index: 7 };
        assert_eq!(p.next().index, 8);
        assert_eq!(p.next().file, FileId(2));
    }

    #[test]
    fn span_within_one_page() {
        assert_eq!(page_span(100, 200, 4096), (0, 0));
        assert_eq!(pages_touched(100, 200, 4096), 1);
    }

    #[test]
    fn span_crossing_boundary() {
        assert_eq!(page_span(4000, 200, 4096), (0, 1));
        assert_eq!(pages_touched(4000, 200, 4096), 2);
    }

    #[test]
    fn span_exact_page() {
        assert_eq!(page_span(4096, 4096, 4096), (1, 1));
    }

    #[test]
    fn zero_length_touches_one_page() {
        assert_eq!(page_span(5000, 0, 4096), (1, 1));
        assert_eq!(pages_touched(5000, 0, 4096), 1);
    }

    #[test]
    fn span_past_the_end_of_the_offset_space_saturates() {
        let top = u64::MAX / 4096;
        assert_eq!(page_span(u64::MAX - 100, 4096, 4096), (top, top));
    }

    #[test]
    #[should_panic(expected = "page size")]
    fn zero_page_size_panics() {
        page_span(0, 1, 0);
    }

    proptest! {
        #[test]
        fn touched_pages_cover_range(offset in 0u64..1_000_000, len in 1u64..1_000_000,
                                     shift in 9u32..16) {
            let ps = 1u64 << shift;
            let (first, last) = page_span(offset, len, ps);
            prop_assert!(first * ps <= offset);
            prop_assert!((last + 1) * ps >= offset + len);
            // Minimality: shrinking the span must lose coverage.
            prop_assert!((first + 1) * ps > offset);
            prop_assert!(last * ps < offset + len);
        }

        #[test]
        fn touched_count_consistent(offset in 0u64..1_000_000, len in 0u64..1_000_000) {
            let n = pages_touched(offset, len, 4096);
            prop_assert!(n >= 1);
            prop_assert!(n <= len / 4096 + 2);
        }
    }
}
