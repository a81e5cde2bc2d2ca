//! Pgrep: parallel approximate text search.
//!
//! "A modified parallel version of the agrep program from the University
//! of Arizona" \[11\]. The search kernel is Wu & Manber's bitap automaton
//! in its k-mismatches (Hamming distance) form: `k + 1` bit-parallel
//! state words, one per error budget. The driver streams the corpus
//! from the instrumented store in fixed chunks (with `pattern-1` bytes
//! of overlap so no match straddles a boundary undetected) and fans the
//! chunks out to worker threads with `std::thread::scope`.

use std::io;

use clio_trace::TraceFile;

use crate::datagen::text_corpus;
use crate::instrument::TracedStore;

/// Maximum pattern length (bitap states live in one `u64`).
pub const MAX_PATTERN: usize = 64;

/// Search parameters.
#[derive(Debug, Clone)]
pub struct PgrepConfig {
    /// RNG seed for the synthetic corpus.
    pub seed: u64,
    /// Corpus size in bytes.
    pub corpus_bytes: usize,
    /// The pattern to search for.
    pub pattern: String,
    /// Allowed mismatches (Hamming distance).
    pub max_errors: usize,
    /// Read-chunk size in bytes.
    pub chunk: usize,
    /// Worker threads.
    pub threads: usize,
    /// Plant the pattern every N words (0 = don't plant).
    pub plant_every: usize,
}

impl Default for PgrepConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            corpus_bytes: 256 * 1024,
            pattern: "consectetur".into(),
            max_errors: 1,
            chunk: 64 * 1024,
            threads: 4,
            plant_every: 50,
        }
    }
}

/// Bitap k-mismatch search. Returns the *end* offsets (exclusive) of
/// every window of `pattern.len()` bytes within Hamming distance
/// `max_errors` of the pattern.
///
/// # Panics
/// Panics if the pattern is empty or longer than [`MAX_PATTERN`].
pub fn bitap_search(text: &[u8], pattern: &[u8], max_errors: usize) -> Vec<usize> {
    assert!(!pattern.is_empty(), "empty pattern");
    assert!(pattern.len() <= MAX_PATTERN, "pattern longer than {MAX_PATTERN}");
    let m = pattern.len();
    let accept = 1u64 << (m - 1);

    // With an error budget >= m, every length-m window matches trivially.
    if max_errors >= m {
        return (m..=text.len()).collect();
    }

    // Character masks: bit j set iff pattern[j] == c.
    let mut masks = [0u64; 256];
    for (j, &p) in pattern.iter().enumerate() {
        masks[p as usize] |= 1 << j;
    }

    let k = max_errors;
    let mut r = vec![0u64; k + 1];
    let mut out = Vec::new();

    for (i, &c) in text.iter().enumerate() {
        let mask = masks[c as usize];
        let mut prev_old = r[0];
        r[0] = ((r[0] << 1) | 1) & mask;
        for slot in r.iter_mut().skip(1) {
            let cur_old = *slot;
            // Match with d errors, or substitute the current character
            // on top of a (d-1)-error prefix.
            *slot = (((cur_old << 1) | 1) & mask) | ((prev_old << 1) | 1);
            prev_old = cur_old;
        }
        if r[k] & accept != 0 {
            out.push(i + 1);
        }
    }
    out
}

/// Bitap with full Levenshtein distance (substitutions, insertions and
/// deletions) — the complete agrep semantics. Returns the end offsets
/// (exclusive) of every text position where some substring ending there
/// is within edit distance `max_errors` of the pattern.
///
/// # Panics
/// Panics if the pattern is empty or longer than [`MAX_PATTERN`].
pub fn bitap_search_edit(text: &[u8], pattern: &[u8], max_errors: usize) -> Vec<usize> {
    assert!(!pattern.is_empty(), "empty pattern");
    assert!(pattern.len() <= MAX_PATTERN, "pattern longer than {MAX_PATTERN}");
    let m = pattern.len();
    let accept = 1u64 << (m - 1);

    if max_errors >= m {
        // Deleting every pattern character matches the empty string
        // anywhere, including before the first text byte.
        return (0..=text.len()).collect();
    }

    let mut masks = [0u64; 256];
    for (j, &p) in pattern.iter().enumerate() {
        masks[p as usize] |= 1 << j;
    }

    let k = max_errors;
    // R[d] bit j: some suffix of the text read so far matches
    // pattern[..=j] with at most d errors. Initially (empty text) a
    // prefix of length j matches by deleting j pattern characters.
    let mut r = vec![0u64; k + 1];
    for (d, slot) in r.iter_mut().enumerate() {
        // Bit j-1 stands for pattern prefix length j, reachable from
        // empty text by j deletions — so bits 0..d are set at level d.
        *slot = (1u64 << d).wrapping_sub(1);
    }
    let mut out = Vec::new();
    if r[k] & accept != 0 {
        out.push(0);
    }

    for (i, &c) in text.iter().enumerate() {
        let mask = masks[c as usize];
        let mut old_prev = r[0];
        r[0] = ((r[0] << 1) | 1) & mask;
        let mut new_prev = r[0];
        for slot in r.iter_mut().skip(1) {
            let cur_old = *slot;
            *slot = (((cur_old << 1) | 1) & mask) // match
                | ((old_prev << 1) | 1)          // substitution
                | ((new_prev << 1) | 1)          // deletion (skip pattern char)
                | old_prev; // insertion (extra text char)
            old_prev = cur_old;
            new_prev = *slot;
        }
        if r[k] & accept != 0 {
            out.push(i + 1);
        }
    }
    out
}

/// Reference for [`bitap_search_edit`]: semi-global edit-distance DP
/// (free start in the text), O(n·m).
pub fn naive_search_edit(text: &[u8], pattern: &[u8], max_errors: usize) -> Vec<usize> {
    let m = pattern.len();
    if m == 0 {
        return Vec::new();
    }
    // dp[j] = min edit distance of pattern[..j] to some suffix of
    // text[..i]; dp[0] = 0 always (free start).
    let mut dp: Vec<usize> = (0..=m).collect();
    let mut out = Vec::new();
    if dp[m] <= max_errors {
        out.push(0);
    }
    for (i, &c) in text.iter().enumerate() {
        let mut prev_diag = dp[0];
        for j in 1..=m {
            let saved = dp[j];
            let sub = prev_diag + usize::from(pattern[j - 1] != c);
            let ins = dp[j] + 1; // extra text char
            let del = dp[j - 1] + 1; // skipped pattern char
            dp[j] = sub.min(ins).min(del);
            prev_diag = saved;
        }
        if dp[m] <= max_errors {
            out.push(i + 1);
        }
    }
    out
}

/// Reference implementation: sliding-window Hamming comparison.
pub fn naive_search(text: &[u8], pattern: &[u8], max_errors: usize) -> Vec<usize> {
    let m = pattern.len();
    if m == 0 || m > text.len() {
        return Vec::new();
    }
    (0..=text.len() - m)
        .filter(|&s| {
            let mismatches = text[s..s + m].iter().zip(pattern).filter(|(a, b)| a != b).count();
            mismatches <= max_errors
        })
        .map(|s| s + m)
        .collect()
}

/// Search output plus I/O accounting.
#[derive(Debug, Clone)]
pub struct PgrepResult {
    /// Match end offsets within the corpus, sorted ascending.
    pub matches: Vec<usize>,
    /// Number of chunks searched.
    pub chunks: usize,
    /// Worker threads actually used.
    pub threads: usize,
}

/// Runs the parallel approximate search over a synthesized corpus read
/// through the instrumented store, returning matches and the I/O trace.
pub fn run(cfg: &PgrepConfig) -> io::Result<(PgrepResult, TraceFile)> {
    assert!(!cfg.pattern.is_empty() && cfg.pattern.len() <= MAX_PATTERN);
    let corpus = text_corpus(cfg.seed, cfg.corpus_bytes, &cfg.pattern, cfg.plant_every);

    let mut store = TracedStore::new("pgrep-corpus.txt");
    let file = store.create_with("corpus", corpus);
    store.open(file).expect("fresh file opens");

    // Chunked reads with (m-1)-byte overlap; I/O is sequential and
    // single-streamed (the disk is one spindle), search is parallel.
    let m = cfg.pattern.len();
    let overlap = m - 1;
    let total = store.len(file);
    let chunk = cfg.chunk.max(m);
    let mut pieces: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut offset = 0u64;
    while offset < total {
        let end = (offset + chunk as u64).min(total);
        let read_end = (end + overlap as u64).min(total);
        let mut buf = vec![0u8; (read_end - offset) as usize];
        store.read_at(file, offset, &mut buf)?;
        pieces.push((offset, buf));
        offset = end;
    }
    store.close(file)?;

    let threads = cfg.threads.max(1);
    let pattern = cfg.pattern.as_bytes().to_vec();
    let k = cfg.max_errors;
    let mut matches: Vec<usize> = Vec::new();

    std::thread::scope(|scope| {
        let handles: Vec<_> = pieces
            .chunks(pieces.len().div_ceil(threads).max(1))
            .map(|batch| {
                let pattern = &pattern;
                scope.spawn(move || {
                    let mut found = Vec::new();
                    for (base, data) in batch {
                        for end in bitap_search(data, pattern, k) {
                            found.push(*base as usize + end);
                        }
                    }
                    found
                })
            })
            .collect();
        for h in handles {
            matches.extend(h.join().expect("search worker panicked"));
        }
    });

    matches.sort_unstable();
    matches.dedup(); // overlap regions are searched twice
    let result = PgrepResult { matches, chunks: pieces.len(), threads };
    let trace = store.into_trace().expect("instrumented trace is valid");
    Ok((result, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_match() {
        let hits = bitap_search(b"the quick brown fox", b"quick", 0);
        assert_eq!(hits, vec![9]);
    }

    #[test]
    fn one_mismatch() {
        let hits = bitap_search(b"the quack brown fox", b"quick", 1);
        assert_eq!(hits, vec![9], "quack ~ quick at distance 1");
        assert!(bitap_search(b"the quack brown fox", b"quick", 0).is_empty());
    }

    #[test]
    fn overlapping_matches() {
        let hits = bitap_search(b"aaaa", b"aa", 0);
        assert_eq!(hits, vec![2, 3, 4]);
    }

    #[test]
    fn errors_capped_at_pattern_length() {
        // k >= m means everything of length m matches.
        let hits = bitap_search(b"xyz", b"ab", 5);
        assert_eq!(hits, vec![2, 3]);
    }

    #[test]
    fn no_match_in_short_text() {
        assert!(bitap_search(b"ab", b"abc", 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty pattern")]
    fn empty_pattern_panics() {
        bitap_search(b"abc", b"", 0);
    }

    #[test]
    fn parallel_run_finds_planted_needles() {
        let cfg = PgrepConfig::default();
        let (result, trace) = run(&cfg).unwrap();
        assert!(!result.matches.is_empty(), "planted pattern must be found");
        assert!(result.chunks > 1, "corpus spans multiple chunks");
        // Verify against a direct search of the same corpus.
        let corpus = text_corpus(cfg.seed, cfg.corpus_bytes, &cfg.pattern, cfg.plant_every);
        let expect = naive_search(&corpus, cfg.pattern.as_bytes(), cfg.max_errors);
        assert_eq!(result.matches, expect);
        // Trace shape: open, sequential reads, close.
        let stats = clio_trace::stats::TraceStats::compute(&trace);
        assert!(stats.is_read_dominated());
        assert!(stats.sequentiality < 1.0, "overlap makes reads near-sequential, not exact");
    }

    #[test]
    fn single_thread_equals_parallel() {
        let base = PgrepConfig::default();
        let (par, _) = run(&base).unwrap();
        let (seq, _) = run(&PgrepConfig { threads: 1, ..base }).unwrap();
        assert_eq!(par.matches, seq.matches);
    }

    #[test]
    fn match_spanning_chunk_boundary_found() {
        // Force a tiny chunk so the planted word straddles boundaries.
        let cfg =
            PgrepConfig { corpus_bytes: 4096, chunk: 64, plant_every: 10, ..Default::default() };
        let (result, _) = run(&cfg).unwrap();
        let corpus = text_corpus(cfg.seed, cfg.corpus_bytes, &cfg.pattern, cfg.plant_every);
        let expect = naive_search(&corpus, cfg.pattern.as_bytes(), cfg.max_errors);
        assert_eq!(result.matches, expect);
    }

    #[test]
    fn edit_distance_finds_indels() {
        // "qick" is one deletion from "quick"; Hamming cannot see it.
        assert!(bitap_search(b"the qick fox", b"quick", 1).is_empty());
        assert!(!bitap_search_edit(b"the qick fox", b"quick", 1).is_empty());
        // "quuick" is one insertion away.
        assert!(!bitap_search_edit(b"a quuick fox", b"quick", 1).is_empty());
        // Exact match still found at distance 0.
        assert_eq!(bitap_search_edit(b"quick", b"quick", 0), vec![5]);
    }

    #[test]
    fn edit_distance_zero_equals_exact() {
        let text = b"abcabcabc";
        assert_eq!(bitap_search_edit(text, b"abc", 0), naive_search_edit(text, b"abc", 0));
        assert_eq!(
            bitap_search_edit(text, b"abc", 0),
            bitap_search(text, b"abc", 0),
            "k=0: edit and Hamming agree"
        );
    }

    #[test]
    fn edit_budget_at_least_m_matches_everywhere() {
        assert_eq!(bitap_search_edit(b"xy", b"ab", 2), vec![0, 1, 2]);
        assert_eq!(naive_search_edit(b"xy", b"ab", 2), vec![0, 1, 2]);
    }

    proptest! {
        #[test]
        fn bitap_matches_naive(text in prop::collection::vec(97u8..101, 0..300),
                               pat in prop::collection::vec(97u8..101, 1..8),
                               k in 0usize..3) {
            let got = bitap_search(&text, &pat, k);
            let want = naive_search(&text, &pat, k);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn bitap_edit_matches_dp(text in prop::collection::vec(97u8..101, 0..200),
                                 pat in prop::collection::vec(97u8..101, 1..8),
                                 k in 0usize..3) {
            let got = bitap_search_edit(&text, &pat, k);
            let want = naive_search_edit(&text, &pat, k);
            prop_assert_eq!(got, want);
        }

        #[test]
        fn edit_is_superset_of_hamming(text in prop::collection::vec(97u8..101, 0..200),
                                       pat in prop::collection::vec(97u8..101, 1..8),
                                       k in 0usize..3) {
            let hamming = bitap_search(&text, &pat, k);
            let edit = bitap_search_edit(&text, &pat, k);
            for pos in hamming {
                prop_assert!(edit.contains(&pos),
                             "Hamming match at {pos} must also be an edit match");
            }
        }
    }
}
