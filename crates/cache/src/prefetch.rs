//! Sequential readahead detection.
//!
//! The paper: "At the time when a read, write, or seek operation is
//! performed, a prefetch operation will be invoked accordingly." The NT
//! cache manager's readahead was sequential-pattern triggered; this
//! detector mirrors that: per file it remembers the last page accessed,
//! and when an access continues the run it asks the cache to stage the
//! next window of pages. A seek that breaks the run resets the window.

use crate::hash::MixMap;
use crate::page::FileId;

/// Per-file sequential-run state.
#[derive(Debug, Clone, Copy)]
struct RunState {
    /// Page index following the last access's final page.
    expected_next: u64,
    /// Length of the current sequential run, in accesses.
    run_length: u32,
}

/// Configuration of the readahead policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchConfig {
    /// Sequential accesses needed before readahead kicks in.
    pub trigger_after: u32,
    /// Initial readahead window, in pages.
    pub initial_window: u64,
    /// Maximum readahead window, in pages (the window doubles per
    /// sequential access, like Linux/NT readahead ramping).
    pub max_window: u64,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self { trigger_after: 2, initial_window: 2, max_window: 32 }
    }
}

/// Detects sequential access runs and sizes readahead windows.
#[derive(Debug, Clone)]
pub struct Prefetcher {
    cfg: PrefetchConfig,
    runs: MixMap<FileId, RunState>,
}

impl Prefetcher {
    /// Creates a detector with the given policy.
    pub fn new(cfg: PrefetchConfig) -> Self {
        Self { cfg, runs: MixMap::default() }
    }

    /// Reports an access to pages `[first, last]` of `file`; returns the
    /// number of pages to read ahead past `last` (0 = no readahead).
    pub fn on_access(&mut self, file: FileId, first: u64, last: u64) -> u64 {
        let state = self.runs.entry(file).or_insert(RunState { expected_next: 0, run_length: 0 });
        // Sequential continuation: the access starts at (or within one
        // page of) where the previous one ended.
        let sequential = first <= state.expected_next && state.expected_next <= last + 1;
        if sequential {
            state.run_length = state.run_length.saturating_add(1);
        } else {
            state.run_length = 1;
        }
        state.expected_next = last + 1;

        if state.run_length <= self.cfg.trigger_after {
            return 0;
        }
        let ramp = state.run_length - self.cfg.trigger_after - 1;

        self.cfg.initial_window.saturating_mul(1u64 << ramp.min(10)).min(self.cfg.max_window)
    }

    /// Forgets the run state of `file` (on close).
    pub fn forget(&mut self, file: FileId) {
        self.runs.remove(&file);
    }

    /// Current policy.
    pub fn config(&self) -> PrefetchConfig {
        self.cfg
    }
}

impl Default for Prefetcher {
    fn default() -> Self {
        Self::new(PrefetchConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: FileId = FileId(0);

    #[test]
    fn first_access_never_prefetches() {
        let mut p = Prefetcher::default();
        assert_eq!(p.on_access(F, 0, 0), 0);
    }

    #[test]
    fn sequential_run_triggers_and_ramps() {
        let mut p = Prefetcher::default();
        assert_eq!(p.on_access(F, 0, 0), 0); // run 1
        assert_eq!(p.on_access(F, 1, 1), 0); // run 2 (= trigger_after)
        let w3 = p.on_access(F, 2, 2); // run 3: window opens
        assert_eq!(w3, 2);
        let w4 = p.on_access(F, 3, 3); // run 4: doubled
        assert_eq!(w4, 4);
        let w5 = p.on_access(F, 4, 4);
        assert_eq!(w5, 8);
    }

    #[test]
    fn window_capped_at_max() {
        let mut p = Prefetcher::new(PrefetchConfig {
            trigger_after: 0,
            initial_window: 16,
            max_window: 32,
        });
        let mut last = 0;
        for i in 0..10 {
            last = p.on_access(F, i, i);
        }
        assert_eq!(last, 32);
    }

    #[test]
    fn random_access_resets_run() {
        let mut p = Prefetcher::default();
        for i in 0..5 {
            p.on_access(F, i, i);
        }
        // Jump far away: run resets, no prefetch.
        assert_eq!(p.on_access(F, 1000, 1000), 0);
        assert_eq!(p.on_access(F, 1001, 1001), 0);
        assert_eq!(p.on_access(F, 1002, 1002), 2, "new run re-triggers");
    }

    #[test]
    fn overlapping_rereads_count_as_sequential() {
        let mut p = Prefetcher::default();
        p.on_access(F, 0, 1);
        // Re-reading the tail page continues the run (expected_next=2 within [1, 2+1]).
        p.on_access(F, 1, 2);
        let w = p.on_access(F, 3, 3);
        assert!(w > 0);
    }

    #[test]
    fn per_file_isolation() {
        let mut p = Prefetcher::default();
        let f2 = FileId(2);
        for i in 0..5 {
            p.on_access(F, i, i);
        }
        assert_eq!(p.on_access(f2, 0, 0), 0, "fresh file starts a fresh run");
    }

    #[test]
    fn forget_clears_state() {
        let mut p = Prefetcher::default();
        for i in 0..5 {
            p.on_access(F, i, i);
        }
        p.forget(F);
        assert_eq!(p.on_access(F, 5, 5), 0, "state gone after forget");
    }
}
