//! Engines: *what to replay the workload on*.

use std::path::PathBuf;

/// The replay/simulation machinery an experiment drives.
///
/// Engine-specific knobs (cache configuration, thread and shard
/// counts, machine model, scheduler policy) live on the
/// [`ExperimentBuilder`](crate::ExperimentBuilder); the engine selects
/// which of them apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Engine {
    /// Serial replay against the simulated buffer cache — fully
    /// streaming: the workload is consumed record by record, never
    /// materialized. Under [`VerifyMode::Strict`](crate::VerifyMode)
    /// and `Lenient` the stream is read, decoded and verified on a
    /// reader thread beside the cache, at most 3 × 1024 records ahead
    /// of it; [`VerifyMode::Off`](crate::VerifyMode) reads it inline.
    SerialReplay,
    /// Sharded-parallel replay against the lock-striped cache
    /// (deterministic across runs and thread counts). Streaming: the
    /// calling thread reads the workload once and hands every worker
    /// the same checked 1024-record chunks, then merges their costs —
    /// no materialized trace anywhere.
    ParallelReplay,
    /// Trace-driven machine simulation: processes contend for a
    /// striped disk array. Streaming, one pass: a per-pid splitter
    /// reads the stream's first records to learn the process roster,
    /// then feeds each simulated process — no up-front pid grouping,
    /// no second read.
    TraceSim,
    /// Seek-aware scheduled simulation: per-disk request queues
    /// reordered by the configured policy. Streaming, like
    /// [`Engine::TraceSim`].
    ScheduledSim,
    /// Replay against a real file at `sample`, timed with monotonic
    /// clocks. Streaming: records are issued straight off the source.
    RealReplay {
        /// Path of the sample file the records are issued against.
        sample: PathBuf,
    },
    /// Closed-loop serving model: N virtual clients drive the shared
    /// managed runtime ([`SharedManagedIo`](clio_runtime::SharedManagedIo))
    /// under a serial virtual-clock event loop, reporting latency
    /// percentiles and throughput into
    /// [`Report::serve`](crate::Report::serve). Deterministic across
    /// runs and host thread counts. Client count and think time come
    /// from the builder's serving knobs
    /// ([`clients`](crate::ExperimentBuilder::clients) et al.).
    Serve,
}

impl Engine {
    /// Stable machine-readable name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::SerialReplay => "serial_replay",
            Engine::ParallelReplay => "parallel_replay",
            Engine::TraceSim => "trace_sim",
            Engine::ScheduledSim => "scheduled_sim",
            Engine::RealReplay { .. } => "real_replay",
            Engine::Serve => "serve",
        }
    }

    /// Whether this engine produces a per-record replay report (as
    /// opposed to a makespan-style simulation report).
    pub fn is_replay(&self) -> bool {
        matches!(self, Engine::SerialReplay | Engine::ParallelReplay | Engine::RealReplay { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Engine::SerialReplay.name(), "serial_replay");
        assert_eq!(Engine::ParallelReplay.name(), "parallel_replay");
        assert_eq!(Engine::TraceSim.name(), "trace_sim");
        assert_eq!(Engine::ScheduledSim.name(), "scheduled_sim");
        assert_eq!(Engine::RealReplay { sample: "x".into() }.name(), "real_replay");
        assert_eq!(Engine::Serve.name(), "serve");
    }

    #[test]
    fn replay_classification() {
        assert!(Engine::SerialReplay.is_replay());
        assert!(!Engine::TraceSim.is_replay());
        assert!(!Engine::ScheduledSim.is_replay());
        assert!(!Engine::Serve.is_replay());
    }
}
