//! The chunk pipeline of the threaded replay drivers, described in the
//! [`replay`](crate::replay) module's docs.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;

use crate::error::TraceError;
use crate::record::TraceRecord;
use crate::replay::check_record;
use crate::source::{SourceMeta, TraceSource};

/// Records per chunk.
pub(crate) const CHUNK: usize = 1024;

/// Chunks in flight, each in a buffer recycled once merged: the reader
/// runs at most this many chunks ahead of the merge. One consumer that
/// replies with nothing (serial replay) takes three, since at two its
/// reader waits on every chunk the cache is slow with; workers (sharded
/// replay) take two, since each chunk in flight holds their cost columns.
pub(crate) const SERIAL_DEPTH: usize = 3;
pub(crate) const SHARDED_DEPTH: usize = 2;

/// A consumer's end of [`fan_out`]: the chunks, each with a reply to fill.
pub(crate) struct Feed<R> {
    jobs: Receiver<(Arc<Vec<TraceRecord>>, R)>,
    done: SyncSender<R>,
    /// The chunk being consumed, and its reply.
    held: Option<(Arc<Vec<TraceRecord>>, R)>,
}

impl<R> Feed<R> {
    /// Hands back the chunk held and its reply, and takes the next;
    /// `None` once the stream has ended.
    pub(crate) fn next_chunk(&mut self) -> Option<(&[TraceRecord], &mut R)> {
        if let Some((chunk, reply)) = self.held.take() {
            // Let go of the chunk first, for the reader to refill. A
            // reader that has stopped takes no reply.
            drop(chunk);
            let _ = self.done.send(reply);
        }
        let (chunk, reply) = self.held.insert(self.jobs.recv().ok()?);
        Some((chunk, reply))
    }
}

impl Feed<()> {
    /// The chunks' records as the stream of `meta`, `hint` records long.
    pub(crate) fn into_source(self, meta: SourceMeta, hint: (usize, Option<usize>)) -> FeedSource {
        FeedSource { feed: self, meta, remaining: hint, at: 0 }
    }
}

/// A serial consumer's [`Feed`] as a [`TraceSource`].
pub(crate) struct FeedSource {
    feed: Feed<()>,
    meta: SourceMeta,
    remaining: (usize, Option<usize>),
    /// The next record's place in the chunk held.
    at: usize,
}

impl TraceSource for FeedSource {
    fn meta(&self) -> SourceMeta {
        self.meta.clone()
    }

    fn next_record(&mut self) -> Option<TraceRecord> {
        loop {
            let held = self.feed.held.as_ref();
            if let Some(&record) = held.and_then(|(chunk, ())| chunk.get(self.at)) {
                self.at += 1;
                let (lower, upper) = self.remaining;
                self.remaining = (lower.saturating_sub(1), upper.map(|n| n.saturating_sub(1)));
                return Some(record);
            }
            self.feed.next_chunk()?;
            self.at = 0;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.remaining
    }
}

/// Reads `source` on the calling thread and hands each record that
/// passes [`check_record`] to all of `consumers` scoped threads, started
/// as `consume(index, feed)`. Each fills a reply for every chunk;
/// `merge` then gets the chunk and the replies, in consumer order, and
/// both are recycled, so a warm pipeline allocates nothing per chunk.
///
/// Returns the first consumer's value, or ahead of it the error of a
/// record [`check_record`] rejects. A consumer that stops early stops
/// the reader, which leaves the rest of the stream to the caller. A
/// thread the host cannot start is a [`TraceError::Io`]; a consumer's
/// panic is re-raised with its own payload.
pub(crate) fn fan_out<S: TraceSource + ?Sized, R: Default + Send, T: Send>(
    source: &mut S,
    (consumers, depth): (usize, usize),
    consume: &(impl Fn(usize, Feed<R>) -> T + Sync),
    merge: impl FnMut(&[TraceRecord], &[R]),
) -> Result<T, TraceError> {
    thread::scope(|scope| {
        let (mut jobs, mut done) = (Vec::new(), Vec::new());
        let mut spawn = |index| {
            let (job_tx, job_rx) = sync_channel(depth);
            let (done_tx, done_rx) = sync_channel(depth);
            jobs.push(job_tx);
            done.push(done_rx);
            let feed = Feed { jobs: job_rx, done: done_tx, held: None };
            thread::Builder::new().spawn_scoped(scope, move || consume(index, feed))
        };
        let first = spawn(0)?;
        let rest = (1..consumers).map(&mut spawn).collect::<Result<Vec<_>, _>>()?;
        // `lead` drops its ends of the channels: every consumer ends.
        let read = lead(source, depth, jobs, done, merge);
        let value = first.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for consumer in rest {
            consumer.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
        read.map(|()| value)
    })
}

/// The reader of [`fan_out`], over the consumers' channels.
fn lead<S: TraceSource + ?Sized, R: Default>(
    source: &mut S,
    depth: usize,
    jobs: Vec<SyncSender<(Arc<Vec<TraceRecord>>, R)>>,
    done: Vec<Receiver<R>>,
    mut merge: impl FnMut(&[TraceRecord], &[R]),
) -> Result<(), TraceError> {
    let num_files = source.meta().num_files;
    let mut replies: Vec<R> = jobs.iter().map(|_| R::default()).collect();
    let mut in_flight = VecDeque::with_capacity(depth);
    // Merges the oldest chunk in flight: `None` if none is or a consumer stopped.
    let mut settle = |in_flight: &mut VecDeque<Arc<Vec<TraceRecord>>>, replies: &mut [R]| {
        let chunk = in_flight.pop_front()?;
        for (rx, reply) in done.iter().zip(replies.iter_mut()) {
            *reply = rx.recv().ok()?;
        }
        merge(&chunk, replies);
        Some(chunk)
    };
    let (mut index, mut ended) = (0, false);
    while !ended {
        let mut chunk = if in_flight.len() < depth {
            Arc::new(Vec::with_capacity(CHUNK))
        } else {
            let Some(merged) = settle(&mut in_flight, &mut replies) else { return Ok(()) };
            merged
        };
        // Every consumer has let go of a merged chunk: this copies nothing.
        let records = Arc::make_mut(&mut chunk);
        records.clear();
        while records.len() < CHUNK {
            let Some(r) = source.next_record() else { break };
            check_record(num_files, index, &r)?;
            records.push(r);
            index += 1;
        }
        ended = records.len() < CHUNK;
        for (tx, reply) in jobs.iter().zip(&mut replies) {
            // A consumer that stopped early fails its next `settle`.
            let _ = tx.send((Arc::clone(&chunk), std::mem::take(reply)));
        }
        in_flight.push_back(chunk);
    }
    while settle(&mut in_flight, &mut replies).is_some() {}
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::panic::catch_unwind;

    use clio_cache::cache::CacheConfig;

    use super::*;
    use crate::reader::TraceFile;
    use crate::record::IoOp;
    use crate::replay::{
        replay_cached, replay_cached_pipelined, replay_parallel, replay_sharded,
        ParallelReplayOptions, ReportMode,
    };
    use crate::source::{IterSource, SliceSource};
    use crate::verify::StrictSource;

    fn meta() -> SourceMeta {
        SourceMeta { sample_file: "chunks.dat".into(), num_processes: 1, num_files: 1 }
    }

    /// `n` records of one file: an open, reads, and a close last if
    /// `closed`.
    fn records(n: usize, closed: bool) -> Vec<TraceRecord> {
        let record = |i: usize| {
            let op = match i {
                0 => IoOp::Open,
                _ if closed && i + 1 == n => IoOp::Close,
                _ => IoOp::Read,
            };
            let length = if op == IoOp::Read { 4096 } else { 0 };
            TraceRecord::simple(op, 0, i as u64 * 4096, length)
        };
        (0..n).map(record).collect()
    }

    /// A strict stream over `records`.
    fn strict(records: Vec<TraceRecord>) -> StrictSource<impl TraceSource> {
        StrictSource::with_options(IterSource::new(meta(), records.into_iter()), Default::default())
    }

    /// What an admitting run does once its engine is done: read the
    /// rest of the stream, then the verdict, then the engine's error.
    fn judged(mut stream: StrictSource<impl TraceSource>, ran: Result<(), TraceError>) -> String {
        while stream.next_record().is_some() {}
        match (stream.finish(), ran) {
            (Err(violation), _) => violation.code().to_string(),
            (Ok(_), ran) => format!("{ran:?}"),
        }
    }

    #[test]
    fn every_record_arrives_in_order_at_every_chunk_boundary() {
        let config = CacheConfig { capacity_pages: 64, ..Default::default() };
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 1] {
            let expected = records(n, true);
            let mut stream = strict(expected.clone());
            let hint = stream.size_hint();
            let consume = |_, feed: Feed<()>| {
                let mut source = feed.into_source(meta(), hint);
                assert_eq!(source.size_hint(), hint);
                let seen: Vec<_> = std::iter::from_fn(|| source.next_record()).collect();
                assert!(source.next_record().is_none(), "an ended stream stays ended");
                seen
            };
            let seen = fan_out(&mut stream, (1, SERIAL_DEPTH), &consume, |_, _| {}).unwrap();
            assert_eq!(seen, expected, "{n} records");
            let mut inline = strict(expected.clone());
            while inline.next_record().is_some() {}
            assert_eq!(format!("{:?}", stream.finish()), format!("{:?}", inline.finish()));

            let trace = TraceFile::build("chunks.dat", 1, expected).unwrap();
            let replay = |pipelined: bool| {
                let source = &mut SliceSource::new(&trace);
                let (config, mode) = (config.clone(), ReportMode::Full);
                match pipelined {
                    false => replay_cached(source, config, mode),
                    true => replay_cached_pipelined(source, config, mode),
                }
                .unwrap()
            };
            let (inline, pipelined) = (replay(false), replay(true));
            assert_eq!(pipelined.timings, inline.timings, "{n} records");
            assert_eq!(pipelined.metrics, inline.metrics, "{n} records");
            for threads in [1, 2] {
                let options = ParallelReplayOptions { threads, shards: 4 };
                let reference = replay_parallel(&trace, config.clone(), &options).unwrap();
                let source = &mut SliceSource::new(&trace);
                let sharded =
                    replay_sharded(source, config.clone(), &options, ReportMode::Full).unwrap();
                let bits = |r: &crate::replay::ReplayReport| {
                    r.timings.iter().map(|t| (t.record, t.elapsed_ms.to_bits())).collect::<Vec<_>>()
                };
                assert_eq!(bits(&sharded), bits(&reference), "{n} records x{threads}");
                assert_eq!(sharded.shard_metrics, reference.shard_metrics, "{n} records");
            }
        }
    }

    #[test]
    fn a_stopped_consumer_stops_the_reader_and_leaves_the_rest_to_judge() {
        const RECORDS: usize = 100_000;
        let read = Cell::new(0);
        let records = records(RECORDS, true).into_iter().inspect(|_| read.set(read.get() + 1));
        let mut stream =
            StrictSource::with_options(IterSource::new(meta(), records), Default::default());
        let consume = |_, feed: Feed<()>| {
            let mut source = feed.into_source(meta(), (0, None));
            std::iter::from_fn(|| source.next_record()).take(10).count()
        };
        assert_eq!(fan_out(&mut stream, (1, SERIAL_DEPTH), &consume, |_, _| {}).unwrap(), 10);
        assert!(read.get() <= SERIAL_DEPTH * CHUNK, "the reader read {} records", read.get());
        assert_eq!(judged(stream, Ok(())), "Ok(())");
        assert_eq!(read.get(), RECORDS, "the stream was judged in full");
    }

    #[test]
    fn an_engine_error_leaves_the_verdict_whole_to_come_first() {
        let engine = |_, feed: Feed<()>| {
            feed.into_source(meta(), (0, None)).next_record();
            Err(TraceError::BadHeader("engine".into()))
        };
        // A stream with no close: V06 at its end, whatever the engine did.
        let mut unclosed = strict(records(CHUNK + 1, false));
        let ran = fan_out(&mut unclosed, (1, SERIAL_DEPTH), &engine, |_, _| {}).unwrap();
        assert_eq!(judged(unclosed, ran), "V06");
        let mut clean = strict(records(CHUNK + 1, true));
        let ran = fan_out(&mut clean, (1, SERIAL_DEPTH), &engine, |_, _| {}).unwrap();
        assert!(judged(clean, ran).contains("engine"));
        // The reader's own check error comes back ahead of the consumer's.
        let mut stray = records(CHUNK + 1, true);
        stray[CHUNK].file_id = 7;
        let mut source = IterSource::new(meta(), stray.into_iter());
        match fan_out(&mut source, (1, SERIAL_DEPTH), &engine, |_, _| {}) {
            Err(TraceError::FileIdOutOfRange { index, file_id: 7, .. }) => {
                assert_eq!(index, CHUNK as u64)
            }
            other => panic!("expected the reader's roster error, got {other:?}"),
        }
    }

    #[test]
    fn a_consumer_panic_is_re_raised_with_its_own_payload() {
        for consumers in [1, 2] {
            let caught = catch_unwind(|| {
                let mut source = IterSource::new(meta(), records(4 * CHUNK, true).into_iter());
                let consume = |index, mut feed: Feed<()>| {
                    let mut chunks = 0;
                    while feed.next_chunk().is_some() {
                        chunks += 1;
                        if index + 1 == consumers && chunks == 2 {
                            panic!("consumer {index} broke");
                        }
                    }
                };
                fan_out(&mut source, (consumers, SHARDED_DEPTH), &consume, |_, _| {})
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(format!("consumer {} broke", consumers - 1).as_str()));
        }
    }
}
