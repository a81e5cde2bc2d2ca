//! The in-memory span recorder of the traced pass.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; spans inside the crates are a later change. A span
//! carries its name, start, end, the span that caused it, the rep it
//! belongs to, and the counts taken at the same boundary (records,
//! pages, events), so every ratio is measured where the work happens.

use std::time::Instant;

use serde::Serialize;

/// One recorded span. Times are ns since the recorder was created.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, `None` for a root.
    pub parent: Option<usize>,
    /// The rep (or layer sweep) the span belongs to.
    pub rep: u32,
    /// Duration minus the part of the interval child spans cover;
    /// filled in by [`Recorder::finish`].
    pub self_ns: u64,
    /// Counts taken at this boundary, e.g. `("records", 60000)`.
    pub counts: Vec<(String, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory; they are written out when the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last: the next span's parent is the top.
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: impl Into<String>, rep: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep,
            self_ns: 0,
            counts: Vec::new(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one),
    /// attaching the counts taken at its boundary.
    pub fn exit(&mut self, id: usize, counts: &[(&str, u64)]) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.counts = counts.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    }

    /// Times `f` as a span and returns its result with the span's
    /// duration in ns; `counts` are read from the result.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        rep: u32,
        f: impl FnOnce() -> T,
        counts: impl FnOnce(&T) -> Vec<(&'static str, u64)>,
    ) -> (T, f64) {
        let id = self.enter(name, rep);
        let out = std::hint::black_box(f());
        let counts = counts(&out);
        self.exit(id, &counts);
        (out, self.spans[id].duration_ns() as f64)
    }

    /// The spans recorded so far (self times not yet filled in).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Computes every span's self time and hands the spans over.
    pub fn finish(mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span was closed");
        let selfs = self_times(&self.spans);
        for (span, self_ns) in self.spans.iter_mut().zip(selfs) {
            span.self_ns = self_ns;
        }
        self.spans
    }
}

/// Self time of each span: its duration minus the length of the union
/// of its children's intervals, clipped to the span — so children that
/// overlap each other are not subtracted twice, and a grandchild (which
/// lies inside a child) is not subtracted at all.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            rep: 0,
            self_ns: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Root 0..100 with children 10..40 and 30..60: they cover 10..60.
        let spans = [span(0, 100, None), span(10, 40, Some(0)), span(30, 60, Some(0))];
        assert_eq!(self_times(&spans), vec![50, 30, 30]);
    }

    #[test]
    fn nested_children_count_against_their_own_parent_only() {
        // Root 0..100 > child 20..80 > grandchild 30..50.
        let spans = [span(0, 100, None), span(20, 80, Some(0)), span(30, 50, Some(1))];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn a_child_reaching_past_its_parent_is_clipped() {
        let spans = [span(10, 50, None), span(0, 20, Some(0)), span(40, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::new();
        let root = rec.enter("rep", 7);
        let (value, ns) = rec.time("run", 7, || 41 + 1, |v| vec![("records", *v)]);
        assert_eq!(value, 42);
        rec.exit(root, &[]);
        let spans = rec.finish();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].counts, vec![("records".to_string(), 42)]);
        assert_eq!(spans[1].duration_ns() as f64, ns);
        assert_eq!(spans[0].self_ns, spans[0].duration_ns() - spans[1].duration_ns());
        assert!(spans.iter().all(|s| s.rep == 7));
    }
}
