//! In-memory spans for the traced run, and the self-time arithmetic of the
//! layer ledger.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the replayed request the span belongs to.
    pub request: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans in memory; nothing is written until [`Recorder::write_jsonl`].
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span ending "now" until [`Recorder::close`] moves its end.
    pub fn open(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let start = self.now();
        self.record(name, request, parent, start, start)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span; returns its result and the span's index.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start, span.end
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children count once, and a child
/// reaching outside its parent only covers the part inside.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let outer = &spans[parent];
            let start = span.start.max(outer.start);
            let end = span.end.min(outer.end);
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for &(start, end) in intervals.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn nested_children_subtract_from_their_direct_parent_only() {
        let spans = [
            span("root", None, 0, 100),
            span("child", Some(0), 10, 60),
            span("grandchild", Some(1), 20, 50),
            span("sibling", Some(0), 70, 80),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 40, 45),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 40, 5]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = [
            span("root", None, 10, 50),
            span("early", Some(0), 0, 20),
            span("late", Some(0), 45, 90),
        ];
        assert_eq!(self_times(&spans), vec![25, 20, 45]);
    }

    #[test]
    fn recorder_spans_nest_in_time() {
        let mut recorder = Recorder::new();
        let root = recorder.open("root", 3, None);
        let ((), child) = recorder.time("child", 3, Some(root), || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        recorder.close(root);
        let spans = recorder.spans();
        assert!(spans[root].start <= spans[child].start);
        assert!(spans[child].end <= spans[root].end);
        let selfs = self_times(spans);
        assert_eq!(selfs[root] + selfs[child], spans[root].duration());
    }
}
