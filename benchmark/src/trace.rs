//! Spans recorded by the layer walk, from the benchmark's own code around
//! the calls into each layer.

use std::time::Instant;

/// One timed interval. A span covers every call of one kind made for one
/// window (`calls` of them): per-call spans on a 512-leaf window cost more
/// clock reads than the calls they time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recording, `None` for a root.
    pub parent: Option<u32>,
    /// The window the work was done for; spans of one window share it.
    pub window: u32,
    pub calls: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where the walk reports its spans. The walk is generic over this, so the
/// untraced walk is the same code with recording compiled to nothing.
pub trait Recorder {
    /// Start a span; the returned id closes it and parents its children.
    fn open(&mut self, name: &'static str, window: u32, parent: Option<u32>) -> u32;
    /// End span `id`, which covered `calls` calls.
    fn close(&mut self, id: u32, calls: u32);
}

/// Records nothing.
pub struct NoSpans;

impl Recorder for NoSpans {
    #[inline(always)]
    fn open(&mut self, _name: &'static str, _window: u32, _parent: Option<u32>) -> u32 {
        0
    }

    #[inline(always)]
    fn close(&mut self, _id: u32, _calls: u32) {}
}

/// Keeps spans in a preallocated vector until the walk is over.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn with_capacity(spans: usize) -> Spans {
        Spans { origin: Instant::now(), spans: Vec::with_capacity(spans) }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Recorder for Spans {
    fn open(&mut self, name: &'static str, window: u32, parent: Option<u32>) -> u32 {
        debug_assert!(self.spans.len() < self.spans.capacity(), "span buffer must not grow");
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, window, calls: 0 });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, id: u32, calls: u32) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.calls = calls;
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may nest, touch or overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The trace file: one JSON object, spans in recording order (a span's
/// `id` is its position, which `parent` refers to).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut s = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (i, (span, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        s.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \
             \"window\": {}, \"calls\": {}, \"self_ns\": {self_ns}}}{comma}\n",
            span.name, span.start_ns, span.end_ns, span.window, span.calls
        ));
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns, end_ns, parent, window: 0, calls: 1 }
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let spans = vec![
            span("window", 0, 100, None),
            span("a", 10, 30, Some(0)), // adjacent to b
            span("b", 30, 50, Some(0)),
            span("inner", 35, 45, Some(2)), // nested in b
            span("c", 60, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 10, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_escaping_children_are_not_counted_twice() {
        let spans = vec![
            span("window", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)), // overlaps a
            span("c", 190, 250, Some(0)), // runs past the parent
            span("d", 10, 20, Some(0)),   // entirely outside
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let mut rec = Spans::with_capacity(4);
        let w = rec.open("window", 7, None);
        let a = rec.open("a", 7, Some(w));
        rec.close(a, 3);
        rec.close(w, 1);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[1].parent, spans[1].window, spans[1].calls), (Some(0), 7, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = to_json("bulk-mem", 1, &spans);
        assert!(json.contains("\"name\": \"a\"") && json.contains("\"parent\": null"));
    }
}
