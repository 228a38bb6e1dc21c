//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent, thread and the epoch it
//! belongs to (the id shared by every span of one epoch). Spans stay in
//! memory until the run ends and are then written in Chrome's trace
//! event format. A disabled tracer records nothing, so the same code
//! runs traced and untraced and the difference is the tracing overhead.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, as the repository's modules name it.
    pub name: &'static str,
    /// The epoch this span belongs to.
    pub epoch: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// 0 for the main thread, 1.. for the benchmark's worker threads.
    pub thread: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// On-CPU time of the thread over the span, where measured.
    pub cpu_ns: Option<u64>,
}

impl Span {
    /// Wall duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A copyable clock that worker threads share with their tracer.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// ns since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// The span store.
pub struct Tracer {
    on: bool,
    clock: Clock,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            clock: Clock(Instant::now()),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The shared clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Opens a span on the main thread, starting now.
    pub fn open(&mut self, name: &'static str, epoch: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.clock.now_ns();
        self.push(Span {
            name,
            epoch,
            parent,
            thread: 0,
            start_ns: now,
            end_ns: now,
            cpu_ns: None,
        })
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.clock.now_ns();
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// Records a span measured elsewhere (e.g. on a worker thread).
    pub fn push(&mut self, span: Span) -> SpanId {
        if !self.on {
            return usize::MAX;
        }
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (SpanId, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// The part of span `id` that its direct children cover, ns
    /// (overlapping children on parallel threads count once).
    pub fn covered_ns(&self, id: SpanId) -> u64 {
        let Some(p) = self.spans.get(id) else {
            return 0;
        };
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let (mut total, mut reach) = (0u64, p.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                total += b - a;
                reach = b;
            }
        }
        total
    }

    /// Share of span `id` covered by its direct children.
    pub fn coverage(&self, id: SpanId) -> f64 {
        match self.spans.get(id) {
            Some(s) if s.dur_ns() > 0 => self.covered_ns(id) as f64 / s.dur_ns() as f64,
            _ => 0.0,
        }
    }

    /// Self time of span `id`: its duration minus what its children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans
            .get(id)
            .map_or(0, |s| s.dur_ns() - self.covered_ns(id))
    }

    /// Writes every span as a Chrome trace (`chrome://tracing`,
    /// Perfetto) complete event.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cpu = s
                .cpu_ns
                .map_or("null".to_string(), |c| format!("{:.3}", c as f64 / 1e3));
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"sies\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"epoch\":{},\"parent\":{parent},\"cpu_us\":{cpu}}}}}{sep}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.epoch,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, thread: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            epoch: 7,
            parent,
            thread,
            start_ns: start,
            end_ns: end,
            cpu_ns: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.push(span("epoch", None, 0, 0, 100));
        let src = t.push(span("source", Some(root), 0, 0, 60));
        // Two parallel workers under `source` overlap in [20, 40).
        t.push(span("chunk", Some(src), 1, 5, 40));
        t.push(span("chunk", Some(src), 2, 20, 55));
        t.push(span("merge", Some(root), 0, 60, 90));
        assert_eq!(t.covered_ns(src), 50);
        assert_eq!(t.self_ns(src), 10);
        assert_eq!(t.self_ns(root), 10);
        assert!((t.coverage(root) - 0.9).abs() < 1e-12);
        assert_eq!(t.named("chunk").count(), 2);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut t = Tracer::new(true);
        let root = t.push(span("epoch", None, 0, 10, 20));
        t.push(span("late", Some(root), 0, 15, 40));
        assert_eq!(t.covered_ns(root), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("epoch", 0, None);
        t.close(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage(id), 0.0);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new(true);
        let root = t.open("epoch", 3, None);
        t.close(root);
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-{}.trace.json", std::process::id()));
        t.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let serde_json::Value::Map(top) = v else {
            panic!("not an object")
        };
        assert!(top.iter().any(|(k, _)| k == "traceEvents"));
    }
}
