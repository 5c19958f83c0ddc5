//! In-memory spans for the traced pass: one per call the benchmark makes
//! into a layer (name, start, end, the span that caused it, and the
//! evaluation it belongs to), kept in memory and written out when the pass
//! ends. Spans inside the program are a later change; these are recorded
//! from the benchmark's side of each public function.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifies a span within one [`SpanLog`]. `ROOT` is "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;
/// `eval` value of a span that belongs to no single evaluation.
pub const NO_EVAL: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    pub eval: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Append-only span store with one clock.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Room for `additional` more spans, so recording them allocates
    /// nothing inside a timed loop.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, eval: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            eval,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Records a span around `f`.
    pub fn scope<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, NO_EVAL);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id` minus the part of it its direct children
    /// cover (children of one parent never overlap here: one thread).
    pub fn self_time_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id as usize];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Writes one JSON object per span: `id`, `parent` (null for roots),
    /// `name`, `eval` (null when none), `start_ns`, `end_ns`. Spans of
    /// evaluations `max_eval` and later are left out (a long stepped run
    /// records hundreds of thousands of them).
    pub fn write_jsonl(&self, path: &Path, max_eval: u64) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            if s.eval != NO_EVAL && s.eval >= max_eval {
                continue;
            }
            let opt = |absent: bool, v: u64| {
                if absent {
                    "null".to_string()
                } else {
                    v.to_string()
                }
            };
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"eval\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                opt(s.parent == ROOT, u64::from(s.parent)),
                s.name,
                opt(s.eval == NO_EVAL, s.eval),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        let root = log.begin("run", ROOT, NO_EVAL);
        for eval in 0..3 {
            let c = log.begin("step", root, eval);
            std::hint::black_box((0..1000).sum::<u64>());
            log.end(c);
        }
        log.end(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[1..]
            .iter()
            .all(|s| s.parent == root && s.name == "step"));
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(log.self_time_ns(root), total - children);
        assert_eq!(log.self_time_ns(1), spans[1].end_ns - spans[1].start_ns);
    }

    #[test]
    fn spans_are_written_one_object_per_line() {
        let mut log = SpanLog::new();
        let root = log.begin("run", ROOT, NO_EVAL);
        let child = log.begin("consume", root, 7);
        log.end(child);
        let late = log.begin("consume", root, 8);
        log.end(late);
        log.end(root);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        log.write_jsonl(&path, 8).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0]
            .starts_with("{\"id\": 0, \"parent\": null, \"name\": \"run\", \"eval\": null,"));
        assert!(
            lines[1].starts_with("{\"id\": 1, \"parent\": 0, \"name\": \"consume\", \"eval\": 7,")
        );
    }
}
