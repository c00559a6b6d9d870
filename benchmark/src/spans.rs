//! Spans recorded by the benchmark around its calls into the program.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the operation (cell or request) it belongs to. Spans stay in memory
//! and are written as JSON lines when the run ends. With the recorder
//! disabled every call is a branch and nothing else, which is how the plain
//! passes run.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The operation this span belongs to; spans of one cell or one request
    /// share it.
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { enabled: false, epoch, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the operation id that the following spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(index);
        Some(index)
    }

    pub fn exit(&mut self, token: Option<usize>) {
        let Some(index) = token else { return };
        self.spans[index].end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must nest");
    }

    /// Times one call that records no spans of its own.
    pub fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let token = self.enter(name);
        let out = f();
        self.exit(token);
        out
    }

    /// Records a child of `parent` of which only the duration is known, as
    /// for the daemon's audit `wall_s`. It is placed at the end of its
    /// parent.
    pub fn push_duration_only(&mut self, name: &str, parent: usize, seconds: f64) {
        let p = &self.spans[parent];
        let ns = ((seconds * 1e9) as u64).min(p.end_ns - p.start_ns);
        let span = Span {
            name: name.into(),
            op: p.op,
            parent: Some(parent),
            start_ns: p.end_ns - ns,
            end_ns: p.end_ns,
        };
        self.spans.push(span);
    }

    /// Records a span measured elsewhere, as a client thread measures a
    /// request. `None` when the recorder is disabled.
    pub fn push_span(&mut self, name: &str, op: u64, start_ns: u64, end_ns: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name: name.into(), op, parent: None, start_ns, end_ns });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self.self_seconds();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                (own[i] * 1e9).round() as i64
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(Instant::now());
        t.set_enabled(true);
        t.set_op(9);
        let pass = t.enter("pass");
        let cell = t.enter("cell");
        t.leaf("layer", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(cell);
        t.exit(pass);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), Some(1)));
        assert!(s.iter().all(|x| x.op == 9));
        let own = t.self_seconds();
        assert!(own[2] >= 0.002);
        // A parent's self time excludes its child.
        assert!((own[1] - (s[1].seconds() - s[2].seconds())).abs() < 1e-12);
        assert!(own[0] < s[0].seconds());
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let token = t.enter("x");
        assert_eq!(token, None);
        t.exit(token);
        assert_eq!(t.leaf("y", || 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn a_duration_only_child_ends_with_its_parent() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.push_span("request", 1, 0, 10), None);
        t.set_enabled(true);
        let request = t.push_span("request", 4, 1_000, 9_000).unwrap();
        t.push_duration_only("serve.audit", request, 5e-6);
        let child = &t.spans()[1];
        assert_eq!((child.parent, child.op), (Some(request), 4));
        assert_eq!((child.start_ns, child.end_ns), (4_000, 9_000));
        assert!((t.self_seconds()[request] - 3e-6).abs() < 1e-12);
        // A child cannot outlast its parent.
        t.push_duration_only("serve.audit", request, 1.0);
        assert_eq!(t.spans()[2].start_ns, 1_000);
    }
}
