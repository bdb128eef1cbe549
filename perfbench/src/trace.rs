//! In-memory span recorder for traced runs.
//!
//! The benchmark records spans around its own calls into each layer; it
//! puts no hooks into the program. Spans stay in memory and are written
//! out once, when the run ends. Untraced runs never construct a `Trace`.

use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

pub struct Trace {
    t0: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Record a span measured elsewhere (e.g. one request's write→reply).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// Per op, the summed duration of its spans called `name`, ms, in op
    /// order.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op = std::collections::BTreeMap::<u64, u64>::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
        by_op.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
