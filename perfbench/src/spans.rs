//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer, held in memory, and written out once the run ends.
//! A disabled tracer reads no clock at all, so the untraced pass of the
//! same probe measures what the spans themselves cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: a named interval, its parent, and the iteration
/// (repetition) it belongs to.
struct Span {
    name: &'static str,
    iteration: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; `NONE` when the tracer is disabled.
#[must_use = "a span must be closed with Tracer::exit"]
pub struct Open(usize);

const NONE: usize = usize::MAX;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    iteration: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            iteration: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Spans entered from now on share iteration id `iteration`.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(NONE);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            iteration: self.iteration,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn exit(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans close in LIFO order");
        self.spans[open.0].end_ns = end;
    }

    /// Exclusive (self) nanoseconds per span name within `iteration`:
    /// each span's duration minus the part its child spans cover.
    pub fn self_ns(&self, iteration: u32) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.iteration == iteration {
                *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns) - child_ns[i];
            }
        }
        out
    }

    /// The spans as a JSON document: one object per span with its id,
    /// name, iteration, parent id, and start/end in ns since the tracer
    /// was created.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\": \"perfbench-spans/1\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"iteration\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.iteration, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}
