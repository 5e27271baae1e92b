//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span holds its name, start, end, parent, the operation (study) it
//! belongs to with that operation's seed, and the bytes allocated while
//! it was open. Spans stay in memory until the run ends and are then
//! written out as JSON lines. Untraced runs record the same few call
//! boundaries the untraced path crosses (a few microseconds per study);
//! what `--trace 1` adds is the split calls and the checks on them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Operation index within the run.
    pub op: usize,
    /// Seed of that operation.
    pub seed: u64,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    /// Bytes allocated, by any thread, while the span was open.
    pub alloc_bytes: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans and notes a run can hold before the recorder reallocates.
const RESERVED: usize = 1 << 14;

/// Span recorder for one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    seed: u64,
    /// Per-operation facts that are not spans (bytes produced, counts),
    /// with the name of the root span open when they were noted.
    notes: Vec<(usize, &'static str, &'static str, f64)>,
}

impl Tracer {
    pub fn new() -> Self {
        // Reserved up front so the recorder's own bookkeeping does not
        // allocate inside the spans it measures.
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(RESERVED),
            stack: Vec::with_capacity(64),
            op: 0,
            seed: 0,
            notes: Vec::with_capacity(RESERVED),
        }
    }

    /// Records a fact about the current operation (summed per name).
    pub fn note(&mut self, name: &'static str, value: f64) {
        let root = self.stack.first().map_or("", |&i| self.spans[i].name);
        self.notes.push((self.op, root, name, value));
    }

    /// The facts noted for operation `op` under root spans named
    /// `root`, summed per name.
    pub fn notes(&self, op: usize, root: &str) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for &(o, r, name, v) in &self.notes {
            if o == op && r == root {
                *out.entry(name).or_insert(0.0) += v;
            }
        }
        out
    }

    /// Tags the spans that follow with an operation and its seed. Spans
    /// a panicking operation left open are abandoned, so they parent
    /// nothing that follows.
    pub fn begin_op(&mut self, op: usize, seed: u64) {
        self.op = op;
        self.seed = seed;
        self.stack.clear();
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let a0 = alloc::bytes();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            seed: self.seed,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            alloc_bytes: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let s = &mut self.spans[idx];
        s.end = self.epoch.elapsed().as_secs_f64();
        s.alloc_bytes = alloc::bytes() - a0;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The outermost span above span `i` (itself when it has no parent).
    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Whether span `i` sits below a span named `name`.
    pub fn under(&self, mut i: usize, name: &str) -> bool {
        while let Some(p) = self.spans[i].parent {
            if self.spans[p].name == name {
                return true;
            }
            i = p;
        }
        false
    }

    /// The most recent span named `name`.
    pub fn last(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// The most recent root span of operation `op` named `name`.
    pub fn root(&self, op: usize, name: &str) -> Option<(usize, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| s.op == op && s.name == name && s.parent.is_none())
    }

    /// Per-name totals over the spans of operation `op` that sit under
    /// a root span named `root`: wall seconds, self seconds (minus
    /// direct children), bytes allocated and self bytes.
    pub fn layer_totals(&self, op: usize, root: &str) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_secs = vec![0.0; self.spans.len()];
        let mut child_bytes = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
                child_bytes[p] += s.alloc_bytes;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.op != op || self.spans[self.root_of(i)].name != root {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.secs += s.secs();
            t.self_secs += s.secs() - child_secs[i];
            t.bytes += s.alloc_bytes;
            t.self_bytes += s.alloc_bytes.saturating_sub(child_bytes[i]);
            t.count += 1;
        }
        out
    }

    /// Root span `root` of operation `op` with its `excluded` direct
    /// children taken out: wall seconds, bytes allocated, and the share
    /// of those seconds the remaining direct children (the named layer
    /// spans) cover.
    pub fn root_cost(&self, op: usize, root: &str, excluded: &[&str]) -> Option<RootCost> {
        let (idx, r) = self.root(op, root)?;
        let (mut covered, mut skipped, mut skipped_bytes) = (0.0, 0.0, 0u64);
        for s in self.spans.iter().filter(|s| s.parent == Some(idx)) {
            if excluded.contains(&s.name) {
                skipped += s.secs();
                skipped_bytes += s.alloc_bytes;
            } else {
                covered += s.secs();
            }
        }
        let secs = r.secs() - skipped;
        Some(RootCost {
            secs,
            bytes: r.alloc_bytes.saturating_sub(skipped_bytes),
            coverage: covered / secs,
        })
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // A span a panic left open has no end.
            let end = if s.end.is_finite() {
                format!("{:.6}", s.end)
            } else {
                "null".into()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"workload\":\"{workload}\",\
                 \"op\":{},\"seed\":{},\"start_s\":{:.6},\"end_s\":{end},\"alloc_bytes\":{}}}",
                s.name, s.op, s.seed, s.start, s.alloc_bytes
            );
        }
        out
    }
}

/// What one operation's root span cost.
#[derive(Debug, Clone, Copy)]
pub struct RootCost {
    pub secs: f64,
    pub bytes: u64,
    pub coverage: f64,
}

/// Aggregates of one span name within one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub secs: f64,
    pub self_secs: f64,
    pub bytes: u64,
    pub self_bytes: u64,
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children_and_coverage_excludes_split() {
        let mut t = Tracer::new();
        t.begin_op(0, 7);
        t.span("study", |t| {
            t.span("a", |t| {
                t.span("a.child", |_| sleep(Duration::from_millis(20)))
            });
            t.span("b", |_| sleep(Duration::from_millis(10)));
            t.span("split", |_| sleep(Duration::from_millis(30)));
        });
        t.span("setup", |t| t.span("a", |_| ()));
        let totals = t.layer_totals(0, "study");
        assert_eq!(totals["a"].count, 1, "spans under other roots are left out");
        assert!(totals["a"].secs >= totals["a.child"].secs);
        assert!(totals["a"].self_secs < 0.005, "a has no work of its own");
        let cost = t.root_cost(0, "study", &["split"]).expect("root span");
        assert!(
            (0.03..0.06).contains(&cost.secs),
            "split is taken out: {}",
            cost.secs
        );
        assert!(
            cost.coverage > 0.9 && cost.coverage <= 1.0,
            "coverage {}",
            cost.coverage
        );
        assert!(t.under(2, "study") && !t.under(2, "split"));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.to_jsonl("w").lines().count(), 7);
    }

    #[test]
    fn notes_sum_per_operation() {
        let mut t = Tracer::new();
        t.begin_op(0, 1);
        t.span("study", |t| {
            t.note("x", 1.5);
            t.span("inner", |t| t.note("x", 2.0));
        });
        t.span("plain", |t| t.note("x", 8.0));
        t.begin_op(1, 1);
        t.span("study", |t| t.note("x", 4.0));
        assert_eq!(t.notes(0, "study")["x"], 3.5);
        assert_eq!(t.notes(0, "plain")["x"], 8.0);
        assert_eq!(t.notes(1, "study")["x"], 4.0);
    }

    #[test]
    fn a_panicking_operation_leaves_no_open_parent() {
        let mut t = Tracer::new();
        t.begin_op(0, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("study", |_| panic!("boom"));
        }));
        assert!(r.is_err());
        t.begin_op(1, 1);
        t.span("study", |_| ());
        assert_eq!(t.spans()[1].parent, None);
        assert!(t
            .to_jsonl("w")
            .lines()
            .next()
            .is_some_and(|l| l.contains("\"end_s\":null")));
    }
}
