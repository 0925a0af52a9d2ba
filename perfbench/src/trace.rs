//! In-memory span recorder for the traced run.
//!
//! Coarse spans (a schedule, a request pass, a run key) are kept one by
//! one with their parent; calls made millions of times (an engine step,
//! an oracle observation) are folded into per-span *leaves* holding a
//! call count and total time, so memory stays bounded. A span's self time
//! is its duration minus its child spans and leaves. Everything stays in
//! memory until [`Tracer::write_jsonl`] runs at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::dur_ns;

/// The benchmark's own code: time no layer accounts for.
pub const BENCH: &str = "bench";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the span covers, e.g. `check.schedule`.
    pub name: String,
    /// The workspace crate it is charged to.
    pub layer: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Folded high-frequency child calls.
    pub leaves: Vec<Leaf>,
    /// Sum of direct child span durations.
    child_ns: u64,
}

/// Calls folded into one span: how many and how long in total.
#[derive(Clone, Copy, Debug)]
pub struct Leaf {
    /// Call name, e.g. `sim.step_agent`.
    pub name: &'static str,
    /// The crate the call is charged to.
    pub layer: &'static str,
    /// Calls made.
    pub count: u64,
    /// Total time inside them.
    pub total_ns: u64,
}

/// Records spans; see the module docs.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        dur_ns(self.origin.elapsed())
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>, layer: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            layer,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            leaves: Vec::new(),
            child_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without a matching enter");
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let dur = end - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += dur;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.enter(name, layer);
        let out = f(self);
        self.exit();
        out
    }

    /// Fold `count` calls taking `total_ns` into the innermost open span.
    pub fn leaf(&mut self, name: &'static str, layer: &'static str, count: u64, total_ns: u64) {
        let idx = *self.open.last().expect("leaf outside any span");
        let leaves = &mut self.spans[idx].leaves;
        match leaves.iter_mut().find(|l| l.name == name) {
            Some(l) => {
                l.count += count;
                l.total_ns += total_ns;
            }
            None => leaves.push(Leaf {
                name,
                layer,
                count,
                total_ns,
            }),
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus child spans and leaves.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let leaves: u64 = s.leaves.iter().map(|l| l.total_ns).sum();
        (s.end_ns - s.start_ns).saturating_sub(s.child_ns + leaves)
    }

    /// Self time per layer over every closed span and leaf.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.layer).or_insert(0) += self.self_ns(i);
            for l in &s.leaves {
                *out.entry(l.layer).or_insert(0) += l.total_ns;
            }
        }
        out
    }

    /// Calls and total time of leaf `name`, over every span.
    pub fn leaf_total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .flat_map(|s| s.leaves.iter())
            .filter(|l| l.name == name)
            .fold((0, 0), |(c, t), l| (c + l.count, t + l.total_ns))
    }

    /// Count and total duration of the spans called `name`.
    pub fn span_total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(c, t), s| (c + 1, t + (s.end_ns - s.start_ns)))
    }

    /// Write every span as one JSON line (with its self time and folded
    /// leaves) to `path`, creating parent directories.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"parent\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"leaves\":[",
                s.name,
                s.layer,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                self.self_ns(i),
            );
            for (j, l) in s.leaves.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"name\":\"{}\",\"layer\":\"{}\",\"count\":{},\"total_ns\":{}}}",
                    if j > 0 { "," } else { "" },
                    l.name,
                    l.layer,
                    l.count,
                    l.total_ns
                );
            }
            out.push_str("]}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_leaves() {
        let mut t = Tracer::new();
        t.enter("root", BENCH);
        t.enter("child", "sim");
        t.leaf("sim.step_agent", "sim", 3, 0);
        t.exit();
        t.leaf("check.choose", "check", 2, 0);
        t.exit();
        let root = &t.spans()[0];
        let child = &t.spans()[1];
        assert_eq!(child.parent, Some(0));
        assert_eq!(
            t.self_ns(0),
            (root.end_ns - root.start_ns) - (child.end_ns - child.start_ns)
        );
        assert_eq!(t.leaf_total("sim.step_agent"), (3, 0));
        let layers = t.layer_self_ns();
        let total: u64 = layers.values().sum();
        assert_eq!(total, root.end_ns - root.start_ns);
    }
}
