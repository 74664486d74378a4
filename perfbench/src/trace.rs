//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, a parent and a request id shared by
//! the spans of one op. Spans stay in memory (one [`Tracer`] per thread)
//! and are written out when the run ends. A span's *self time* is its
//! duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `engine.get_current`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the parent span in the same list, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one op.
    pub req: u64,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    /// Spans in the order they began.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        out
    }

    /// Durations (ns) of the spans named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        durations(&self.spans, name)
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Durations (ns) of the spans named `name`, in order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .collect()
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Total self time (ns) and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.0 += t;
        e.1 += 1;
    }
    by_name
}

/// Writes the spans as tab-separated lines:
/// `id parent req name start_ns end_ns self_ns` (`-` for no parent).
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\n");
    for (i, (s, t)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{t}",
            s.req, s.name, s.start, s.end
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Children cover [10, 50) and [90, 100): 50 ns of the parent's 100.
        assert_eq!(self_times(&spans), vec![50, 30, 20, 30]);
    }
}
