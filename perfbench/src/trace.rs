//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library's public functions; nothing inside the program is
//! instrumented. Each span keeps its name, start, end, parent and request
//! id; the whole set is written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request (or work item) the span belongs to; 0 when none.
    pub req: u64,
}

/// Records nested spans on one thread. A disabled tracer records nothing,
/// so the same code path runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals: span count and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub self_ns: u64,
}

/// The benchmark's one wall-clock read: every timing it reports starts
/// here, and no checked output depends on it.
pub fn now() -> Instant {
    Instant::now() // audit: allow(wall-clock) the benchmark's sanctioned clock; timings never feed results
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("end() without an open span");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| self_time(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += self_ns;
        }
        out
    }

    /// Summed self time of every span: the part of the traced wall time
    /// that the layer spans account for.
    pub fn accounted_ns(&self) -> u64 {
        self.self_ns().iter().sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        w.flush()
    }
}

/// Self time of a span over `[start, end)`: its duration minus the part of
/// that interval covered by its children. Children may overlap each other
/// or stick out of the parent; only the covered part inside counts.
pub fn self_time(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time(0, 100, &mut []), 100);
        assert_eq!(self_time(0, 100, &mut [(10, 20), (30, 50)]), 70);
        // Overlapping children cover [10, 40) once.
        assert_eq!(self_time(0, 100, &mut [(20, 40), (10, 30)]), 70);
        // A child nested in another adds nothing.
        assert_eq!(self_time(0, 100, &mut [(10, 60), (20, 30)]), 50);
        // Parts outside the parent are clipped.
        assert_eq!(self_time(10, 20, &mut [(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(0, 10, &mut [(0, 10)]), 0);
    }

    #[test]
    fn nested_spans_record_parents_and_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.begin("root", 7);
        t.span("child", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("child", 7, || ());
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.req == 7 && s.end_ns >= s.start_ns));
        // Self times partition the root's wall time exactly.
        let root = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(t.accounted_ns(), root);
        let totals = t.totals();
        assert_eq!(totals["child"].count, 2);
        assert!(totals["child"].self_ns >= 2_000_000);
        assert_eq!(totals["root"].self_ns + totals["child"].self_ns, root);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        t.begin("y", 0);
        t.end();
        assert!(t.spans().is_empty());
        assert_eq!(t.accounted_ns(), 0);
    }
}
