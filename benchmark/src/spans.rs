//! The benchmark's own spans: recorded around calls into the program's
//! public functions, kept in memory, written as JSONL when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// Enclosing span on the same thread (0 = none).
    pub parent: u64,
    /// Operation the span belongs to (0 = not inside an operation).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// Open spans of this thread: (span id, op id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder; a disabled one records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; closing is dropping.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span of operation `op` on this thread.
    pub fn op(&self, op: u64, name: &'static str) -> Option<Guard<'_>> {
        self.open(name, Some(op))
    }

    /// Opens a span under this thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Option<Guard<'_>> {
        self.open(name, None)
    }

    fn open(&self, name: &'static str, op: Option<u64>) -> Option<Guard<'_>> {
        if !self.on.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let (parent, inherited) = STACK.with(|s| s.borrow().last().copied().unwrap_or((0, 0)));
        let op = op.unwrap_or(inherited);
        STACK.with(|s| s.borrow_mut().push((id, op)));
        Some(Guard {
            tracer: self,
            id,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        })
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Durations in ms of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.records()
            .iter()
            .filter(|r| r.name == name)
            .map(SpanRecord::ms)
            .collect()
    }

    /// Summed duration in ms of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in self.records() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ms\":{:.6},\"end_ms\":{:.6}}}",
                r.id,
                r.parent,
                r.op,
                r.name,
                r.start_ns as f64 / 1e6,
                r.end_ns as f64 / 1e6
            )?;
        }
        out.flush()
    }

    /// One line per span path (`root/child/...`): count, total, self
    /// time (duration minus the union of its children's intervals) and
    /// the median duration.
    pub fn summary(&self) -> Vec<String> {
        let records = self.records();
        let by_id: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
        let path = |r: &SpanRecord| {
            let mut names = vec![r.name];
            let mut parent = r.parent;
            while let Some(p) = by_id.get(&parent) {
                names.push(p.name);
                parent = p.parent;
            }
            names.reverse();
            names.join("/")
        };
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for r in &records {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_ns, r.end_ns));
        }
        let mut rows: BTreeMap<String, (Vec<f64>, f64)> = BTreeMap::new();
        for r in &records {
            let covered = children
                .get(&r.id)
                .map_or(0, |c| covered_ns(c, r.start_ns, r.end_ns));
            let row = rows.entry(path(r)).or_default();
            row.0.push(r.ms());
            row.1 += (r.end_ns - r.start_ns - covered) as f64 / 1e6;
        }
        rows.into_iter()
            .map(|(path, (durations, self_ms))| {
                format!(
                    "span {path}: count={} total_ms={:.3} self_ms={:.3} p50_ms={:.3}",
                    durations.len(),
                    durations.iter().sum::<f64>(),
                    self_ms,
                    crate::stats::median(&durations).unwrap_or(0.0)
                )
            })
            .collect()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == self.id) {
                s.remove(pos);
            }
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_the_op_and_self_time_excludes_children() {
        let tracer = Tracer::new(true);
        {
            let _op = tracer.op(7, "op");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _child = tracer.span("child");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let records = tracer.records();
        let op = records.iter().find(|r| r.name == "op").unwrap();
        let child = records.iter().find(|r| r.name == "child").unwrap();
        assert_eq!((child.parent, child.op, op.op), (op.id, 7, 7));
        let summary = tracer.summary();
        assert!(summary[0].starts_with("span op: count=1"), "{summary:?}");
        assert!(
            summary[1].starts_with("span op/child: count=1"),
            "{summary:?}"
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert!(tracer.op(1, "op").is_none());
        assert!(tracer.records().is_empty());
    }

    #[test]
    fn covered_time_is_the_union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }
}
