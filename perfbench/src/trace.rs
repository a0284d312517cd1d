//! In-memory span recorder for the traced run.
//!
//! A span is a named interval around one call into a layer's public API,
//! with the span that caused it as its parent. Spans that belong to one
//! simulated cell carry that cell's index, so every span of a cell —
//! its pool slot, its stream drain, its store round trip — shares an
//! id. Spans stay in memory until the run ends and are then written out
//! in one piece ([`Tracer::to_json`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use netcache_core::sweep::SweepObserver;
use netcache_core::RunReport;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which call this span wraps, e.g. `store.load`.
    pub name: &'static str,
    /// Index of the cell the span belongs to, if any.
    pub cell: Option<usize>,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Small per-thread number (0 = the first thread that traced).
    pub thread: usize,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds (0 while still open).
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any number of threads.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (for children and [`close`]).
    ///
    /// [`close`]: Tracer::close
    pub fn open(&self, name: &'static str, cell: Option<usize>, parent: Option<usize>) -> usize {
        let span = Span {
            name,
            cell,
            parent,
            thread: THREAD.with(|t| *t),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        let mut spans = self.spans.lock().expect("no span writer panics");
        spans.push(span);
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        self.spans.lock().expect("no span writer panics")[id].end_ns = end;
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent further spans. Returns `f`'s result and the span's seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        cell: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> (T, f64) {
        let id = self.open(name, cell, parent);
        let out = f(id);
        self.close(id);
        (out, self.get(id).secs())
    }

    /// A copy of span `id`.
    pub fn get(&self, id: usize) -> Span {
        self.spans.lock().expect("no span writer panics")[id].clone()
    }

    /// A copy of every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span writer panics").clone()
    }

    /// Seconds of `parent`'s interval covered by its direct children
    /// (overlapping children, e.g. cells on two pool threads, are
    /// merged so no instant counts twice).
    pub fn covered_s(&self, parent: usize) -> f64 {
        let spans = self.spans.lock().expect("no span writer panics");
        let mut iv: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| (s.start_ns, s.end_ns.max(s.start_ns)))
            .collect();
        iv.sort_unstable();
        let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total as f64 * 1e-9
    }

    /// Every span as a JSON array of objects.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("no span writer panics");
        let opt = |x: Option<usize>| x.map_or("null".to_string(), |v| v.to_string());
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"cell\": {}, \"parent\": {}, \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    s.name,
                    opt(s.cell),
                    opt(s.parent),
                    s.thread,
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

/// A [`SweepObserver`] that opens a `sweep.cell` span per cell under
/// `parent` and keeps the cell wall times the pool reports.
pub struct CellSpans<'a> {
    tracer: &'a Tracer,
    parent: usize,
    open: Mutex<Vec<Option<usize>>>,
    walls: Mutex<Vec<f64>>,
}

impl<'a> CellSpans<'a> {
    /// Observer for a sweep of `cells` cells.
    pub fn new(tracer: &'a Tracer, parent: usize, cells: usize) -> Self {
        Self {
            tracer,
            parent,
            open: Mutex::new(vec![None; cells]),
            walls: Mutex::new(vec![0.0; cells]),
        }
    }

    /// Per-cell wall seconds as reported by `on_finish`, in grid order.
    pub fn walls(&self) -> Vec<f64> {
        self.walls.lock().expect("no observer panics").clone()
    }
}

impl SweepObserver for CellSpans<'_> {
    fn on_start(&self, idx: usize, _total: usize, _label: &str) {
        let id = self.tracer.open("sweep.cell", Some(idx), Some(self.parent));
        self.open.lock().expect("no observer panics")[idx] = Some(id);
    }

    fn on_finish(&self, idx: usize, _total: usize, _label: &str, wall: Duration, _r: &RunReport) {
        if let Some(id) = self.open.lock().expect("no observer panics")[idx].take() {
            self.tracer.close(id);
        }
        self.walls.lock().expect("no observer panics")[idx] = wall.as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlapping_children() {
        let t = Tracer::new();
        let root = t.open("root", None, None);
        {
            let mut s = t.spans.lock().unwrap();
            s[root].start_ns = 0;
            s[root].end_ns = 100;
        }
        for (a, b) in [(10, 40), (30, 50), (70, 80)] {
            let id = t.open("child", Some(0), Some(root));
            let mut s = t.spans.lock().unwrap();
            s[id].start_ns = a;
            s[id].end_ns = b;
        }
        // [10,50) ∪ [70,80) = 50 ns.
        assert!((t.covered_s(root) - 50e-9).abs() < 1e-15);
    }

    #[test]
    fn span_json_parses_with_the_core_reader() {
        let t = Tracer::new();
        let ((), _) = t.span("outer", None, None, |id| {
            t.span("inner", Some(3), Some(id), |_| ());
        });
        let doc = netcache_core::json::parse(&t.to_json()).expect("valid JSON");
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("name").and_then(|v| v.as_str()), Some("inner"));
        assert_eq!(arr[1].get("cell").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(arr[1].get("parent").and_then(|v| v.as_u64()), Some(0));
    }
}
