//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end (nanoseconds since the tracer's
//! origin), the span that was open on the same thread when it started
//! (its parent), and an optional work count (instructions, lanes × instructions,
//! bytes, …) so per-unit costs are measured where the work happens. Spans
//! stay in memory and are written out once, when the run ends. A disabled
//! tracer runs the closures and records nothing.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` with no work count.
    pub fn span<T>(&self, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
        self.span_work(name, || (f(), 0))
    }

    /// Runs `f` inside a span; `f` returns its result and the work it did.
    pub fn span_work<T>(
        &self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        if !self.enabled {
            return f().0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let (out, work) = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
            work,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Spans named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// Summed duration and work of spans named `name`.
    pub fn total(&self, name: &str) -> Totals {
        let spans = self.named(name);
        Totals {
            calls: spans.len() as u64,
            ns: spans.iter().map(Span::ns).sum(),
            work: spans.iter().map(|s| s.work).sum(),
        }
    }

    /// Writes every span as JSON lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"work\": {}}}",
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                s.work
            );
        }
        std::fs::write(path, out)
    }
}

/// Summed calls, time and work of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    pub ns: u64,
    pub work: u64,
}

impl Totals {
    /// Nanoseconds per unit of work (0 with no work).
    pub fn ns_per_work(&self) -> f64 {
        crate::stats::ratio(self.ns as f64, self.work as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let t = Tracer::new(true);
        let v = t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span_work("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                (7, 100)
            })
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(t.total("inner").work, 100);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
