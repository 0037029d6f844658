//! In-memory spans around the benchmark's calls into the program.
//!
//! A span records its name, start, end, the span that was open on the same
//! thread when it began (its parent) and the run it belongs to. Spans stay
//! in memory until the run ends and are then written out as JSONL. A
//! disabled tracer records nothing: `span` just calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    run_id: u64,
    epoch: Instant,
    next_id: Mutex<u64>,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Cheap to clone; clones share one span buffer.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// A recording tracer whose spans carry `run_id`.
    pub fn on(run_id: u64) -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                run_id,
                epoch: Instant::now(),
                next_id: Mutex::new(0),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.inner else {
            return f();
        };
        let id = {
            let mut next = inner.next_id.lock().expect("span id lock");
            *next += 1;
            *next
        };
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        inner.spans.lock().expect("span buffer lock").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|i| i.spans.lock().expect("span buffer lock").clone())
            .unwrap_or_default()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The spans as JSONL, one span per line, followed by one summary line
    /// per span name with its count, total and self time.
    pub fn to_jsonl(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let spans = self.spans();
        let mut out = String::new();
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                inner.run_id, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, (count, total, own)) in self_times(&spans) {
            let _ = writeln!(
                out,
                "{{\"run\":{},\"layer\":\"{}\",\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                inner.run_id,
                name,
                count,
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }
}

/// Per span name: `(count, total ns, self ns)`, where a span's self time
/// is its duration minus the part of it that its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut covered: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            covered.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut children = covered.remove(&s.id).unwrap_or_default();
        children.sort_unstable();
        // Union of the child intervals, clipped to the parent.
        let (mut union, mut reach) = (0u64, s.start_ns);
        for (a, b) in children {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                union += b - a;
                reach = b;
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns() - union;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(2, Some(1), "child", 10, 30),
            span(3, Some(1), "child", 25, 50),
            span(1, None, "parent", 0, 100),
        ];
        let t = self_times(&spans);
        assert_eq!(t["parent"], (1, 100, 60));
        assert_eq!(t["child"], (2, 45, 45));
    }

    #[test]
    fn nested_spans_link_parents() {
        let tracer = Tracer::on(7);
        tracer.span("outer", || tracer.span("inner", || ()));
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(Tracer::off().spans().is_empty());
    }
}
