//! Hierarchical span tracing via RAII guards.
//!
//! A span measures one region of code. Guards nest per thread: while
//! a guard is alive, further spans opened **on the same thread**
//! become its children, and the parent's *exclusive* time excludes
//! everything attributed to children. Each thread has its own stack,
//! so spans opened on synthesis worker threads form their own roots —
//! cross-thread parenting is deliberately not inferred (a scoped
//! fan-out has no single meaningful parent timeline).
//!
//! Completed spans accumulate `(calls, inclusive ns, exclusive ns)`
//! under their `;`-joined root-to-leaf path in the owning registry;
//! [`crate::Registry::span_stats`] reads the table and
//! [`crate::collapsed_stacks`] renders it as flamegraph input.
//!
//! [`Registry::span_into`] opens the same guard and, at close, also
//! observes the span's inclusive seconds into a pre-registered
//! histogram, so one guard feeds both the span tree and a latency
//! histogram without a second clock read.
//!
//! Cost model: opening a span on a disabled registry is one branch
//! (plus one relaxed load on a gated one) — no clock is read. An
//! enabled span reads the clock twice and takes one short mutex at
//! drop to fold into the path table; use spans at step/phase
//! granularity, counters and histograms inside tight loops.

use crate::registry::{Histo, Registry, RegistryInner};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one active span; created by [`Registry::span`].
/// Closing (dropping) the guard records the span. Guards are not
/// `Send`: a span must end on the thread that opened it.
#[must_use = "a span measures the scope of its guard; bind it to a variable"]
pub struct SpanGuard {
    /// `Some` only when the span actually pushed a frame.
    registry: Option<Arc<RegistryInner>>,
    /// Histogram that also receives the inclusive seconds at close.
    into: Option<Histo>,
    _not_send: PhantomData<*const ()>,
}

impl Registry {
    /// Opens a span named `name` on the current thread. While the
    /// returned guard lives, nested spans on this thread become
    /// children. A disabled or gated-off registry returns an inert
    /// guard without reading the clock.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.open_span(name, None)
    }

    /// [`Registry::span`] that, when it closes, also observes its
    /// inclusive seconds into `histo` (a handle registered once
    /// beforehand). Gated off, it is the same inert guard as a plain
    /// span: one branch, no clock read, no observation.
    pub fn span_into(&self, name: &'static str, histo: &Histo) -> SpanGuard {
        self.open_span(name, Some(histo))
    }

    fn open_span(&self, name: &'static str, into: Option<&Histo>) -> SpanGuard {
        let Some(inner) = self.inner() else {
            return SpanGuard { registry: None, into: None, _not_send: PhantomData };
        };
        if !inner.enabled.load(Ordering::Relaxed) {
            return SpanGuard { registry: None, into: None, _not_send: PhantomData };
        }
        STACK.with(|stack| {
            stack.borrow_mut().push(Frame { name, start: Instant::now(), child_ns: 0 });
        });
        SpanGuard { registry: Some(inner.clone()), into: into.cloned(), _not_send: PhantomData }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(registry) = self.registry.take() else { return };
        let (path, incl_ns, excl_ns) = match STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop()?;
            let incl_ns = frame.start.elapsed().as_nanos() as u64;
            let excl_ns = incl_ns.saturating_sub(frame.child_ns);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns += incl_ns;
            }
            let mut path = String::new();
            for f in stack.iter() {
                path.push_str(f.name);
                path.push(';');
            }
            path.push_str(frame.name);
            Some((path, incl_ns, excl_ns))
        }) {
            Some(done) => done,
            None => return,
        };
        if let Some(histo) = &self.into {
            histo.observe(incl_ns as f64 / 1e9);
        }
        let mut spans = registry.spans.lock().expect("span table poisoned");
        let slot = spans.entry(path).or_insert((0, 0, 0));
        slot.0 += 1;
        slot.1 += incl_ns;
        slot.2 += excl_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stat<'a>(stats: &'a [crate::SpanStat], path: &str) -> &'a crate::SpanStat {
        stats.iter().find(|s| s.path == path).unwrap_or_else(|| panic!("no span {path}"))
    }

    #[test]
    fn nested_spans_accumulate_paths_and_exclusive_time() {
        let r = Registry::new();
        {
            let _root = r.span("root");
            std::thread::sleep(Duration::from_millis(4));
            {
                let _child = r.span("child");
                std::thread::sleep(Duration::from_millis(6));
            }
        }
        let stats = r.span_stats();
        let root = stat(&stats, "root");
        let child = stat(&stats, "root;child");
        assert_eq!(root.calls, 1);
        assert_eq!(child.calls, 1);
        assert!(root.incl_ns >= child.incl_ns);
        assert!(child.incl_ns >= 5_000_000, "{}", child.incl_ns);
        // Root's exclusive time excludes the child's inclusive time.
        assert_eq!(root.excl_ns, root.incl_ns - child.incl_ns);
    }

    #[test]
    fn sibling_threads_form_independent_roots() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            let _outer = r.span("outer");
            for _ in 0..2 {
                let r = r.clone();
                scope.spawn(move || {
                    let _w = r.span("worker");
                    std::thread::sleep(Duration::from_millis(1));
                });
            }
        });
        let stats = r.span_stats();
        let worker = stat(&stats, "worker");
        assert_eq!(worker.calls, 2, "worker spans are thread-local roots, not outer's children");
        assert!(stats.iter().all(|s| s.path != "outer;worker"));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let r = Registry::gated();
        {
            let _g = r.span("never");
        }
        assert!(r.span_stats().is_empty());
        let d = Registry::disabled();
        {
            let _g = d.span("never");
        }
        assert!(d.span_stats().is_empty());
    }

    #[test]
    fn span_into_feeds_the_span_table_and_the_histogram() {
        let r = Registry::new();
        let h = r.histogram("phase_seconds", "h");
        {
            let _root = r.span("root");
            let _phase = r.span_into("phase", &h);
            std::thread::sleep(Duration::from_millis(2));
        }
        let stats = r.span_stats();
        let phase = stat(&stats, "root;phase");
        assert_eq!((phase.calls, h.count()), (1, 1));
        assert_eq!(h.sum(), phase.incl_ns as f64 / 1e9, "one clock read feeds both records");

        let g = Registry::gated();
        let gh = g.histogram("phase_seconds", "h");
        {
            let _off = g.span_into("phase", &gh);
        }
        assert!(g.span_stats().is_empty());
        assert_eq!(gh.count(), 0);
    }

    #[test]
    fn span_stats_since_diffs_by_path() {
        let r = Registry::new();
        {
            let _a = r.span("a");
        }
        let base = r.span_stats();
        {
            let _a = r.span("a");
        }
        {
            let _b = r.span("b");
        }
        let delta = r.span_stats_since(&base);
        assert_eq!(delta.len(), 2);
        assert_eq!(stat(&delta, "a").calls, 1);
        assert_eq!(stat(&delta, "b").calls, 1);
    }

    #[test]
    fn enable_mid_span_does_not_corrupt_the_stack() {
        let r = Registry::gated();
        let inert = r.span("off"); // gated off: no frame pushed
        r.enable();
        {
            let _on = r.span("on");
        }
        drop(inert); // must not pop "on"'s sibling frames
        let stats = r.span_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].path, "on");
    }
}
