//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions; nothing inside the program is instrumented. A disabled
//! recorder takes the same code path and records nothing, so a traced and
//! an untraced repetition make identical calls into the program.

use std::time::Instant;

/// One closed span. Ids are indices into the repetition's span list, so a
/// parent id always precedes its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span within its trace.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `sysmon.warm_up`.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Host nanoseconds between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans of one repetition when enabled.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("every exit closes an entered span");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The closed spans, in start order.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Self time per span: its duration minus the time its children cover.
/// Children run sequentially inside their parent on one thread, so the
/// covered time is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                name: "root",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 1,
                parent: Some(0),
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 2,
                parent: Some(0),
                name: "b",
                start_ns: 50,
                end_ns: 90,
            },
            Span {
                id: 3,
                parent: Some(2),
                name: "c",
                start_ns: 60,
                end_ns: 70,
            },
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn nested_spans_link_to_parents() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.span("inner", || ());
        t.exit();
        t.span("next", || ());
        let spans = t.finish();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("outer", None), ("inner", Some(0)), ("next", None)]
        );
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
