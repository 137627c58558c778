//! In-memory spans around calls into each layer, and their self times.
//!
//! A span records a name, start, end, the span that was open when it
//! began (its parent), and the request it belongs to. Spans nest by
//! construction — a child opens and closes inside its parent — so a span's
//! self time is its duration minus the durations of its direct children.
//! Nothing is written out until the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `http.parse`.
    pub name: &'static str,
    /// Start offset.
    pub start: u64,
    /// End offset (equal to `start` while the span is open).
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request the span belongs to.
    pub request: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when enabled; every call is a cheap no-op otherwise, so
/// the same pipeline runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), state: RefCell::new(State::default()) }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&self, request: u32) {
        if self.enabled {
            self.state.borrow_mut().request = request;
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let mut state = self.state.borrow_mut();
        let parent = state.open.last().copied().unwrap_or(ROOT);
        let index = state.spans.len() as u32;
        let request = state.request;
        let start = self.now();
        state.spans.push(Span { name, start, end: start, parent, request });
        state.open.push(index);
        Open(Some(index))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&self, open: Open) {
        self.exit_as(open, None);
    }

    /// Closes `open`, renaming it when the call's outcome decides the
    /// layer label (a cache lookup is a hit or a miss only afterwards).
    pub fn exit_as(&self, open: Open, rename: Option<&'static str>) {
        let Open(Some(index)) = open else { return };
        let end = self.now();
        let mut state = self.state.borrow_mut();
        assert_eq!(state.open.pop(), Some(index), "spans must close innermost first");
        let span = &mut state.spans[index as usize];
        span.end = end;
        if let Some(name) = rename {
            span.name = name;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    /// The recorded spans (consumes the tracer).
    pub fn into_spans(self) -> Vec<Span> {
        let state = self.state.into_inner();
        assert!(state.open.is_empty(), "every span must be closed");
        state.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children[span.parent as usize] += span.duration();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, covered)| span.duration().saturating_sub(covered))
        .collect()
}

/// Per-name totals of self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed duration (self + children), nanoseconds.
    pub total_ns: u64,
}

impl LayerTotal {
    /// Mean self time per call, microseconds.
    pub fn self_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / 1_000.0
        }
    }

    /// Mean duration per call, microseconds.
    pub fn total_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1_000.0
        }
    }
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let total = out.entry(span.name).or_default();
        total.calls += 1;
        total.self_ns += own;
        total.total_ns += span.duration();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100) ⊃ transact [10,70) ⊃ plan [20,60) ⊃ render [25,45)
        //         ⊃ encode [80,95)
        let spans = vec![
            span("request", 0, 100, ROOT),
            span("transact", 10, 70, 0),
            span("plan", 20, 60, 1),
            span("render", 25, 45, 2),
            span("encode", 80, 95, 0),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 15, 60 - 40, 40 - 20, 20, 15]);
        // Self times partition the root's duration exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let totals = by_name(&spans);
        assert_eq!(totals["plan"], LayerTotal { calls: 1, self_ns: 20, total_ns: 40 });
    }

    #[test]
    fn repeated_names_aggregate_and_average() {
        let spans = vec![
            span("request", 0, 50, ROOT),
            span("cache.hit", 0, 10, 0),
            span("cache.hit", 10, 30, 0),
            span("request", 50, 60, ROOT),
        ];
        let totals = by_name(&spans);
        assert_eq!(totals["cache.hit"].calls, 2);
        assert_eq!(totals["cache.hit"].self_us(), 0.015);
        assert_eq!(totals["request"].self_ns, 20 + 10);
    }

    #[test]
    fn tracer_nests_renames_and_disables() {
        let tracer = Tracer::new(true);
        tracer.set_request(7);
        let outer = tracer.enter("request");
        let inner = tracer.enter("cache.lookup");
        tracer.exit_as(inner, Some("cache.miss"));
        tracer.span("core.decide", || ());
        tracer.exit(outer);
        let spans = tracer.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.request)).collect();
        assert_eq!(names, vec![("request", ROOT, 7), ("cache.miss", 0, 7), ("core.decide", 0, 7)]);
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(spans[1].end <= spans[2].start && spans[2].end <= spans[0].end);

        let off = Tracer::new(false);
        let open = off.enter("request");
        off.exit(open);
        assert!(off.into_spans().is_empty());
    }
}
