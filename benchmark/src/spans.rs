//! Span recording for the traced pass.
//!
//! A [`Tracer`] records one span around every call the benchmark makes
//! into a layer. Disabled, `enter`/`exit` are one branch each and never
//! read the clock, so untraced passes time only their own boundaries.
//! Spans stay in memory and are written as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: a named interval with the span that contains it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in recording order.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Layer name, e.g. `sim.advance`.
    pub name: String,
    /// Control cycle the span belongs to; 0 outside any cycle.
    pub cycle: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans, or nothing when disabled.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    cycle: u64,
    cycles: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            cycle: 0,
            cycles: 0,
        }
    }

    /// A tracer that records every span.
    pub fn enabled() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::disabled()
        }
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let Some(origin) = self.origin else {
            return;
        };
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            cycle: self.cycle,
            start_ns: Self::now_ns(origin),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let Some(origin) = self.origin else {
            return;
        };
        if let Some(id) = self.open.pop() {
            self.spans[id].end_ns = Self::now_ns(origin);
        }
    }

    /// Opens a `cycle` span with a fresh cycle id shared by every span
    /// opened until [`end_cycle`](Tracer::end_cycle).
    pub fn begin_cycle(&mut self) {
        if self.origin.is_none() {
            return;
        }
        self.cycles += 1;
        self.cycle = self.cycles;
        self.enter("cycle");
    }

    /// Closes the current `cycle` span.
    pub fn end_cycle(&mut self) {
        self.exit();
        self.cycle = 0;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval that its direct children cover. Children that
/// nest or overlap are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration_ns() - covered(kids, span.start_ns, span.end_ns))
        .collect()
}

/// One layer's share of a traced pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTime {
    /// Span name; `setup:*` and `family:*` spans are grouped by prefix.
    pub name: String,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

fn layer_of(name: &str) -> &str {
    name.split_once(':').map_or(name, |(prefix, _)| prefix)
}

/// Self time and span count per layer, in first-seen order.
pub fn layer_times(spans: &[Span]) -> Vec<LayerTime> {
    let mut layers: Vec<LayerTime> = Vec::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let name = layer_of(&span.name);
        match layers.iter_mut().find(|l| l.name == name) {
            Some(layer) => {
                layer.self_ns += self_ns;
                layer.count += 1;
            }
            None => layers.push(LayerTime {
                name: name.to_owned(),
                self_ns,
                count: 1,
            }),
        }
    }
    layers
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cycle\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.cycle, s.start_ns, s.end_ns
        );
    }
    out
}
