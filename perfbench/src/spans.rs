//! In-memory spans recorded by the traced run around calls into each
//! layer: name, start, end and parent.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.add`.
    pub name: &'static str,
    /// Start offset in ns.
    pub start: u64,
    /// End offset in ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Whether the span belongs to a measured (non-build-up) step.
    pub measured: bool,
}

impl Span {
    /// Duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans; `enter`/`exit` must pair up like a stack.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Marks spans opened from now on as measured.
    pub measured: bool,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            measured: false,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            measured: self.measured,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let idx = self.open.pop().expect("exit pairs with enter");
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// All closed spans in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(count, total ns)` per span name, over measured spans only when
    /// `measured_only`.
    pub fn totals(&self, measured_only: bool) -> BTreeMap<&'static str, (usize, u64)> {
        let mut out: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for s in &self.spans {
            if measured_only && !s.measured {
                continue;
            }
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration();
        }
        out
    }

    /// Mean duration of the named spans in ms (0 when none ran).
    pub fn mean_ms(&self, name: &str, measured_only: bool) -> f64 {
        let (n, ns) = self
            .totals(measured_only)
            .get(name)
            .copied()
            .unwrap_or((0, 0));
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64 / 1e6
        }
    }

    /// Total duration of the named spans in ms.
    pub fn total_ms(&self, name: &str, measured_only: bool) -> f64 {
        self.totals(measured_only)
            .get(name)
            .map_or(0.0, |&(_, ns)| ns as f64 / 1e6)
    }

    /// The spans as JSON lines (`{"name":..,"start_ns":..,"end_ns":..,"parent":..}`).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"measured\":{}}}\n",
                s.name, s.start, s.end, s.measured
            ));
        }
        out
    }
}
