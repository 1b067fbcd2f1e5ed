//! In-memory spans recorded around the benchmark's calls into each
//! layer. A span has a name, start, end, parent and trial id; the set
//! is written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name such as `schedule.run`, or `bench.setup` / `bench.trial`
    /// for the spans that group a set-up or a trial.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The trial the span belongs to; `None` for set-up.
    pub trial: Option<u32>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Handle of an open span; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "an open span must be closed with Tracer::end"]
pub struct SpanId(Option<usize>);

/// Span recorder. While disabled, [`Tracer::begin`] and
/// [`Tracer::end`] read no clock and record nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trial: Option<u32>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trial: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already open stay open.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans opened from now on with `trial`.
    pub fn set_trial(&mut self, trial: Option<u32>) {
        self.trial = trial;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens span `name` as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
            trial: self.trial,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Summed duration of the spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.ms())
    }

    /// Summed duration of the spans with no parent, in ms: the traced
    /// wall time.
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .fold(0.0, |total, s| total + s.ms())
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let trial = s.trial.map_or("null".to_string(), |t| t.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"trial\": {trial}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = t.begin("a");
        t.end(s);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nesting_parents_trials_and_sums() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let root = t.begin("bench.setup");
        t.time("netgraph.build", || ());
        t.end(root);
        t.set_trial(Some(3));
        let trial = t.begin("bench.trial");
        t.time("schedule.run", || ());
        t.end(trial);
        let spans = &t.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].trial, Some(3));
        assert_eq!(spans[0].trial, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Children lie inside their parents, so the layer spans never
        // exceed the traced wall.
        let layers = t.total_ms("netgraph.build") + t.total_ms("schedule.run");
        assert!(layers <= t.root_ms());
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .nth(3)
            .unwrap()
            .contains("\"parent\": 2, \"trial\": 3"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let a = t.begin("a");
        let _b = t.begin("b");
        t.end(a);
    }
}
