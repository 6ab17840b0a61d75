#![warn(missing_docs)]

//! Dependency-free observability substrate for the SPL toolchain.
//!
//! The paper's entire evaluation is about *where time goes*: per-phase
//! compile cost (Figure 2), search time versus run time (Section 4.2),
//! instruction counts before and after each optimization. This crate
//! provides the recording layer the rest of the workspace reports
//! through:
//!
//! * [`Span`] — a named wall-clock timing, accumulated per name;
//! * counters — named monotonic tallies (instructions removed, CSE hits,
//!   plans evaluated, …);
//! * metrics — named `f64` gauges (best cost per size, seconds per call);
//! * [`Telemetry`] — an ordered collection of all three plus free-form
//!   notes;
//! * [`RunReport`] — one tool invocation's telemetry, sectioned (per
//!   compiled unit, per search size, …), serializable to JSON via the
//!   std-only [`json`] module.
//!
//! Everything is plain data: no globals, no threads, no I/O except the
//! explicit [`RunReport::write_to_file`].
//!
//! # Examples
//!
//! ```
//! use spl_telemetry::{RunReport, Telemetry};
//!
//! let mut tel = Telemetry::new();
//! let answer = tel.time("optimize", || 6 * 7);
//! assert_eq!(answer, 42);
//! tel.add("optimize.cse_hits", 3);
//! tel.set_metric("best_cost", 1.5e-6);
//!
//! let mut report = RunReport::new("example");
//! report.push_section("unit:fft4", tel);
//! let text = report.to_json_string();
//! assert!(text.contains("optimize.cse_hits"));
//! ```

pub mod cli;
pub mod json;

use std::time::{Duration, Instant};

use json::Json;

/// One named wall-clock span, accumulated over possibly many calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Phase name (e.g. `"optimize"`).
    pub name: String,
    /// Total wall time across all calls, in nanoseconds.
    pub wall_ns: u128,
    /// How many timed calls were accumulated.
    pub calls: u64,
}

/// A named monotonic counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// Counter name (e.g. `"optimize.dce_removed"`).
    pub name: String,
    /// Current value.
    pub value: u64,
}

/// One interval in the hierarchical trace, relative to the collector's
/// epoch (the instant its first [`begin_span`](Telemetry::begin_span)
/// ran).
///
/// Unlike [`Span`]s — which accumulate by name — trace events keep every
/// individual begin/end pair together with its position in the span
/// stack, so a run renders as a flame chart rather than a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (e.g. `"compile"`, `"measure:2^8"`).
    pub name: String,
    /// Start offset from the collector epoch, in nanoseconds.
    pub start_ns: u128,
    /// Duration in nanoseconds (`0` while the span is still open).
    pub dur_ns: u128,
    /// Nesting depth at begin time (0 = top level).
    pub depth: u32,
    /// Index of the enclosing event in the trace, if any.
    pub parent: Option<u32>,
}

/// The recording surface: ordered spans, counters, metrics, and notes.
///
/// Names are deduplicated on insert — recording under an existing name
/// accumulates (spans, counters) or overwrites (metrics, notes) — and
/// first-insertion order is preserved so reports read in pipeline order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    spans: Vec<Span>,
    counters: Vec<Counter>,
    metrics: Vec<(String, f64)>,
    notes: Vec<(String, String)>,
    /// Hierarchical trace: set on the first `begin_span`.
    epoch: Option<Instant>,
    events: Vec<TraceEvent>,
    /// Indices into `events` of the currently open spans.
    stack: Vec<u32>,
}

impl Telemetry {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` under `name`, accumulating into the span of that name.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record_span(name, start.elapsed());
        r
    }

    /// Opens a hierarchical span: subsequent spans nest under it until
    /// the matching [`end_span`](Telemetry::end_span).
    ///
    /// The first `begin_span` fixes the collector's epoch; all trace
    /// events are recorded relative to it.
    pub fn begin_span(&mut self, name: &str) {
        let epoch = *self.epoch.get_or_insert_with(Instant::now);
        let parent = self.stack.last().copied();
        let idx = self.events.len() as u32;
        self.events.push(TraceEvent {
            name: name.to_string(),
            start_ns: epoch.elapsed().as_nanos(),
            dur_ns: 0,
            depth: self.stack.len() as u32,
            parent,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span, finalizing its duration and
    /// accumulating it into the flat [`Span`] of the same name.
    ///
    /// A call with no span open is a no-op (unbalanced stacks degrade
    /// gracefully rather than panic).
    pub fn end_span(&mut self) {
        let (Some(idx), Some(epoch)) = (self.stack.pop(), self.epoch) else {
            return;
        };
        let now_ns = epoch.elapsed().as_nanos();
        let ev = &mut self.events[idx as usize];
        ev.dur_ns = now_ns.saturating_sub(ev.start_ns);
        let (name, dur_ns) = (ev.name.clone(), ev.dur_ns);
        self.record_span(
            &name,
            Duration::from_nanos(dur_ns.min(u64::MAX as u128) as u64),
        );
    }

    /// Times `f` as a hierarchical span under `name`: like
    /// [`time`](Telemetry::time), but the interval also lands on the
    /// trace with the current span stack as its ancestry.
    pub fn time_nested<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        self.begin_span(name);
        let r = f();
        self.end_span();
        r
    }

    /// All hierarchical trace events, in begin order.
    pub fn trace_events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Records an externally measured duration under `name`.
    pub fn record_span(&mut self, name: &str, elapsed: Duration) {
        match self.spans.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.wall_ns += elapsed.as_nanos();
                s.calls += 1;
            }
            None => self.spans.push(Span {
                name: name.to_string(),
                wall_ns: elapsed.as_nanos(),
                calls: 1,
            }),
        }
    }

    /// Adds `delta` to the counter `name` (creating it at zero).
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.counters.iter_mut().find(|c| c.name == name) {
            Some(c) => c.value += delta,
            None => self.counters.push(Counter {
                name: name.to_string(),
                value: delta,
            }),
        }
    }

    /// Sets the counter `name` to an absolute value.
    pub fn set(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|c| c.name == name) {
            Some(c) => c.value = value,
            None => self.counters.push(Counter {
                name: name.to_string(),
                value,
            }),
        }
    }

    /// Sets the gauge `name` (overwriting any previous value).
    pub fn set_metric(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Adds `delta` to the gauge `name` (creating it at zero).
    pub fn add_metric(&mut self, name: &str, delta: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += delta,
            None => self.metrics.push((name.to_string(), delta)),
        }
    }

    /// Attaches a free-form note (overwriting any previous value).
    pub fn note(&mut self, key: &str, value: &str) {
        match self.notes.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.to_string(),
            None => self.notes.push((key.to_string(), value.to_string())),
        }
    }

    /// The current value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Total nanoseconds recorded under a span name, if any.
    pub fn span_ns(&self, name: &str) -> Option<u128> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.wall_ns)
    }

    /// The current value of a gauge, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// All spans, in first-recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All counters, in first-recording order.
    pub fn counters(&self) -> &[Counter] {
        &self.counters
    }

    /// The counters whose name starts with `prefix`, in
    /// first-recording order — e.g. `counters_with_prefix("native.cache.")`
    /// to pull one subsystem's counters out of a merged run.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |c| c.name.starts_with(prefix))
            .map(|c| (c.name.as_str(), c.value))
    }

    /// All metrics, in first-recording order.
    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// All notes, in first-recording order.
    pub fn notes(&self) -> &[(String, String)] {
        &self.notes
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.metrics.is_empty()
            && self.notes.is_empty()
            && self.events.is_empty()
    }

    /// Folds another collector into this one: spans and counters
    /// accumulate; metrics and notes from `other` win on name clashes.
    pub fn merge(&mut self, other: &Telemetry) {
        for s in &other.spans {
            match self.spans.iter_mut().find(|mine| mine.name == s.name) {
                Some(mine) => {
                    mine.wall_ns += s.wall_ns;
                    mine.calls += s.calls;
                }
                None => self.spans.push(s.clone()),
            }
        }
        for c in &other.counters {
            self.add(&c.name, c.value);
        }
        for (n, v) in &other.metrics {
            self.set_metric(n, *v);
        }
        for (k, v) in &other.notes {
            self.note(k, v);
        }
        if !other.events.is_empty() {
            // Rebase the other trace onto this collector's epoch so both
            // land on one timeline. If the other epoch is earlier, shift
            // our own events forward instead (epochs only move back).
            let offset_ns = match (self.epoch, other.epoch) {
                (Some(mine), Some(theirs)) => {
                    let back = mine.saturating_duration_since(theirs).as_nanos();
                    if back > 0 {
                        for ev in &mut self.events {
                            ev.start_ns += back;
                        }
                        self.epoch = other.epoch;
                        0
                    } else {
                        theirs.saturating_duration_since(mine).as_nanos()
                    }
                }
                (None, theirs) => {
                    self.epoch = theirs;
                    0
                }
                (Some(_), None) => 0,
            };
            let base = self.events.len() as u32;
            self.events.extend(other.events.iter().map(|ev| TraceEvent {
                start_ns: ev.start_ns + offset_ns,
                parent: ev.parent.map(|p| p + base),
                ..ev.clone()
            }));
        }
    }

    /// The JSON rendering used inside [`RunReport`]s.
    pub fn to_json(&self) -> Json {
        let phases = Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.clone())),
                        ("wall_ns", Json::Num(s.wall_ns as f64)),
                        ("calls", Json::Num(s.calls as f64)),
                    ])
                })
                .collect(),
        );
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|c| (c.name.clone(), Json::Num(c.value as f64)))
                .collect(),
        );
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                .collect(),
        );
        let notes = Json::Obj(
            self.notes
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let mut body = vec![
            ("phases", phases),
            ("counters", counters),
            ("metrics", metrics),
            ("notes", notes),
        ];
        if !self.events.is_empty() {
            body.push((
                "events",
                Json::Arr(
                    self.events
                        .iter()
                        .map(|ev| {
                            Json::obj(vec![
                                ("name", Json::Str(ev.name.clone())),
                                ("start_ns", Json::Num(ev.start_ns as f64)),
                                ("dur_ns", Json::Num(ev.dur_ns as f64)),
                                ("depth", Json::Num(ev.depth as f64)),
                                (
                                    "parent",
                                    match ev.parent {
                                        Some(p) => Json::Num(p as f64),
                                        None => Json::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(body)
    }
}

/// A complete, self-describing record of one tool invocation.
///
/// Sections keep per-unit (or per-size) telemetry separate; the report
/// also exposes a [`merged`](RunReport::merged) view that folds every
/// section together — the view `splc --stats` prints and tests assert on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// The emitting tool (`"splc"`, `"fig2"`, …).
    pub tool: String,
    /// Free-form invocation metadata (options, input file, …).
    pub meta: Vec<(String, String)>,
    /// Named telemetry sections in recording order.
    pub sections: Vec<(String, Telemetry)>,
}

impl RunReport {
    /// An empty report for the named tool.
    pub fn new(tool: &str) -> Self {
        RunReport {
            tool: tool.to_string(),
            meta: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Attaches an invocation-metadata pair.
    pub fn meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Appends a named section.
    pub fn push_section(&mut self, name: &str, tel: Telemetry) {
        self.sections.push((name.to_string(), tel));
    }

    /// Every section folded into one [`Telemetry`].
    pub fn merged(&self) -> Telemetry {
        let mut all = Telemetry::new();
        for (_, tel) in &self.sections {
            all.merge(tel);
        }
        all
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        let meta = Json::Obj(
            self.meta
                .iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        );
        let sections = Json::Arr(
            self.sections
                .iter()
                .map(|(name, tel)| {
                    let mut obj = vec![("name".to_string(), Json::Str(name.clone()))];
                    if let Json::Obj(body) = tel.to_json() {
                        obj.extend(body);
                    }
                    Json::Obj(obj)
                })
                .collect(),
        );
        Json::obj(vec![
            ("tool", Json::Str(self.tool.clone())),
            ("schema_version", Json::Num(1.0)),
            ("meta", meta),
            ("merged", self.merged().to_json()),
            ("sections", sections),
        ])
    }

    /// The report as a Chrome trace-event JSON value, loadable in
    /// `chrome://tracing` or <https://ui.perfetto.dev>.
    ///
    /// Each section becomes one named track (`tid`). Sections that
    /// recorded hierarchical [`TraceEvent`]s render as a flame chart
    /// (Perfetto infers nesting from time containment); sections with
    /// only flat [`Span`]s get back-to-back synthetic intervals so every
    /// tool produces a useful trace.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events = Vec::new();
        for (tid0, (name, tel)) in self.sections.iter().enumerate() {
            let tid = tid0 as f64 + 1.0;
            events.push(Json::obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid)),
                ("args", Json::obj(vec![("name", Json::Str(name.clone()))])),
            ]));
            let complete = |ev_name: &str, ts_ns: u128, dur_ns: u128| {
                Json::obj(vec![
                    ("name", Json::Str(ev_name.to_string())),
                    ("cat", Json::Str(name.clone())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(ts_ns as f64 / 1e3)),
                    ("dur", Json::Num(dur_ns as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(tid)),
                ])
            };
            if tel.trace_events().is_empty() {
                // Synthetic timeline: flat spans laid end to end.
                let mut cursor = 0u128;
                for s in tel.spans() {
                    events.push(complete(&s.name, cursor, s.wall_ns));
                    cursor += s.wall_ns;
                }
            } else {
                for ev in tel.trace_events() {
                    events.push(complete(&ev.name, ev.start_ns, ev.dur_ns));
                }
            }
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
            (
                "otherData",
                Json::obj(vec![("tool", Json::Str(self.tool.clone()))]),
            ),
        ])
    }

    /// Writes the Chrome trace rendering to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = self.to_chrome_trace().to_string();
        s.push('\n');
        std::fs::write(path, s)
    }

    /// The report as pretty-printed JSON text (trailing newline included).
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string();
        s.push('\n');
        s
    }

    /// Writes the JSON rendering to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }
}

/// A guard-style stopwatch for ad-hoc timing without a closure.
///
/// ```
/// use spl_telemetry::{Stopwatch, Telemetry};
///
/// let mut tel = Telemetry::new();
/// let sw = Stopwatch::start();
/// // ... work ...
/// tel.record_span("work", sw.elapsed());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time since [`start`](Stopwatch::start).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_with_prefix_selects_one_subsystem() {
        let mut tel = Telemetry::new();
        tel.add("native.cache.disk_hits", 3);
        tel.add("search.plans_evaluated", 10);
        tel.add("native.cache.quarantined", 1);
        tel.add("native.cc_invocations", 4);
        let cache: Vec<_> = tel.counters_with_prefix("native.cache.").collect();
        assert_eq!(
            cache,
            vec![
                ("native.cache.disk_hits", 3),
                ("native.cache.quarantined", 1)
            ]
        );
        assert_eq!(tel.counters_with_prefix("nope.").count(), 0);
    }

    #[test]
    fn spans_accumulate_by_name() {
        let mut tel = Telemetry::new();
        tel.record_span("parse", Duration::from_nanos(100));
        tel.record_span("parse", Duration::from_nanos(50));
        tel.record_span("optimize", Duration::from_nanos(7));
        assert_eq!(tel.span_ns("parse"), Some(150));
        assert_eq!(tel.spans().len(), 2);
        assert_eq!(tel.spans()[0].calls, 2);
    }

    #[test]
    fn counters_and_metrics() {
        let mut tel = Telemetry::new();
        tel.add("hits", 2);
        tel.add("hits", 3);
        tel.set("abs", 10);
        tel.set("abs", 4);
        tel.set_metric("cost", 1.5);
        tel.add_metric("total", 0.25);
        tel.add_metric("total", 0.25);
        assert_eq!(tel.counter("hits"), Some(5));
        assert_eq!(tel.counter("abs"), Some(4));
        assert_eq!(tel.counter("missing"), None);
        assert_eq!(tel.metric("cost"), Some(1.5));
        assert_eq!(tel.metric("total"), Some(0.5));
    }

    #[test]
    fn time_returns_closure_value() {
        let mut tel = Telemetry::new();
        let v = tel.time("phase", || 99);
        assert_eq!(v, 99);
        assert!(tel.span_ns("phase").is_some());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Telemetry::new();
        a.add("n", 1);
        a.record_span("s", Duration::from_nanos(10));
        let mut b = Telemetry::new();
        b.add("n", 2);
        b.add("m", 5);
        b.record_span("s", Duration::from_nanos(20));
        b.note("k", "v");
        a.merge(&b);
        assert_eq!(a.counter("n"), Some(3));
        assert_eq!(a.counter("m"), Some(5));
        assert_eq!(a.span_ns("s"), Some(30));
        assert_eq!(a.notes(), &[("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn merge_covers_all_four_channels() {
        let mut a = Telemetry::new();
        a.record_span("shared", Duration::from_nanos(100));
        a.record_span("only_a", Duration::from_nanos(7));
        a.add("shared.count", 1);
        a.set_metric("shared.gauge", 1.0);
        a.set_metric("only_a.gauge", 9.0);
        a.note("shared.note", "old");
        a.note("only_a.note", "kept");

        let mut b = Telemetry::new();
        b.record_span("shared", Duration::from_nanos(50));
        b.record_span("only_b", Duration::from_nanos(3));
        b.add("shared.count", 4);
        b.add("only_b.count", 2);
        b.set_metric("shared.gauge", 2.5);
        b.note("shared.note", "new");
        b.note("only_b.note", "added");

        a.merge(&b);
        // Spans accumulate by name; new names append.
        assert_eq!(a.span_ns("shared"), Some(150));
        assert_eq!(a.span_ns("only_a"), Some(7));
        assert_eq!(a.span_ns("only_b"), Some(3));
        assert_eq!(
            a.spans().iter().find(|s| s.name == "shared").unwrap().calls,
            2
        );
        // Counters accumulate.
        assert_eq!(a.counter("shared.count"), Some(5));
        assert_eq!(a.counter("only_b.count"), Some(2));
        // Metrics: the other side wins on clashes, absent names survive.
        assert_eq!(a.metric("shared.gauge"), Some(2.5));
        assert_eq!(a.metric("only_a.gauge"), Some(9.0));
        // Notes: same overwrite semantics.
        let note = |t: &Telemetry, k: &str| {
            t.notes()
                .iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(note(&a, "shared.note").as_deref(), Some("new"));
        assert_eq!(note(&a, "only_a.note").as_deref(), Some("kept"));
        assert_eq!(note(&a, "only_b.note").as_deref(), Some("added"));
    }

    #[test]
    fn nested_spans_build_a_trace() {
        let mut tel = Telemetry::new();
        tel.begin_span("outer");
        let v = tel.time_nested("inner", || std::hint::black_box((0..100).sum::<u64>()));
        assert!(v > 0);
        tel.end_span();
        let evs = tel.trace_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "outer");
        assert_eq!(evs[0].depth, 0);
        assert_eq!(evs[0].parent, None);
        assert_eq!(evs[1].name, "inner");
        assert_eq!(evs[1].depth, 1);
        assert_eq!(evs[1].parent, Some(0));
        // The child interval lies inside the parent interval.
        assert!(evs[1].start_ns >= evs[0].start_ns);
        assert!(evs[1].start_ns + evs[1].dur_ns <= evs[0].start_ns + evs[0].dur_ns);
        // end_span feeds the flat accumulated view too.
        assert!(tel.span_ns("outer").is_some());
        assert!(tel.span_ns("inner").is_some());
        // Unbalanced end_span is a no-op, not a panic.
        tel.end_span();
        assert_eq!(tel.trace_events().len(), 2);
    }

    #[test]
    fn merge_rebases_trace_events() {
        let mut a = Telemetry::new();
        a.time_nested("first", || std::hint::black_box(1));
        let mut b = Telemetry::new();
        b.begin_span("outer");
        b.time_nested("inner", || std::hint::black_box(2));
        b.end_span();
        a.merge(&b);
        let evs = a.trace_events();
        assert_eq!(evs.len(), 3);
        // Parent links survived the append with the right offset.
        assert_eq!(evs[2].name, "inner");
        assert_eq!(evs[2].parent, Some(1));
        // b began after a's epoch, so its events land at or after it.
        assert!(evs[1].start_ns >= evs[0].start_ns);
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let mut tel = Telemetry::new();
        tel.begin_span("compile");
        tel.time_nested("optimize", || std::hint::black_box(3));
        tel.end_span();
        let mut flat = Telemetry::new();
        flat.record_span("measure", Duration::from_micros(5));
        flat.record_span("verify", Duration::from_micros(2));
        let mut report = RunReport::new("t");
        report.push_section("unit", tel);
        report.push_section("bench", flat);

        let parsed = json::parse(&report.to_chrome_trace().to_string()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 thread_name metadata + 2 hierarchical + 2 synthetic flat.
        assert_eq!(events.len(), 6);
        for ev in events {
            let ph = ev.get("ph").and_then(Json::as_str).unwrap();
            assert!(ph == "X" || ph == "M");
            assert!(ev.get("pid").and_then(Json::as_f64).is_some());
            assert!(ev.get("tid").and_then(Json::as_f64).is_some());
            if ph == "X" {
                assert!(ev.get("ts").and_then(Json::as_f64).is_some());
                assert!(ev.get("dur").and_then(Json::as_f64).is_some());
            }
        }
        // Flat spans were laid end to end on their own track.
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("bench"))
            .collect();
        assert_eq!(xs.len(), 2);
        assert_eq!(xs[0].get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(xs[1].get("ts").and_then(Json::as_f64), Some(5.0));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut tel = Telemetry::new();
        tel.record_span("parse", Duration::from_micros(3));
        tel.add("optimize.cse_hits", 7);
        tel.set_metric("cost", 2.5e-7);
        tel.note("formula", "(F 4)");
        let mut report = RunReport::new("splc");
        report.meta("opt_level", "O2");
        report.push_section("unit:fft4", tel);

        let parsed = json::parse(&report.to_json_string()).unwrap();
        assert_eq!(parsed.get("tool").and_then(Json::as_str), Some("splc"));
        let merged = parsed.get("merged").unwrap();
        assert_eq!(
            merged
                .get("counters")
                .and_then(|c| c.get("optimize.cse_hits"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        let sections = parsed.get("sections").unwrap().as_arr().unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(
            sections[0].get("name").and_then(Json::as_str),
            Some("unit:fft4")
        );
        let phases = sections[0].get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("name").and_then(Json::as_str), Some("parse"));
    }

    #[test]
    fn merged_view_folds_sections() {
        let mut report = RunReport::new("t");
        let mut a = Telemetry::new();
        a.add("x", 1);
        let mut b = Telemetry::new();
        b.add("x", 2);
        report.push_section("a", a);
        report.push_section("b", b);
        assert_eq!(report.merged().counter("x"), Some(3));
    }

    #[test]
    fn stopwatch_measures() {
        let sw = Stopwatch::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(sw.elapsed().as_nanos() > 0);
    }
}
