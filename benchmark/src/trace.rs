//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer, kept in memory, and written out as Chrome trace-event JSON
//! when the run ends. Nothing in `crates/` is instrumented: a span
//! inside a layer exists only where that layer already reports a
//! duration through a public surface (`Compiler::take_telemetry`,
//! `splsearch --trace-json`), and is then attached as a child of the
//! span that wraps the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// One id per formula (its size) or per request (its sequence
    /// number), shared by every span of that formula or request.
    pub id: u64,
}

/// Records spans on one thread. With `on == false` every call is a
/// single branch, so the untraced run executes the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let index = self.open.pop().expect("end without begin");
        self.spans[index as usize].end_ns = now;
    }

    /// Closes the open span and opens its sibling at the same instant:
    /// consecutive stages of one request share a single clock read.
    pub fn next(&mut self, name: &'static str, id: u64) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let index = self.open.pop().expect("next without begin");
        self.spans[index as usize].end_ns = now;
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
    }

    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// Attaches children to the span that closed last, from durations
    /// that layer reported itself. Only the durations are known, so the
    /// children are laid end to end from the parent's start, in the
    /// order given (the order the phases ran in); a child with its own
    /// parts lists them after it with `nested == true`.
    pub fn attach_reported(&mut self, parts: &[(&'static str, u64, bool)]) {
        if !self.on {
            return;
        }
        let parent = self.spans.len() as u32 - 1;
        let id = self.spans[parent as usize].id;
        let mut cursor = self.spans[parent as usize].start_ns;
        let mut inner_parent = parent;
        let mut inner_cursor = cursor;
        for &(name, dur_ns, nested) in parts {
            if nested {
                self.spans.push(Span {
                    name,
                    start_ns: inner_cursor,
                    end_ns: inner_cursor + dur_ns,
                    parent: Some(inner_parent),
                    id,
                });
                inner_cursor += dur_ns;
            } else {
                inner_parent = self.spans.len() as u32;
                inner_cursor = cursor;
                self.spans.push(Span {
                    name,
                    start_ns: cursor,
                    end_ns: cursor + dur_ns,
                    parent: Some(parent),
                    id,
                });
                cursor += dur_ns;
            }
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

pub struct SelfTime {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    /// Span time not covered by child spans.
    pub self_ns: u64,
}

/// Per span name: calls, total time, and self time (the span minus the
/// part of it its direct children cover).
pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let row = by_name.entry(s.name).or_insert(SelfTime {
            name: s.name,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += 1;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(covered);
    }
    let mut rows: Vec<SelfTime> = by_name.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
    rows
}

pub fn render_self_times(title: &str, spans: &[Span]) -> String {
    let rows = self_times(spans);
    let all: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = String::new();
    let _ = writeln!(out, "self time by span, {title} ({} spans)", spans.len());
    let _ = writeln!(
        out,
        "  {:<34} {:>9} {:>13} {:>13} {:>7}",
        "span", "calls", "total ms", "self ms", "self %"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<34} {:>9} {:>13.3} {:>13.3} {:>6.1}%",
            r.name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            100.0 * r.self_ns as f64 / all.max(1) as f64
        );
    }
    out
}

/// Chrome trace-event JSON (loads in `chrome://tracing` and Perfetto):
/// one complete ("X") event per span, one process per workload.
pub fn chrome_trace(workloads: &[(String, &[Span])]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (pid, (workload, spans)) in workloads.iter().enumerate() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{workload}\"}}}}"
        );
        for (index, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"span\":{index},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("outer", 0, 100, None),
            span("inner", 10, 40, Some(0)),
            span("inner", 50, 70, Some(0)),
            span("leaf", 15, 20, Some(1)),
        ];
        let rows = self_times(&spans);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(get("outer").self_ns, 50);
        assert_eq!(get("inner").self_ns, 45);
        assert_eq!(get("inner").calls, 2);
        assert_eq!(get("leaf").self_ns, 5);
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("a", 1, || ());
        t.begin("b", 2);
        t.next("c", 2);
        t.end();
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn reported_children_nest_under_the_last_span() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("compile", 64, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.attach_reported(&[
            ("parse", 10, false),
            ("optimize", 100, false),
            ("cse", 60, true),
        ]);
        let s = &t.into_spans()[..];
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[3].start_ns, s[2].start_ns);
        assert!(chrome_trace(&[("w".into(), s)]).contains("\"name\":\"cse\""));
    }
}
