//! Outside-in spans: the benchmark times its own calls into the engine's
//! public functions. Spans stay in memory during the run and are written
//! as JSON lines afterwards.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the fed message this span worked for: spans of one
    /// request share it.
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans against one monotonic origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        let parent = self.open.len().checked_sub(2).map(|i| self.open[i]);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("end() without begin()");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Drop the innermost open span: the call it timed did no work. Only
    /// the newest span can be open with no children, so it is the last.
    pub fn cancel(&mut self) {
        let id = self.open.pop().expect("cancel() without begin()");
        assert_eq!(id + 1, self.spans.len(), "cancelled span has children");
        self.spans.pop();
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        self.begin(name, req);
        let out = f(self);
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span: its duration minus the part its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations (ns) of every span with this name, ascending.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    crate::stats::sorted(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect(),
    )
}

/// Total self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
}

/// One JSON object per line: `{name, start_ns, end_ns, parent, req}`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("maintenance", 0, 100, None),
            span("gc", 10, 40, Some(0)),
            span("checkpoint", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 40, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["maintenance"], 20);
        assert_eq!(by_name["checkpoint"], 40);
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut rec = Recorder::new();
        rec.span("outer", 7, |rec| {
            rec.span("a", 7, |_| ());
            rec.span("b", 7, |_| ());
        });
        rec.span("next", 8, |_| ());
        let s = rec.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["outer", "a", "b", "next"]
        );
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert_eq!((s[0].req, s[3].req), (7, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(
            own[0],
            s[0].duration_ns() - s[1].duration_ns() - s[2].duration_ns()
        );
    }

    #[test]
    fn cancelled_spans_leave_no_trace() {
        let mut rec = Recorder::new();
        rec.begin("drive", 1);
        rec.begin("step", 1);
        rec.end();
        rec.begin("step", 1);
        rec.cancel();
        rec.end();
        let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["drive", "step"]);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }
}
