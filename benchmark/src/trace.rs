//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions. Spans live in a buffer allocated before the clock
//! starts and are written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the buffer's name table.
    pub name: u16,
    /// The span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one tick share its number.
    pub trace: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A replay span re-runs a stage on the same inputs right *after* its
    /// parent finished, because the stage is private to the parent call; it
    /// is caused by the parent but does not lie inside its interval.
    pub replay: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a span buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub busy_ns: u64,
    /// Busy time no direct child accounts for.
    pub self_ns: u64,
    /// Summed durations of the direct children (not clipped to the parent,
    /// so replays that ran longer than the original show as a share > 1).
    pub children_ns: u64,
}

impl NameTotals {
    /// Mean busy microseconds per call (zero when never called).
    pub fn busy_us_per_call(&self) -> f64 {
        per_call_us(self.busy_ns, self.calls)
    }

    /// Mean self microseconds per call.
    pub fn self_us_per_call(&self) -> f64 {
        per_call_us(self.self_ns, self.calls)
    }
}

fn per_call_us(ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64 / 1e3
    }
}

/// [`NameTotals`] by span name.
#[derive(Debug, Clone, Default)]
pub struct Totals(BTreeMap<String, NameTotals>);

impl Totals {
    /// Totals for one name (zeros when it never ran).
    pub fn of(&self, name: &str) -> NameTotals {
        self.0.get(name).copied().unwrap_or_default()
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder with room for `capacity` spans; sized by the caller so
    /// recording never reallocates under the clock.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Interns a span name. Call before the clock starts.
    pub fn name(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: u16, parent: u32, trace: u32, replay: bool) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            trace,
            start_ns,
            end_ns: start_ns,
            replay,
        });
        id
    }

    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: u16,
        parent: u32,
        trace: u32,
        replay: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, trace, replay);
        let out = f();
        self.end(id);
        out
    }

    /// For every trace (tick), keeps whichever repeat ran it faster: this
    /// buffer's spans or the same spans in `other`, a repeat of the same
    /// pass (see [`crate::stats::fastest_of`]). A tick's spans are taken
    /// from one repeat as a whole, judged by the summed duration of its root
    /// spans, so parents and children always come from the same execution.
    pub fn keep_fastest_traces(&mut self, other: &Tracer) {
        assert_eq!(
            self.spans.len(),
            other.spans.len(),
            "repeats differ in span count"
        );
        let root_ns = |spans: &[Span]| -> u64 {
            spans
                .iter()
                .filter(|s| s.parent == NO_PARENT)
                .map(Span::duration_ns)
                .sum()
        };
        let mut start = 0;
        while start < self.spans.len() {
            let trace = self.spans[start].trace;
            let len = self.spans[start..]
                .iter()
                .take_while(|s| s.trace == trace)
                .count();
            let (mine, theirs) = (
                &mut self.spans[start..start + len],
                &other.spans[start..start + len],
            );
            assert!(
                mine.iter()
                    .zip(theirs)
                    .all(|(a, b)| (a.name, a.parent, a.trace) == (b.name, b.parent, b.trace)),
                "repeats differ in span structure"
            );
            if root_ns(theirs) < root_ns(mine) {
                mine.copy_from_slice(theirs);
            }
            start += len;
        }
    }

    /// Records a span with explicit times (fixtures and tests).
    #[cfg(test)]
    pub fn push_raw(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Self time of every span: its duration minus its direct children's
    /// durations — the part of the call no deeper span accounts for.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Calls, busy and self time per span name.
    pub fn totals(&self) -> Totals {
        let own = self.self_times_ns();
        let mut totals = vec![NameTotals::default(); self.names.len()];
        for (span, self_ns) in self.spans.iter().zip(own) {
            let t = &mut totals[span.name as usize];
            t.calls += 1;
            t.busy_ns += span.duration_ns();
            t.self_ns += self_ns;
            if span.parent != NO_PARENT {
                let parent = self.spans[span.parent as usize].name;
                totals[parent as usize].children_ns += span.duration_ns();
            }
        }
        Totals(self.names.iter().cloned().zip(totals).collect())
    }

    /// Serialises the buffer: a `names` table and one
    /// `[name, start_ns, end_ns, parent, trace, replay]` row per span
    /// (`parent` is a row index, −1 for a root).
    pub fn to_json(&self, workload: &str, pass: &str) -> String {
        let names: Vec<String> = self.names.iter().map(|n| format!("\"{n}\"")).collect();
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                };
                format!(
                    "[{}, {}, {}, {parent}, {}, {}]",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.trace,
                    u8::from(s.replay)
                )
            })
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"pass\": \"{pass}\", \"names\": [{}],\n\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"trace\", \"replay\"],\n\"spans\": [\n{}\n]}}",
            names.join(", "),
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: u16, parent: u32, start_ns: u64, end_ns: u64, replay: bool) -> Span {
        Span {
            name,
            parent,
            trace: 0,
            start_ns,
            end_ns,
            replay,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::with_capacity(8);
        let frame = t.name("frame");
        let rfbme = t.name("rfbme");
        let prefix = t.name("prefix");
        let conv = t.name("conv");
        // frame [0, 100] holds rfbme [5, 65] in place; prefix is replayed
        // after the frame ([100, 130]) and itself holds conv [102, 122].
        let f = t.push_raw(raw(frame, NO_PARENT, 0, 100, false));
        t.push_raw(raw(rfbme, f, 5, 65, false));
        let p = t.push_raw(raw(prefix, f, 100, 130, true));
        t.push_raw(raw(conv, p, 102, 122, false));
        assert_eq!(t.self_times_ns(), vec![10, 60, 10, 20]);
        let totals = t.totals();
        assert_eq!(
            totals.of("frame"),
            NameTotals {
                calls: 1,
                busy_ns: 100,
                self_ns: 10,
                children_ns: 90
            }
        );
        assert_eq!(totals.of("conv").busy_ns, 20);
        assert_eq!(totals.of("never").calls, 0);
        // Self times of a tree sum back to its root.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn keep_fastest_traces_takes_whole_ticks_from_one_repeat() {
        let build = |times: [(u64, u64); 4]| {
            let mut t = Tracer::with_capacity(4);
            let n = t.name("x");
            // Tick 0: a root and its child. Tick 1: the same.
            for (i, (start, end)) in times.into_iter().enumerate() {
                let parent = if i % 2 == 0 { NO_PARENT } else { i as u32 - 1 };
                t.push_raw(Span {
                    trace: i as u32 / 2,
                    ..raw(n, parent, start, end, false)
                });
            }
            t
        };
        let mut a = build([(0, 50), (10, 20), (100, 130), (101, 125)]);
        // Faster on tick 0 (root 40 < 50) although its child is slower;
        // slower on tick 1.
        let b = build([(0, 40), (5, 30), (200, 260), (201, 210)]);
        a.keep_fastest_traces(&b);
        let times: Vec<(u64, u64)> = a.spans().iter().map(|s| (s.start_ns, s.end_ns)).collect();
        assert_eq!(times, [(0, 40), (5, 30), (100, 130), (101, 125)]);
    }

    #[test]
    fn children_longer_than_the_parent_saturate() {
        let mut t = Tracer::with_capacity(2);
        let n = t.name("x");
        let f = t.push_raw(raw(n, NO_PARENT, 0, 10, false));
        t.push_raw(raw(n, f, 10, 30, true));
        assert_eq!(t.self_times_ns(), vec![0, 20]);
    }

    #[test]
    fn json_has_one_row_per_span() {
        let mut t = Tracer::with_capacity(2);
        let n = t.name("a.b");
        let id = t.span(n, NO_PARENT, 7, false, || 3);
        assert_eq!(id, 3);
        let json = t.to_json("steady", "serial");
        assert!(json.contains("\"names\": [\"a.b\"]"));
        assert!(json.contains(", -1, 7, 0]"));
    }
}
