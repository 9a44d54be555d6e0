//! In-memory spans around the benchmark's calls into the library.
//!
//! A span records a name, start and end (nanoseconds since the run's
//! epoch), its parent span and a request id. Nothing is recorded while
//! tracing is off, so the untraced run pays one branch per call site.
//! Spans are written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `fpga.prune`.
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span served (0 outside request paths).
    pub request: u64,
}

/// Collects spans on one thread; see [`Tracer::adopt`] for merging the
/// spans of helper threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer recording when `on`, timing from `epoch`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's epoch and mode.
    pub fn child(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Moves another thread's spans into this tracer, re-indexing their
    /// parents; its top-level spans nest under this tracer's innermost
    /// open span.
    pub fn adopt(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Every recorded span, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times (ns) of every span named `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<u64> {
        let all = self_times(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes every span as CSV (`index,name,start_ns,end_ns,parent,
    /// request,self_ns`) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,start_ns,end_ns,parent,request,self_ns")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{i},{},{},{},{parent},{},{self_ns}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another (they
/// can run on other threads), so their coverage is the union of their
/// intervals, clipped to the parent's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,30) ⊃ a1 [12,20); root ⊃ b [40,90).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a1", 12, 20, Some(1)),
            span("b", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 12, 8, 50]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two parallel children overlap on [20,30); a third sticks out
        // past the parent's end.
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 30, Some(0)),
            span("y", 20, 40, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn spans_nest_and_adopt_helper_threads() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        tr.span("outer", 0, |tr| {
            tr.span("inner", 7, |_| ());
            let mut helper = tr.child();
            helper.span("helper", 9, |h| h.span("leaf", 9, |_| ()));
            tr.adopt(helper);
        });
        let names: Vec<_> = tr
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.request))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 0),
                ("inner", Some(0), 7),
                ("helper", Some(0), 9),
                ("leaf", Some(2), 9),
            ]
        );
        assert_eq!(tr.self_times_of("inner").len(), 1);

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("outer", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
