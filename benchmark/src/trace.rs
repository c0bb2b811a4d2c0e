//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a library layer in a
//! span (name, start, end, parent, run id). Spans stay in memory and are
//! written out once at exit; a layer's self time is its span's duration
//! minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span and counter sink. Parents are passed explicitly, so
/// spans opened on pool workers attach to the span that fanned out.
pub struct Tracer {
    origin: Instant,
    run: u32,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<(u32, &'static str, f64)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            run: 0,
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Tags every span and count recorded from now on with `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// it can parent further spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span lock poisoned");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                run: self.run,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span lock poisoned")[id].end_ns = end;
        out
    }

    /// Adds `value` to the counter `name` of the current run.
    pub fn count(&self, name: &'static str, value: f64) {
        self.counts
            .lock()
            .expect("count lock poisoned")
            .push((self.run, name, value));
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }

    /// Counter totals of `run`.
    pub fn counts(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for &(r, name, v) in self.counts.lock().expect("count lock poisoned").iter() {
            if r == run {
                *out.entry(name).or_insert(0.0) += v;
            }
        }
        out
    }
}

/// Self time of every span, in seconds: its duration minus the union of
/// its children's intervals (children may overlap when they ran on
/// different pool workers).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
        })
        .collect()
}

/// Checks that every span is closed, that parents were opened before
/// their children within the same run, and that every child lies inside
/// its parent's interval.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let Some(parent) = spans.get(p).filter(|_| p < i) else {
                return Err(format!("span {i} ({}) has dangling parent {p}", s.name));
            };
            if parent.run != s.run {
                return Err(format!("span {i} ({}) crosses runs", s.name));
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) escapes its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Per-name self-time totals (seconds) and span durations of one run.
pub struct RunProfile {
    pub self_s: BTreeMap<&'static str, f64>,
    pub durations: BTreeMap<&'static str, Vec<f64>>,
}

pub fn profile(spans: &[Span], run: u32) -> RunProfile {
    let selfs = self_times(spans);
    let mut self_s = BTreeMap::new();
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        if s.run == run {
            *self_s.entry(s.name).or_insert(0.0) += own;
            durations.entry(s.name).or_default().push(s.duration_s());
        }
    }
    RunProfile { self_s, durations }
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_s\": {own}}}{sep}",
            s.name, s.run, s.start_ns, s.end_ns
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 70] and [80, 90]: 70 of 100 ns.
        assert!((selfs[0] - 30e-9).abs() < 1e-15);
        assert!((selfs[1] - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn escaping_children_are_rejected() {
        let ok = vec![span("root", 0, 100, None), span("a", 0, 100, Some(0))];
        assert!(check_well_formed(&ok).is_ok());
        let escaping = vec![span("root", 0, 100, None), span("a", 50, 150, Some(0))];
        assert!(check_well_formed(&escaping).is_err());
        let dangling = vec![span("a", 0, 1, Some(3))];
        assert!(check_well_formed(&dangling).is_err());
    }

    #[test]
    fn recorded_spans_nest() {
        let tr = Tracer::default();
        tr.span("outer", None, |id| {
            tr.span("inner", Some(id), |_| std::hint::black_box(1 + 1));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        check_well_formed(&spans).unwrap();
        assert!(self_times(&spans).iter().all(|&s| s >= 0.0));
    }
}
