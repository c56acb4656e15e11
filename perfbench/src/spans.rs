//! In-memory spans recorded around calls into the simulator's layers.
//!
//! One [`SpanRecorder`] per rank; spans are only appended while the
//! replay runs and written out once it has finished.

use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in its recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `sph.step`.
    pub name: &'static str,
    /// Rank that recorded it.
    pub rank: usize,
    /// Workload name.
    pub workload: &'static str,
    /// PM step, or `None` outside the step loop.
    pub step: Option<usize>,
    /// Start, seconds since the recorder's epoch.
    pub start_s: f64,
    /// End, seconds since the recorder's epoch.
    pub end_s: f64,
}

impl Span {
    /// Wall duration.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    rank: usize,
    workload: &'static str,
    step: Option<usize>,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// A recorder whose times count from `epoch`.
    pub fn new(epoch: Instant, rank: usize, workload: &'static str) -> Self {
        Self {
            epoch,
            rank,
            workload,
            step: None,
            open: Vec::new(),
            spans: Vec::with_capacity(1024),
        }
    }

    /// Tag the spans opened from now on with `step`.
    pub fn set_step(&mut self, step: Option<usize>) {
        self.step = step;
    }

    /// Open a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            rank: self.rank,
            workload: self.workload,
            step: self.step,
            start_s: now,
            end_s: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (must be the innermost open one); returns its
    /// duration.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let now = self.now();
        let span = &mut self.spans[id];
        span.end_s = now;
        span.duration()
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(
            self.open.is_empty(),
            "unclosed spans at the end of the trace"
        );
        self.spans
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// Self time of every span of one recorder: its duration minus the part
/// of its interval that its direct children cover. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_s, s.end_s));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_s;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                let hi = hi.min(s.end_s);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.duration() - covered).max(0.0)
        })
        .collect()
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, microseconds, one thread row per rank.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let step = s.step.map_or("null".to_string(), |k| k.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\
             \"workload\":\"{}\",\"step\":{}}}}}{}\n",
            s.name,
            s.layer(),
            s.rank,
            s.start_s * 1e6,
            s.duration() * 1e6,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.workload,
            step,
            if i + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}
