//! In-memory span recording around calls into the workspace's public
//! functions. Spans stay in memory while a run measures and are written
//! out (one JSON object per line) when it ends.

use std::time::Instant;

use domino_engine::json::Json;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.search.min_power_assignment`.
    pub name: String,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    /// Microseconds since the tracer's epoch.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The job or request this span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// A single-threaded span recorder. Threads that trace concurrently each
/// own one and [`Tracer::absorb`] them at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &str, id: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(index);
        index
    }

    /// Closes span `index` (the innermost open one) and returns its
    /// duration in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not the innermost open span.
    pub fn close(&mut self, index: usize) -> f64 {
        assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
        let end = self.now_us();
        let span = &mut self.spans[index];
        span.end_us = end;
        span.ms()
    }

    /// Runs `f` inside a span and returns its result and duration (ms).
    pub fn time<T>(&mut self, name: &str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let index = self.open(name, id);
        let out = f();
        let ms = self.close(index);
        (out, ms)
    }

    /// Records an already-measured interval as a span nested in the
    /// innermost open one (for intervals timed on another thread).
    pub fn record(&mut self, name: &str, id: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            start_us: at(start),
            end_us: at(end),
            parent: self.stack.last().copied(),
            id,
        });
    }

    /// Moves another recorder's closed spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let span = Json::obj(vec![
                ("name", Json::Str(s.name.clone())),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("id", Json::Num(s.id as f64)),
            ]);
            out.push_str(&span.serialize());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::new(Instant::now());
        let outer = tr.open("outer", 7);
        let (v, _) = tr.time("inner", 7, || 41 + 1);
        tr.close(outer);
        assert_eq!(v, 42);
        assert_eq!(tr.spans()[1].parent, Some(outer));
        assert_eq!(tr.spans()[0].parent, None);
        assert!(tr.spans().iter().all(|s| s.end_us >= s.start_us));
    }
}
