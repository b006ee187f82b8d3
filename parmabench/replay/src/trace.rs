//! In-memory span recorder for the replay.
//!
//! Every layer call the replay makes is wrapped in a [`Span`]: name,
//! start, end, parent span and run id, plus the grid size and a work
//! count where the call has one. Spans stay in memory until the replay
//! ends and are then written out as JSON lines. With timers off a span
//! reads no clock and records nothing, so the two modes differ only by
//! the cost of the timers themselves.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are microseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Grid size `n` the call worked on, 0 when not applicable.
    pub n: u32,
    /// Work count of the call (iterations, bytes, ...), 0 when not applicable.
    pub count: u64,
    pub ok: bool,
}

impl SpanRec {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

pub struct Tracer {
    on: bool,
    run_id: u64,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool, run_id: u64) -> Self {
        Tracer {
            on,
            run_id,
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span under `parent` (0 for a root).
    pub fn span(&self, name: &'static str, parent: u32) -> Span<'_> {
        if !self.on {
            return Span {
                tracer: self,
                rec: None,
                start: None,
            };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Span {
            tracer: self,
            rec: Some(SpanRec {
                id,
                parent,
                name,
                start_us: 0.0,
                end_us: 0.0,
                n: 0,
                count: 0,
                ok: true,
            }),
            start: Some(Instant::now()),
        }
    }

    /// The recorded spans, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self.spans.lock().expect("span store lock").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in self.spans() {
            let mut line = String::new();
            let mut obj = mea_obs::json::Object::begin(&mut line);
            obj.field_u64("run", self.run_id);
            obj.field_u64("id", u64::from(s.id));
            obj.field_u64("parent", u64::from(s.parent));
            obj.field_str("name", s.name);
            obj.field_f64("start_us", s.start_us);
            obj.field_f64("end_us", s.end_us);
            obj.field_u64("n", u64::from(s.n));
            obj.field_u64("count", s.count);
            obj.field_raw("ok", if s.ok { "true" } else { "false" });
            obj.end();
            text.push_str(&line);
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// An open span; it is recorded when dropped.
pub struct Span<'a> {
    tracer: &'a Tracer,
    rec: Option<SpanRec>,
    start: Option<Instant>,
}

impl Span<'_> {
    /// This span's id, for children (0 with timers off).
    pub fn id(&self) -> u32 {
        self.rec.as_ref().map_or(0, |r| r.id)
    }

    pub fn set_n(&mut self, n: usize) {
        if let Some(r) = &mut self.rec {
            r.n = n as u32;
        }
    }

    pub fn set_count(&mut self, count: u64) {
        if let Some(r) = &mut self.rec {
            r.count = count;
        }
    }

    pub fn set_ok(&mut self, ok: bool) {
        if let Some(r) = &mut self.rec {
            r.ok = ok;
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let (Some(mut rec), Some(start)) = (self.rec.take(), self.start) else {
            return;
        };
        let end = Instant::now();
        let epoch = self.tracer.epoch;
        rec.start_us = start.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        rec.end_us = end.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
