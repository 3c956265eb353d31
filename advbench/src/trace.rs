//! Harness-side spans for the traced run: recorded around the benchmark's
//! own calls into each layer (the library is not instrumented for it),
//! kept in memory and written out once the run ends.
//!
//! A span names its parent by name; spans of one request share its id,
//! which makes the parent unique. A span's self time is its duration minus
//! the part its children cover.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::{obj, Json};

struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    request: Option<u64>,
    start: Instant,
    end: Instant,
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Runs `f`, returning its result and wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn record(
        &self,
        name: &'static str,
        parent: Option<&'static str>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.lock().expect("span buffer poisoned").push(Span {
            name,
            parent,
            request,
            start,
            end,
        });
    }

    /// [`timed`], also recorded as a root span.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, None, request, start, end);
        (out, (end - start).as_secs_f64())
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let spans = self
            .spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .map(|s| {
                obj([
                    ("name", s.name.into()),
                    ("start_us", us(s.start).into()),
                    ("end_us", us(s.end).into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("request", s.request.map_or(Json::Null, Json::from)),
                ])
            })
            .collect();
        obj([("workload", workload.into()), ("spans", Json::Arr(spans))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_serialize_with_parent_and_request() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        tracer.record("request", None, Some(7), t0, t0);
        tracer.record(
            "client.encode",
            Some("request"),
            Some(7),
            t0,
            Instant::now(),
        );
        let (value, secs) = tracer.time("probe", None, || 41 + 1);
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        let json = tracer.to_json("serve_case");
        let spans = json.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").unwrap().as_str(), Some("request"));
        assert_eq!(spans[1].get("request").unwrap().as_f64(), Some(7.0));
        assert_eq!(spans[2].get("parent"), Some(&Json::Null));
    }
}
