//! The benchmark's own span recorder (choosing-metrics §4): a span per
//! call into a layer, kept in memory and written out when the run ends.
//! Spans live in the benchmark, not in the program, so tracing costs the
//! program nothing but the clock reads around each call.

use std::time::Instant;

use ap3esm::obs::json::Json;

pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, a child of the span open now.
    /// Returns `f`'s value and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[id].end_us = end_us;
        (out, (end_us - start_us) / 1e6)
    }

    /// A span's duration minus the part its children cover.
    pub fn self_time_us(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_us - c.start_us)
            .sum();
        (s.end_us - s.start_us) - children
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), id.into()),
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_us".into(), Json::Num(s.start_us)),
                    ("end_us".into(), Json::Num(s.end_us)),
                    ("parent".into(), s.parent.map_or(Json::Null, Json::from)),
                    ("self_us".into(), Json::Num(self.self_time_us(id))),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("w");
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(t.spans[1].parent, Some(0));
        let inner = t.spans[1].end_us - t.spans[1].start_us;
        let outer = t.spans[0].end_us - t.spans[0].start_us;
        assert!(inner >= 5000.0 && outer >= inner);
        assert!((t.self_time_us(0) - (outer - inner)).abs() < 1e-6);
    }
}
