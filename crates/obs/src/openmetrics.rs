//! OpenMetrics text exposition of the live registry and sampled series.
//!
//! [`render`] turns a [`Metrics`] registry (plus, optionally, the latest
//! state of a [`SeriesStore`]) into the OpenMetrics text format: one
//! `# TYPE` line per family, `_total`-suffixed counters, histograms as
//! summaries with `quantile` labels, and a terminating `# EOF`. Metric
//! names are sanitised into the `ap3esm_` namespace (`serve.latency_us` →
//! `ap3esm_serve_latency_us`); the original dotted name is preserved as a
//! `name` label on series samples.
//!
//! [`MetricsServer`] serves that text over a deliberately tiny blocking
//! HTTP/1.0 endpoint built on `std::net` only (the workspace has no async
//! runtime — see `vendor/README.md`): a non-blocking accept loop polls a
//! stop flag every ~25 ms, reads one request line, answers
//! `/metrics` (OpenMetrics), `/series` (the `ap3esm-tsdb/1` JSON
//! snapshot), `/alerts` (alert events as JSON), or `/healthz`, then closes
//! the connection. It is an opt-in debugging/scrape surface
//! (`--metrics-addr`), not a production web server.
//!
//! [`parse`] is the strict validator used by the CI `telemetry-smoke` job
//! and the offline replay tool: it checks `# TYPE` declarations, name
//! syntax, label syntax, numeric sample values and the `# EOF` trailer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::alert::AlertEngine;
use crate::json::Json;
use crate::metrics::{Metrics, MetricSnapshot};
use crate::tsdb::SeriesStore;
use crate::Obs;

/// Sanitise a dotted metric name into an OpenMetrics name in the
/// `ap3esm_` namespace.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("ap3esm_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).into()
    } else {
        // Shortest round-trip form; integral values print without a dot,
        // which OpenMetrics permits.
        format!("{v}")
    }
}

/// A label value as it goes between the quotes: `\\`, `\"` and `\n` are the
/// three escapes the format has (and [`parse`] undoes).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render the registry (and the latest bucket of every series tier, when a
/// store is given) as OpenMetrics text.
pub fn render(metrics: &Metrics, store: Option<&SeriesStore>) -> String {
    let mut out = String::new();
    for (name, snap) in metrics.snapshot() {
        let om = sanitize(&name);
        match snap {
            MetricSnapshot::Counter(v) => {
                out.push_str(&format!("# TYPE {om} counter\n"));
                out.push_str(&format!("{om}_total {v}\n"));
            }
            MetricSnapshot::Gauge(v) => {
                out.push_str(&format!("# TYPE {om} gauge\n"));
                out.push_str(&format!("{om} {}\n", fmt_value(v)));
            }
            MetricSnapshot::Histogram(h) => {
                out.push_str(&format!("# TYPE {om} summary\n"));
                out.push_str(&format!("{om}{{quantile=\"0.5\"}} {}\n", h.p50));
                out.push_str(&format!("{om}{{quantile=\"0.95\"}} {}\n", h.p95));
                out.push_str(&format!("{om}_count {}\n", h.count));
                // The summary digest carries no exact sum; mean × count is
                // the closest reconstruction and keeps the report schema
                // unchanged.
                out.push_str(&format!(
                    "{om}_sum {}\n",
                    fmt_value(h.mean * h.count as f64)
                ));
            }
        }
    }
    if let Some(store) = store {
        let snaps = store.snapshot();
        if !snaps.is_empty() {
            out.push_str("# TYPE ap3esm_series gauge\n");
            for s in &snaps {
                for (tier, buckets) in s.tiers.iter().enumerate() {
                    let Some(b) = buckets.last() else { continue };
                    let factor = crate::tsdb::DOWNSAMPLE_FACTOR.pow(tier as u32);
                    for (agg, v) in [
                        ("last", b.sum / b.count.max(1) as f64),
                        ("min", b.min),
                        ("max", b.max),
                        ("mean", b.mean()),
                    ] {
                        // Raw-tier buckets hold one sample, so last == min
                        // == max == mean; emit only "last" there.
                        if tier == 0 && agg != "last" {
                            continue;
                        }
                        out.push_str(&format!(
                            "ap3esm_series{{name=\"{}\",tier=\"{}\",agg=\"{}\"}} {}\n",
                            escape_label(&s.name),
                            factor,
                            agg,
                            fmt_value(v)
                        ));
                    }
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// `(label, value)` pairs in declaration order.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

/// One parsed metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    pub name: String,
    /// `counter`, `gauge`, `summary`, …
    pub kind: String,
    pub samples: Vec<Sample>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A sample name must be its family name, optionally extended by a
/// recognised suffix (`_total`, `_count`, `_sum`, `_bucket`, `_created`).
fn belongs_to(sample: &str, family: &str) -> bool {
    match sample.strip_prefix(family) {
        Some("") => true,
        Some(suffix) => matches!(suffix, "_total" | "_count" | "_sum" | "_bucket" | "_created"),
        None => false,
    }
}

/// Strictly parse an OpenMetrics text document; used to validate scrapes
/// in CI and snapshots in the offline replay tool.
pub fn parse(text: &str) -> Result<Vec<Family>, String> {
    let mut families: Vec<Family> = Vec::new();
    let mut saw_eof = false;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if saw_eof {
            return Err(format!("line {ln}: content after # EOF"));
        }
        if line.is_empty() {
            return Err(format!("line {ln}: blank line"));
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if rest == "EOF" {
                saw_eof = true;
            } else if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
                if !valid_name(name) {
                    return Err(format!("line {ln}: bad family name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "info" | "unknown"
                ) || it.next().is_some()
                {
                    return Err(format!("line {ln}: bad TYPE declaration"));
                }
                if families.iter().any(|f| f.name == name) {
                    return Err(format!("line {ln}: duplicate family {name:?}"));
                }
                families.push(Family {
                    name: name.to_string(),
                    kind: kind.to_string(),
                    samples: Vec::new(),
                });
            } else if !rest.starts_with("HELP ") && !rest.starts_with("UNIT ") {
                return Err(format!("line {ln}: unknown comment directive"));
            }
            continue;
        }
        let sample = parse_sample(line).map_err(|e| format!("line {ln}: {e}"))?;
        let family = families
            .iter_mut()
            .rev()
            .find(|f| belongs_to(&sample.name, &f.name))
            .ok_or(format!(
                "line {ln}: sample {:?} outside any declared family",
                sample.name
            ))?;
        family.samples.push(sample);
    }
    if !saw_eof {
        return Err("missing # EOF trailer".into());
    }
    Ok(families)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (head, rest) = match line.find('{') {
        Some(brace) => {
            let close = line.rfind('}').ok_or("unterminated label set")?;
            if close < brace {
                return Err("mismatched braces".into());
            }
            (
                (&line[..brace], parse_labels(&line[brace + 1..close])?),
                line[close + 1..].trim(),
            )
        }
        None => {
            let mut it = line.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            ((name, Vec::new()), it.next().unwrap_or("").trim())
        }
    };
    let ((name, labels), value_text) = (head, rest);
    if !valid_name(name) {
        return Err(format!("bad sample name {name:?}"));
    }
    // A timestamp after the value is permitted by the spec; accept the
    // first token as the value and require it to be numeric.
    let value_tok = value_text
        .split_whitespace()
        .next()
        .ok_or("missing sample value")?;
    let value = match value_tok {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        tok => tok
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {tok:?}"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim();
        if !valid_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err("label value must be quoted".into());
        }
        // Scan the quoted value honouring backslash escapes.
        let mut value = String::new();
        let mut chars = rest[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    end = Some(i);
                    break;
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, e @ ('"' | '\\'))) => value.push(e),
                    _ => return Err("bad escape in label value".into()),
                },
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        out.push((key.to_string(), value));
        rest = rest[1 + end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Ok(out)
}

// --- the scrape endpoint ------------------------------------------------

/// Everything the endpoint can serve, bundled for the handler thread.
struct ServerState {
    obs: Arc<Obs>,
    store: Arc<SeriesStore>,
    engine: Option<Arc<AlertEngine>>,
}

/// A tiny blocking HTTP scrape endpoint over `std::net` (opt-in via
/// `--metrics-addr`); see the module docs for the routes.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and start
    /// the accept loop on its own thread.
    pub fn start(
        addr: &str,
        obs: Arc<Obs>,
        store: Arc<SeriesStore>,
        engine: Option<Arc<AlertEngine>>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let state = ServerState { obs, store, engine };
        let handle = std::thread::Builder::new()
            .name("obs-metrics-http".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => handle_connection(stream, &state),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(25));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(25)),
                    }
                }
            })
            .expect("spawn obs-metrics-http");
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop and join the thread.
    pub fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn handle_connection(mut stream: TcpStream, state: &ServerState) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    // One request per connection: read until the header terminator (or the
    // buffer/timeout gives out), answer, close.
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let path = request
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/" | "/metrics" => (
            "200 OK",
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            render(&state.obs.metrics, Some(&state.store)),
        ),
        "/series" => (
            "200 OK",
            "application/json",
            state.store.snapshot_json() + "\n",
        ),
        "/alerts" => ("200 OK", "application/json", alerts_json(state) + "\n"),
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

fn alerts_json(state: &ServerState) -> String {
    let mut root = Json::obj();
    let events = state
        .engine
        .as_ref()
        .map(|e| e.events())
        .unwrap_or_default();
    root.set(
        "alerts",
        Json::Arr(events.iter().map(crate::alert_event_json).collect()),
    );
    root.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        let m = Metrics::default();
        m.counter("serve.submitted").add(42);
        m.gauge("sim.sypd").set(0.54);
        let h = m.histogram("serve.latency_us");
        for v in [100, 200, 300, 400, 1000] {
            h.record(v);
        }
        m
    }

    #[test]
    fn renders_counters_gauges_summaries_and_eof() {
        let text = render(&sample_metrics(), None);
        assert!(text.contains("# TYPE ap3esm_serve_submitted counter\n"));
        assert!(text.contains("ap3esm_serve_submitted_total 42\n"));
        assert!(text.contains("# TYPE ap3esm_sim_sypd gauge\n"));
        assert!(text.contains("ap3esm_sim_sypd 0.54\n"));
        assert!(text.contains("# TYPE ap3esm_serve_latency_us summary\n"));
        assert!(text.contains("ap3esm_serve_latency_us{quantile=\"0.5\"}"));
        assert!(text.contains("ap3esm_serve_latency_us_count 5\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn renders_series_tiers_with_labels() {
        let store = SeriesStore::new(64);
        for i in 0..25 {
            store.record_at("sim.sypd", i as f64, 2.0 + (i % 3) as f64);
        }
        let text = render(&Metrics::default(), Some(&store));
        assert!(text.contains("# TYPE ap3esm_series gauge\n"));
        assert!(text.contains("ap3esm_series{name=\"sim.sypd\",tier=\"1\",agg=\"last\"}"));
        assert!(text.contains("ap3esm_series{name=\"sim.sypd\",tier=\"10\",agg=\"mean\"}"));
        // Raw tier emits only the last sample, not min/max/mean.
        assert!(!text.contains("tier=\"1\",agg=\"min\""));
    }

    #[test]
    fn series_name_with_quote_backslash_newline_round_trips() {
        // Found by tests/parser_fuzz.rs: the name went between the quotes
        // as it was, and the scrape it produced did not parse.
        let name = "odd \"name\"\\with\nescapes";
        let store = SeriesStore::new(8);
        store.record_at(name, 0.0, 1.5);
        let families = parse(&render(&Metrics::default(), Some(&store))).expect("parses");
        assert_eq!(families[0].samples[0].labels[0], ("name".to_string(), name.to_string()));
    }

    #[test]
    fn parser_accepts_what_render_emits() {
        let store = SeriesStore::new(64);
        store.record_at("sim.sypd", 0.0, 0.5);
        let text = render(&sample_metrics(), Some(&store));
        let families = parse(&text).unwrap();
        let names: Vec<&str> = families.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"ap3esm_serve_submitted"));
        assert!(names.contains(&"ap3esm_series"));
        let series = families.iter().find(|f| f.name == "ap3esm_series").unwrap();
        assert_eq!(
            series.samples[0].labels[0],
            ("name".to_string(), "sim.sypd".to_string())
        );
        let summary = families
            .iter()
            .find(|f| f.name == "ap3esm_serve_latency_us")
            .unwrap();
        assert_eq!(summary.kind, "summary");
        assert_eq!(summary.samples.len(), 4); // q0.5, q0.95, _count, _sum
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for (bad, why) in [
            ("ap3esm_x 1\n# EOF\n", "sample outside a family"),
            ("# TYPE ap3esm_x gauge\nap3esm_x 1\n", "missing EOF"),
            ("# TYPE ap3esm_x gauge\nap3esm_x one\n# EOF\n", "bad value"),
            ("# TYPE ap3esm_x wat\n# EOF\n", "bad kind"),
            ("# TYPE 9x gauge\n# EOF\n", "bad name"),
            (
                "# TYPE ap3esm_x gauge\n# TYPE ap3esm_x gauge\n# EOF\n",
                "duplicate family",
            ),
            (
                "# TYPE ap3esm_x gauge\nap3esm_x{a=b} 1\n# EOF\n",
                "unquoted label",
            ),
            ("# EOF\nap3esm_x 1\n", "content after EOF"),
            (
                "# TYPE ap3esm_x gauge\nap3esm_y 1\n# EOF\n",
                "sample from another family",
            ),
        ] {
            assert!(parse(bad).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn parser_handles_escapes_timestamps_and_specials() {
        let doc = "# TYPE ap3esm_x gauge\n\
                   ap3esm_x{a=\"q\\\"uo\\\\te\\n\",b=\"2\"} 1.5 1700000000\n\
                   ap3esm_x{a=\"inf\"} +Inf\n\
                   # EOF\n";
        let families = parse(doc).unwrap();
        let s = &families[0].samples[0];
        assert_eq!(s.labels[0].1, "q\"uo\\te\n");
        assert_eq!(s.labels[1].1, "2");
        assert_eq!(s.value, 1.5);
        assert!(families[0].samples[1].value.is_infinite());
    }

    #[test]
    fn server_serves_all_routes_and_stops() {
        let obs = Arc::new(Obs::new());
        obs.metrics.counter("hits").add(7);
        let store = Arc::new(SeriesStore::new(64));
        store.record_at("sim.sypd", 0.0, 0.5);
        let engine = Arc::new(AlertEngine::new(vec![
            crate::alert::parse_rule("hot: sim.sypd above 0.1").unwrap(),
        ]).quiet());
        engine.observe("sim.sypd", 0.0, 0.5, None);
        let server = MetricsServer::start(
            "127.0.0.1:0",
            Arc::clone(&obs),
            Arc::clone(&store),
            Some(Arc::clone(&engine)),
        )
        .unwrap();
        let addr = server.local_addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.contains("ap3esm_hits_total 7"));
        assert!(parse(body_of(&metrics)).is_ok(), "scrape must validate");

        let series = http_get(addr, "/series");
        assert!(body_of(&series).starts_with(r#"{"schema":"ap3esm-tsdb/1""#));

        let alerts = http_get(addr, "/alerts");
        assert!(body_of(&alerts).contains("\"rule\":\"hot\""));

        assert!(http_get(addr, "/healthz").contains("ok"));
        assert!(http_get(addr, "/nope").starts_with("HTTP/1.0 404"));

        server.stop();
        // The port is released once the thread joins: a fresh bind works.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after stop");
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn body_of(response: &str) -> &str {
        response.split("\r\n\r\n").nth(1).unwrap_or("")
    }
}
