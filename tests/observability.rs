//! Integration suite for the observability surface: the `trace` op's span
//! tree, the `metrics`/`slowlog` ops, the `--metrics-addr` exposition
//! endpoint, and the `version`/`uptime_s` stats fields — all driven over a
//! real in-process [`Server`] on loopback TCP, the same transport
//! `ecrpq-serve` exposes.
//!
//! The scrape test is the integration half of the `--metrics-smoke` gate in
//! `scripts/check.sh`: it asserts the request histogram's `_count` on the
//! exposition endpoint reconciles exactly with the number of requests this
//! test sent.

use ecrpq_server::client::Client;
use ecrpq_server::server::{Server, ServerConfig, ServerHandle};
use ecrpq_util::json::Value;
use std::io::Read;
use std::net::TcpStream;

const GRAPH: &str = "ring";
const STMT: &str = "two_hops";

/// Spawns a server with the metrics endpoint open and the slow-query log
/// armed at 1ms, loads a small graph, and warms one prepared statement.
fn spawn_observed() -> ServerHandle {
    let handle = Server::spawn(ServerConfig {
        workers: 2,
        exec_workers: 2,
        slow_query_ms: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut c = Client::connect(handle.addr()).expect("connect setup");
    c.load_generator(GRAPH, "cycle:8:a").expect("load graph");
    c.prepare_for_graph(STMT, "Ans(x, y) <- (x, p, y), L(p) = a a", GRAPH).expect("prepare");
    c.run_in_mode(STMT, GRAPH, "nodes").expect("warm run");
    c.close().expect("close setup");
    handle
}

/// One scrape of the exposition endpoint: connect, read to EOF.
fn scrape(handle: &ServerHandle) -> String {
    let addr = handle.metrics_addr().expect("metrics endpoint configured");
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read exposition text");
    text
}

/// The `_count` sample value for `family{labels}` in exposition text.
fn sample(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_endpoint_reconciles_with_requests_sent() {
    let handle = spawn_observed();
    let mut c = Client::connect(handle.addr()).expect("connect");
    for _ in 0..5 {
        c.run_in_mode(STMT, GRAPH, "nodes").expect("run");
    }

    let text = scrape(&handle);
    // Setup issued one warm run; this test issued five more.
    assert_eq!(
        sample(&text, "ecrpq_request_us_count{op=\"run\"}"),
        Some(6),
        "run histogram count must equal runs sent:\n{text}"
    );
    assert_eq!(sample(&text, "ecrpq_request_us_count{op=\"load\"}"), Some(1));
    // The scrape endpoint itself is not a protocol request — a second
    // scrape must see the same request counts.
    let again = scrape(&handle);
    assert_eq!(
        sample(&again, "ecrpq_request_us_count{op=\"run\"}"),
        Some(6),
        "scraping must not perturb request counters"
    );

    handle.shutdown();
}

#[test]
fn exposition_text_is_structurally_wellformed() {
    let handle = spawn_observed();
    let text = scrape(&handle);

    // Every family: `# HELP` immediately before `# TYPE`, samples after.
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            assert!(
                lines[i - 1].starts_with(&format!("# HELP {name} ")),
                "TYPE for `{name}` not preceded by its HELP line"
            );
        }
    }

    // Histogram bucket series are cumulative and end at `+Inf` == `_count`.
    for op in ["load", "prepare", "run"] {
        let prefix = format!("ecrpq_request_us_bucket{{op=\"{op}\",le=");
        let mut prev = 0u64;
        let mut inf = None;
        for line in &lines {
            if let Some(rest) = line.strip_prefix(&prefix) {
                let count: u64 = line.rsplit(' ').next().unwrap().parse().expect("bucket count");
                assert!(count >= prev, "bucket series not cumulative: {line}");
                prev = count;
                if rest.starts_with("\"+Inf\"") {
                    inf = Some(count);
                }
            }
        }
        assert_eq!(
            inf,
            sample(&text, &format!("ecrpq_request_us_count{{op=\"{op}\"}}")),
            "+Inf bucket must equal _count for op={op}"
        );
    }

    // The gauges the serve path maintains are all present.
    for family in [
        "ecrpq_uptime_seconds",
        "ecrpq_queue_depth",
        "ecrpq_cache_hit_rate",
        "ecrpq_requests_total",
    ] {
        assert!(text.contains(family), "missing family `{family}`:\n{text}");
    }
    // The caches are single maps: no per-shard gauge family.
    assert!(!text.contains("shard_hit_rate"), "per-shard gauges are gone:\n{text}");

    handle.shutdown();
}

/// Depth-first span walk asserting positive durations, sibling order, and
/// parent containment (2µs slack for float rounding at render time).
fn assert_monotonic(span: &Value, window: &mut (f64, f64)) {
    let name = span.get("name").and_then(Value::as_str).unwrap();
    let start = span.get("start_us").and_then(Value::as_f64).unwrap();
    let dur = span.get("dur_us").and_then(Value::as_f64).unwrap();
    assert!(dur > 0.0, "span `{name}` has non-positive duration");
    assert!(start >= window.0, "span `{name}` starts before its predecessor");
    assert!(start + dur <= window.1 + 0.002, "span `{name}` escapes its parent");
    window.0 = start;
    let mut inner = (start, start + dur);
    for kid in span.get("children").and_then(Value::as_arr).unwrap_or(&[]) {
        assert_monotonic(kid, &mut inner);
    }
}

#[test]
fn trace_over_tcp_is_monotonic_and_reconciles_with_recorded_latency() {
    let handle = spawn_observed();
    let mut c = Client::connect(handle.addr()).expect("connect");
    let expected = c.run_in_mode(STMT, GRAPH, "nodes").expect("plain run");

    let reply = c.trace(STMT, GRAPH, "nodes").expect("trace");
    assert_eq!(reply.get("answers"), expected.get("answers"), "tracing changed answers");

    let trace = reply.get("trace").expect("trace object");
    let spans = trace.get("spans").and_then(Value::as_arr).expect("span array");
    assert_eq!(spans.len(), 1, "one root span");
    let mut window = (0.0, f64::INFINITY);
    assert_monotonic(&spans[0], &mut window);

    // Acceptance criterion: phase durations sum to within 10% of the
    // latency the server recorded in its request histogram.
    let total = trace.get("server_latency_us").and_then(Value::as_f64).expect("latency");
    let phase_sum: f64 = spans[0]
        .get("children")
        .and_then(Value::as_arr)
        .expect("root phases")
        .iter()
        .map(|c| c.get("dur_us").and_then(Value::as_f64).unwrap())
        .sum();
    assert!(
        (phase_sum - total).abs() <= total * 0.10,
        "phases sum to {phase_sum}µs but the server recorded {total}µs"
    );

    // The per-atom search span sits next to the planner's estimate — the
    // EXPLAIN ANALYZE contract: actual pairs and estimated pairs together.
    fn find<'v>(span: &'v Value, name: &str) -> Option<&'v Value> {
        if span.get("name").and_then(Value::as_str) == Some(name) {
            return Some(span);
        }
        span.get("children")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .find_map(|k| find(k, name))
    }
    let reach = find(&spans[0], "reach:p").expect("per-atom reach span");
    let attrs = reach.get("attrs").expect("reach attrs");
    assert!(attrs.get("pairs").and_then(Value::as_u64).is_some());
    assert!(attrs.get("est_pairs").and_then(Value::as_u64).is_some());

    handle.shutdown();
}

#[test]
fn slowlog_captures_a_slow_request_over_tcp() {
    let handle = spawn_observed();
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Loading a 50k-node graph comfortably exceeds the 1ms threshold in any
    // build profile; warm nodes-runs on the 8-cycle comfortably stay under.
    c.load_generator("big", "cycle:50000:a").expect("slow load");

    let reply = c.slowlog(Some(8)).expect("slowlog");
    assert_eq!(reply.get("threshold_ms").and_then(Value::as_u64), Some(1));
    let entries = reply.get("entries").and_then(Value::as_arr).expect("entries");
    let slow_load = entries
        .iter()
        .find(|e| {
            e.get("op").and_then(Value::as_str) == Some("load")
                && e.get("graph").and_then(Value::as_str) == Some("big")
        })
        .expect("the big load must appear in the slow-query log");
    assert!(slow_load.get("micros").and_then(Value::as_u64).unwrap() >= 1000);
    assert_eq!(slow_load.get("error").and_then(Value::as_bool), Some(false));

    handle.shutdown();
}

#[test]
fn stats_carries_version_and_uptime_over_tcp() {
    let handle = spawn_observed();
    let mut c = Client::connect(handle.addr()).expect("connect");
    let st = c.stats().expect("stats");
    assert_eq!(
        st.get("version").and_then(Value::as_str),
        Some(env!("CARGO_PKG_VERSION")),
        "server version must match the workspace version"
    );
    assert!(st.get("uptime_s").and_then(Value::as_u64).is_some());
    handle.shutdown();
}
