//! The `serve` experiment family: end-to-end throughput and latency of the
//! query service over loopback TCP.
//!
//! An in-process [`Server`] is loaded with the data-complexity graph and one
//! prepared ECRPQ statement; then, per client-thread count, that many
//! concurrent clients each stream `run` requests over their own connection.
//! Recorded per thread count: `p50` and `p95` request latency and `mean`
//! seconds per request (whose note carries the aggregate throughput in
//! requests/second), plus `server_p50`/`server_p99` taken from the server's
//! own request-latency histogram over the same burst — the note of those
//! series reconciles them against the client-observed percentiles and flags
//! a disagreement beyond 20% (+1 bucket width: the histogram quantile is an
//! upper bound, and client numbers additionally carry the loopback
//! round-trip). Every measured request is a registry cache hit with zero
//! sim-table compilations — the serving layer is what is measured, not the
//! compile phase.

use ecrpq_integration::fig1;
use ecrpq_server::client::Client;
use ecrpq_server::protocol::REQUEST_HISTOGRAM;
use ecrpq_server::server::{Server, ServerConfig};
use ecrpq_util::json::Value;
use ecrpq_util::Measurement;
use std::time::Instant;

/// Statement and graph names used by the workload.
const GRAPH: &str = "bench";
const STMT: &str = "q";

/// The `seconds` of the sorted latency list at percentile `p` (0–100).
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the serve family: for each entry of `client_threads`, `requests`
/// requests per client against a graph of `n` nodes.
pub fn serve_family(client_threads: &[usize], requests: usize, n: usize) -> Vec<Measurement> {
    let graph = fig1::data_complexity_graph(n, 7);
    let query_text = {
        // The ECRPQ of the data-complexity family, in textual form (Display
        // emits the parser's syntax).
        let (_, ecrpq) = fig1::data_queries(&graph);
        ecrpq.to_string()
    };
    let edges = graph.to_edge_list();

    let max_threads = client_threads.iter().copied().max().unwrap_or(1);
    let handle =
        Server::spawn(ServerConfig { workers: max_threads + 2, ..ServerConfig::default() })
            .expect("failed to spawn bench server");
    let addr = handle.addr();

    // Setup + warmup on a dedicated connection: after this, every measured
    // request must be a registry hit with zero sim-table compilations.
    {
        let mut setup = Client::connect(addr).expect("connect setup client");
        setup.load_edges(GRAPH, &edges).expect("load graph");
        setup.prepare_for_graph(STMT, &query_text, GRAPH).expect("prepare statement");
        setup.run_in_mode(STMT, GRAPH, "boolean").expect("warmup run");
        let warm = setup.run_in_mode(STMT, GRAPH, "boolean").expect("second warmup run");
        assert_eq!(warm.get("registry").and_then(Value::as_str), Some("hit"));
        let misses =
            warm.get("stats").and_then(|s| s.get("sim_cache_misses")).and_then(Value::as_u64);
        assert_eq!(misses, Some(0), "warm serve run must not compile: {warm}");
        setup.close().expect("close setup client");
    }

    // The server's own latency record for `run` requests — the same
    // histogram the `metrics` op and `--metrics-addr` endpoint expose.
    let run_hist = handle.service().metrics.histogram_with(
        REQUEST_HISTOGRAM,
        &[("op", "run")],
        "Server-side request latency by op, microseconds.",
    );

    let mut out = Vec::new();
    for &threads in client_threads {
        let before = run_hist.snapshot();
        let wall = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect bench client");
                    let mut latencies = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        let start = Instant::now();
                        let reply = client.run_in_mode(STMT, GRAPH, "boolean").expect("bench run");
                        latencies.push(start.elapsed().as_secs_f64());
                        debug_assert_eq!(
                            reply.get("registry").and_then(Value::as_str),
                            Some("hit")
                        );
                    }
                    let _ = client.close();
                    latencies
                })
            })
            .collect();
        let mut latencies: Vec<f64> =
            handles.into_iter().flat_map(|h| h.join().expect("bench client panicked")).collect();
        let elapsed = wall.elapsed().as_secs_f64();
        latencies.sort_by(f64::total_cmp);

        let total = latencies.len();
        let throughput = total as f64 / elapsed;
        let mean = latencies.iter().sum::<f64>() / total as f64;
        let note = format!("throughput={throughput:.0} req/s requests={total}");
        let t = threads as u64;
        out.push(Measurement {
            series: "p50".into(),
            param: t,
            seconds: percentile(&latencies, 50.0),
            note: String::new(),
        });
        out.push(Measurement {
            series: "p95".into(),
            param: t,
            seconds: percentile(&latencies, 95.0),
            note: String::new(),
        });
        out.push(Measurement { series: "mean".into(), param: t, seconds: mean, note });

        // Server-side percentiles over exactly this burst (snapshot delta),
        // reconciled against the client-observed numbers. The client sees
        // the server latency plus the loopback round-trip, and the bucket
        // quantile is an upper bound — so the flag allows 20% plus one
        // bucket width (25% + 1µs at these boundaries) before shouting.
        let delta = run_hist.snapshot().delta_since(&before);
        debug_assert_eq!(delta.count, total as u64, "histogram missed requests");
        for (series, q, client_s) in [
            ("server_p50", 0.5, percentile(&latencies, 50.0)),
            ("server_p99", 0.99, percentile(&latencies, 99.0)),
        ] {
            let server_us = delta.quantile(q).unwrap_or(0);
            let server_s = server_us as f64 / 1e6;
            let client_us = client_s * 1e6;
            let slack = client_us * 0.20 + server_us as f64 / 4.0 + 1.0;
            let drift = (client_us - server_us as f64).abs();
            let mut note = format!("client_us={client_us:.1} server_us={server_us}");
            if drift > slack {
                note.push_str(" DISAGREE>20%");
                eprintln!(
                    "serve[{threads} threads] {series}: server-side {server_us}µs vs \
                     client-observed {client_us:.1}µs — disagreement beyond 20%"
                );
            }
            out.push(Measurement { series: series.into(), param: t, seconds: server_s, note });
        }
    }

    handle.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_list() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 51.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn serve_family_smoke() {
        let m = serve_family(&[1, 2], 4, 40);
        assert_eq!(m.len(), 10, "five series per thread count");
        assert!(m.iter().all(|m| m.seconds.is_finite() && m.seconds >= 0.0));
        let mean = m.iter().find(|m| m.series == "mean" && m.param == 2).unwrap();
        assert!(mean.note.contains("requests=8"));
        // The server-side percentiles carry the reconciliation note.
        let sp50 = m.iter().find(|m| m.series == "server_p50" && m.param == 1).unwrap();
        assert!(sp50.note.contains("client_us="), "note: {}", sp50.note);
        assert!(sp50.seconds > 0.0, "server histogram recorded the burst");
        assert!(m.iter().any(|m| m.series == "server_p99" && m.param == 2));
    }
}
