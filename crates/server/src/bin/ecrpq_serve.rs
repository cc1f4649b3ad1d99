//! `ecrpq-serve` — the standalone query server binary.
//!
//! ```text
//! ecrpq-serve [--addr HOST:PORT] [--workers N] [--exec-workers N]
//!             [--bound-capacity N] [--open NAME=PATH]…
//!             [--slow-query-ms MS] [--metrics-addr HOST:PORT]
//!             [--merge-threshold N] [--send-queue-cap N]
//!             [--write-timeout-ms MS] [--version]
//! ```
//!
//! `--workers` bounds concurrently served connections; `--exec-workers`
//! sizes the shared pipeline pool that executes tagged (pipelined)
//! requests from all connections (defaults to `--workers`).
//!
//! `--slow-query-ms` arms the slow-query ring buffer (read via the
//! `slowlog` op); `--metrics-addr` opens a plain-TCP endpoint that dumps
//! the metrics registry in Prometheus exposition format on every
//! connection — scrape it with `nc HOST PORT`.
//!
//! `--merge-threshold` sets how many pending live-overlay edge operations a
//! graph accumulates before `add_edges`/`remove_edges` merge them into a
//! fresh sealed epoch. `--send-queue-cap` bounds dispatched-but-unwritten
//! pipelined replies per connection, and `--write-timeout-ms` bounds one
//! blocked reply write (0 disables) — together they fail stalled readers
//! fast instead of buffering replies without bound.
//!
//! Binds (port 0 = ephemeral), prints one line `listening on <addr>` to
//! stdout — scripts parse this to discover the port — followed by
//! `metrics on <addr>` when `--metrics-addr` is given, and serves until a
//! client sends `{"op":"shutdown"}` (or the process is killed).
//!
//! Each `--open NAME=PATH` (repeatable) opens a binary snapshot into the
//! catalog before the listening line is printed, re-preparing, binding and
//! compiling the statements of its sidecar if present — so the server
//! answers its first request with a fully warm registry.

use ecrpq_server::server::{Server, ServerConfig};
use ecrpq_util::json::Value;

fn main() {
    let mut config = ServerConfig::default();
    let mut opens: Vec<(String, String)> = Vec::new();
    let mut exec_workers: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = value(&mut it, "--addr"),
            "--workers" => config.workers = parse(&value(&mut it, "--workers"), "--workers"),
            "--exec-workers" => {
                exec_workers = Some(parse(&value(&mut it, "--exec-workers"), "--exec-workers"))
            }
            "--bound-capacity" => {
                config.bound_capacity =
                    parse(&value(&mut it, "--bound-capacity"), "--bound-capacity")
            }
            "--open" => {
                let spec = value(&mut it, "--open");
                match spec.split_once('=') {
                    Some((name, path)) => opens.push((name.to_string(), path.to_string())),
                    None => die("--open expects NAME=PATH"),
                }
            }
            "--slow-query-ms" => {
                config.slow_query_ms =
                    parse(&value(&mut it, "--slow-query-ms"), "--slow-query-ms") as u64
            }
            "--metrics-addr" => config.metrics_addr = Some(value(&mut it, "--metrics-addr")),
            "--merge-threshold" => {
                config.merge_threshold =
                    parse(&value(&mut it, "--merge-threshold"), "--merge-threshold")
            }
            "--send-queue-cap" => {
                config.send_queue_cap =
                    parse(&value(&mut it, "--send-queue-cap"), "--send-queue-cap")
            }
            "--write-timeout-ms" => {
                config.write_timeout_ms =
                    parse(&value(&mut it, "--write-timeout-ms"), "--write-timeout-ms") as u64
            }
            "--version" | "-V" => {
                println!("ecrpq-serve {}", env!("CARGO_PKG_VERSION"));
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: ecrpq-serve [--addr HOST:PORT] [--workers N] [--exec-workers N] \
                     [--bound-capacity N] [--open NAME=PATH]… \
                     [--slow-query-ms MS] [--metrics-addr HOST:PORT] [--merge-threshold N] \
                     [--send-queue-cap N] [--write-timeout-ms MS] [--version]"
                );
                return;
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }
    // The pipeline pool follows the connection pool unless sized explicitly.
    config.exec_workers = exec_workers.unwrap_or(config.workers);

    let handle = match Server::spawn(config) {
        Ok(h) => h,
        Err(e) => die(&format!("failed to start: {e}")),
    };
    // Open requested snapshots before announcing the port, so no client can
    // observe a partially-populated catalog.
    for (name, path) in &opens {
        let req = Value::obj([
            ("op", Value::str("open")),
            ("name", Value::str(name.as_str())),
            ("path", Value::str(path.as_str())),
        ]);
        let (reply, _) = handle.service().dispatch(&req.to_string());
        if !reply.contains("\"ok\":true") {
            die(&format!("--open {name}={path} failed: {reply}"));
        }
        eprintln!("opened `{name}` from {path}");
    }
    println!("listening on {}", handle.addr());
    if let Some(maddr) = handle.metrics_addr() {
        println!("metrics on {maddr}");
    }
    // Stdout is parsed by scripts; flush so the ports are visible immediately.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    // Block until a protocol `shutdown` drains the listener and workers.
    handle.shutdown_wait();
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| die(&format!("{flag} expects a value")))
}

fn parse(s: &str, flag: &str) -> usize {
    s.parse().unwrap_or_else(|_| die(&format!("{flag} expects a number")))
}

fn die(msg: &str) -> ! {
    eprintln!("ecrpq-serve: {msg}");
    std::process::exit(2);
}
