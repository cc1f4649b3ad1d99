//! Benchmark harness for the query-service family: an in-process server on
//! loopback TCP, measured per client-thread count (p50/p95 latency, mean
//! seconds per request, the server's own histogram percentiles), plus the
//! high-concurrency load sweep (legacy vs pipelined vs batch protocol shapes
//! past the server's admission capacity). Prints one table and writes the
//! measurements as `BENCH_serve.json` in the current directory.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ecrpq-bench --bin harness [-- MODE]
//!
//! MODE:
//!   serve        full sizes: 1/4/8 client threads, load sweep at
//!                64/256/1024 connections (default)
//!   serve-smoke  smoke sizes — a seconds-scale gate whose load sweep
//!                self-checks zero reply loss and admission accounting
//!                (used by scripts/check.sh)
//! ```
//!
//! The paper's Figure 1 rows are pinned as exact counts by
//! `tests/fig1_shapes.rs`; end-to-end timings come from `benchmarks/e2e`.

use ecrpq_bench::load::{load_family, LoadConfig};
use ecrpq_bench::serve::serve_family;
use ecrpq_util::json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.as_slice() {
        [] => "serve",
        [m] if m == "serve" || m == "serve-smoke" => m.as_str(),
        _ => {
            eprintln!("harness: expected `serve` or `serve-smoke` (see the doc comment)");
            std::process::exit(2);
        }
    };
    let (threads, requests, n, load): (&[usize], usize, usize, LoadConfig) = if mode == "serve" {
        let load =
            LoadConfig { conns: vec![64, 256, 1024], workers: 64, requests: 100, n: 60, batch: 16 };
        (&[1, 4, 8], 150, 400, load)
    } else {
        let load = LoadConfig { conns: vec![4], workers: 2, requests: 20, n: 40, batch: 8 };
        (&[1], 8, 50, load)
    };

    println!("== SERVE query service ({mode}): loopback latency per client-thread count +");
    println!("   load sweep (legacy vs pipelined vs batch) per connection count ==");
    let mut m = serve_family(threads, requests, n);
    m.extend(load_family(&load));
    println!("{:<28} {:>10} {:>14}  note", "series", "param", "seconds");
    for m in &m {
        println!("{:<28} {:>10} {:>14.6}  {}", m.series, m.param, m.seconds, m.note);
    }
    let path = "BENCH_serve.json";
    match std::fs::write(path, json::experiment("serve", mode, &m)) {
        Ok(()) => println!("   wrote {path}"),
        Err(e) => eprintln!("   failed to write {path}: {e}"),
    }
}
