//! `ecrpq-cli` — a small command-line client for `ecrpq-serve`.
//!
//! ```text
//! ecrpq-cli --addr HOST:PORT COMMAND [ARGS…]
//!
//! COMMANDS
//!   load <graph> <generator-spec>      load from a generator (cycle:8:a, …)
//!   load-edges <graph> <file>          load an edge-list file (read locally)
//!   prepare <name> <query> <graph>     parse+compile over <graph>'s alphabet
//!   run <name> <graph> [mode]          execute (mode: nodes|boolean|paths)
//!   check <name> <graph> <json>        membership check; <json> supplies
//!                                      {"nodes": […], "paths": […]}
//!   add-edges <graph> <from> <label> <to> […]
//!                                      apply edge triples to the graph's
//!                                      live overlay (repeat the triple for
//!                                      more edges; new nodes/labels are
//!                                      created)
//!   remove-edges <graph> <from> <label> <to> […]
//!                                      remove edge triples (unknown ones
//!                                      count under `missing`)
//!   explain <name> <graph>             show the query plan (join order, BFS
//!                                      directions, estimated vs actual atom
//!                                      cardinalities)
//!   save <graph> <path>                persist a binary snapshot (+ a
//!                                      <path>.art statement sidecar) on
//!                                      the server's filesystem
//!   open <name> <path>                 open a snapshot under a fresh name,
//!                                      re-preparing and warming sidecar
//!                                      statements
//!   trace <name> <graph> [mode]        run with phase tracing: the reply
//!                                      carries the span tree and the
//!                                      server-recorded latency; the tree is
//!                                      rendered on stderr and validated
//!                                      (spans monotonic, phase durations
//!                                      sum to within 10% of the recorded
//!                                      latency — violations exit nonzero)
//!   metrics [text|json]                dump the server metrics registry;
//!                                      `text` (default) prints raw
//!                                      Prometheus exposition format
//!   slowlog [limit]                    newest-first slow-query entries
//!                                      (server must run --slow-query-ms)
//!   stats [graph]                      server counters (+ per-label graph
//!                                      statistics when a graph is named);
//!                                      prints an admission/backpressure
//!                                      summary on stderr
//!   shutdown                           stop the server
//!   raw <json-line>…                   send raw request lines verbatim
//!   script                             read raw request lines from stdin
//! ```
//!
//! Every reply is printed as one JSON line on stdout — except `metrics`
//! in text format, which prints the exposition text verbatim (it *is* the
//! scrape surface) — so scripts can grep fields (`scripts/check.sh` greps
//! `"sim_cache_misses":0` for its warm-run gate). Exit status is nonzero
//! if any reply has `ok: false`.

use ecrpq_server::client::Client;
use ecrpq_util::json::Value;
use std::io::BufRead;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().unwrap_or_else(|| die("--addr expects a value"))),
            "--version" | "-V" => {
                println!("ecrpq-cli {}", env!("CARGO_PKG_VERSION"));
                return;
            }
            "--help" | "-h" => {
                println!("usage: ecrpq-cli --addr HOST:PORT COMMAND [ARGS…] (see the doc comment)");
                return;
            }
            _ => {
                rest.push(a);
                rest.extend(it);
                break;
            }
        }
    }
    let addr = addr.unwrap_or_else(|| die("--addr HOST:PORT is required"));
    let mut client =
        Client::connect(addr.as_str()).unwrap_or_else(|e| die(&format!("connect: {e}")));

    let mut ok = true;
    match rest.first().map(String::as_str) {
        Some("load") => {
            let (g, spec) = two(&rest, "load <graph> <generator-spec>");
            ok &= print_reply(client.load_generator(g, spec));
        }
        Some("load-edges") => {
            let (g, file) = two(&rest, "load-edges <graph> <file>");
            let text = std::fs::read_to_string(file)
                .unwrap_or_else(|e| die(&format!("cannot read `{file}`: {e}")));
            ok &= print_reply(client.load_edges(g, &text));
        }
        Some("prepare") => {
            let [name, query, graph] = three(&rest, "prepare <name> <query> <graph>");
            ok &= print_reply(client.prepare_for_graph(name, query, graph));
        }
        Some("run") => {
            let usage = "run <name> <graph> [mode]";
            let name = rest.get(1).unwrap_or_else(|| die(usage));
            let graph = rest.get(2).unwrap_or_else(|| die(usage));
            let mode = rest.get(3).map(String::as_str).unwrap_or("nodes");
            ok &= print_reply(client.run_in_mode(name, graph, mode));
        }
        Some("check") => {
            let [name, graph, extra] = three(&rest, "check <name> <graph> <json>");
            let v = ecrpq_util::json::parse(extra)
                .unwrap_or_else(|e| die(&format!("bad check JSON: {e}")));
            let mut req = vec![
                ("op".to_string(), Value::str("check")),
                ("name".to_string(), Value::str(name.as_str())),
                ("graph".to_string(), Value::str(graph.as_str())),
            ];
            if let Value::Obj(pairs) = v {
                req.extend(pairs);
            }
            ok &= print_reply(client.request(&Value::Obj(req)));
        }
        Some("add-edges") => {
            let (g, edges) = triples(&rest, "add-edges <graph> <from> <label> <to> […]");
            ok &= print_reply(client.add_edges(g, &edges));
        }
        Some("remove-edges") => {
            let (g, edges) = triples(&rest, "remove-edges <graph> <from> <label> <to> […]");
            ok &= print_reply(client.remove_edges(g, &edges));
        }
        Some("explain") => {
            let (name, graph) = two(&rest, "explain <name> <graph>");
            let reply = client.explain(name, graph);
            // Render the plan for humans on stderr; stdout keeps the
            // one-JSON-line contract that scripts rely on.
            if let Ok(v) = &reply {
                if let Some(text) = v.get("text").and_then(Value::as_str) {
                    eprintln!("{text}");
                }
            }
            ok &= print_reply(reply);
        }
        Some("save") => {
            let (g, path) = two(&rest, "save <graph> <path>");
            ok &= print_reply(client.save(g, path));
        }
        Some("open") => {
            let (name, path) = two(&rest, "open <name> <path>");
            ok &= print_reply(client.open(name, path));
        }
        Some("trace") => {
            let usage = "trace <name> <graph> [mode]";
            let name = rest.get(1).unwrap_or_else(|| die(usage));
            let graph = rest.get(2).unwrap_or_else(|| die(usage));
            let mode = rest.get(3).map(String::as_str).unwrap_or("nodes");
            let reply = client.trace(name, graph, mode);
            if let Ok(v) = &reply {
                // Render the span tree for humans on stderr and validate it;
                // stdout keeps the one-JSON-line contract.
                ok &= validate_trace(v);
            }
            ok &= print_reply(reply);
        }
        Some("metrics") => {
            let format = rest.get(1).map(String::as_str).unwrap_or("text");
            let reply = client.metrics(format);
            match reply {
                // Text format prints the exposition text verbatim — this is
                // the scrape surface, not a JSON reply.
                Ok(v) if format == "text" => {
                    print!("{}", v.get("text").and_then(Value::as_str).unwrap_or(""));
                }
                other => ok &= print_reply(other),
            }
        }
        Some("slowlog") => {
            let limit = rest
                .get(1)
                .map(|t| t.parse().unwrap_or_else(|_| die("slowlog: limit must be a number")));
            let reply = client.slowlog(limit);
            if let Ok(v) = &reply {
                // One line per entry on stderr, newest first.
                for e in v.get("entries").and_then(Value::as_arr).unwrap_or(&[]) {
                    let s = |k: &str| e.get(k).and_then(Value::as_str).unwrap_or("-").to_string();
                    let n = |k: &str| e.get(k).and_then(Value::as_u64).unwrap_or(0);
                    let flag = if e.get("error").and_then(Value::as_bool) == Some(true) {
                        " [error]"
                    } else {
                        ""
                    };
                    eprintln!(
                        "{}µs {} name={} graph={} at_epoch_ms={}{}",
                        n("micros"),
                        s("op"),
                        s("name"),
                        s("graph"),
                        n("at_epoch_ms"),
                        flag,
                    );
                }
            }
            ok &= print_reply(reply);
        }
        Some("stats") => {
            let reply = match rest.get(1) {
                Some(graph) => client.stats_graph(graph),
                None => client.stats(),
            };
            // A human-readable admission/backpressure summary on stderr;
            // stdout keeps the one-JSON-line contract that scripts rely on.
            if let Ok(v) = &reply {
                if let Some(adm) = v.get("admission") {
                    let n = |k: &str| adm.get(k).and_then(Value::as_u64).unwrap_or(0);
                    eprintln!(
                        "admission: accepted {} rejected {} | in-flight {} queue_depth {} | \
                         pipelined {} batched {}",
                        n("accepted"),
                        n("rejected"),
                        n("in_flight"),
                        n("queue_depth"),
                        n("pipelined"),
                        n("batched"),
                    );
                }
                // Per-shard eviction totals for both caches, so a hot shard
                // stands out without JSON spelunking.
                for cache in ["registry", "catalog"] {
                    if let Some(shards) = v.get(cache).and_then(|c| c.get("shards")) {
                        let evs: Vec<String> = shards
                            .as_arr()
                            .unwrap_or(&[])
                            .iter()
                            .map(|s| {
                                s.get("evictions").and_then(Value::as_u64).unwrap_or(0).to_string()
                            })
                            .collect();
                        eprintln!("{cache} evictions by shard: [{}]", evs.join(","));
                    }
                }
            }
            ok &= print_reply(reply);
        }
        Some("shutdown") => ok &= print_reply(client.shutdown()),
        Some("raw") => {
            for line in &rest[1..] {
                ok &= print_reply(client.request_raw(line).and_then(Client::interpret));
            }
        }
        Some("script") => {
            for line in std::io::stdin().lock().lines() {
                let line = line.unwrap_or_else(|e| die(&format!("stdin: {e}")));
                if line.trim().is_empty() {
                    continue;
                }
                ok &= print_reply(client.request_raw(&line).and_then(Client::interpret));
            }
        }
        _ => die("missing command (try --help)"),
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Renders a `trace` reply's span tree on stderr and validates it: every
/// span must have positive duration, spans must be monotonic (each child
/// starts no earlier than its predecessor and stays inside its parent), and
/// the root's phase durations must sum to within 10% of the latency the
/// server recorded in its request histogram. Returns false on violation.
fn validate_trace(reply: &Value) -> bool {
    let Some(trace) = reply.get("trace") else {
        eprintln!("trace: reply carries no trace object");
        return false;
    };
    let spans = trace.get("spans").and_then(Value::as_arr).unwrap_or(&[]);
    let mut ok = true;

    fn walk(span: &Value, depth: usize, bound: &mut (f64, f64), ok: &mut bool) {
        let name = span.get("name").and_then(Value::as_str).unwrap_or("?");
        let start = span.get("start_us").and_then(Value::as_f64).unwrap_or(-1.0);
        let dur = span.get("dur_us").and_then(Value::as_f64).unwrap_or(0.0);
        let attrs = match span.get("attrs") {
            Some(Value::Obj(pairs)) => {
                pairs.iter().map(|(k, v)| format!(" {k}={v}")).collect::<String>()
            }
            _ => String::new(),
        };
        eprintln!("{:indent$}{name} {dur:.1}µs{attrs}", "", indent = depth * 2);
        if dur <= 0.0 {
            eprintln!("trace: span `{name}` has non-positive duration");
            *ok = false;
        }
        // Monotonic within the parent: starts after the previous sibling
        // started, ends inside the parent (1µs slack for rounding).
        if start < bound.0 || start + dur > bound.1 + 1.0 {
            eprintln!("trace: span `{name}` escapes its parent window");
            *ok = false;
        }
        bound.0 = start;
        let mut inner = (start, start + dur);
        for kid in span.get("children").and_then(Value::as_arr).unwrap_or(&[]) {
            walk(kid, depth + 1, &mut inner, ok);
        }
    }
    let mut window = (0.0, f64::INFINITY);
    for span in spans {
        walk(span, 0, &mut window, &mut ok);
    }

    let total = trace.get("server_latency_us").and_then(Value::as_f64).unwrap_or(0.0);
    let phase_sum: f64 = spans
        .first()
        .and_then(|r| r.get("children"))
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| c.get("dur_us").and_then(Value::as_f64))
        .sum();
    if total <= 0.0 || (phase_sum - total).abs() > total * 0.10 {
        eprintln!(
            "trace: phase durations sum to {phase_sum:.1}µs but the server recorded \
             {total:.1}µs (>10% apart)"
        );
        ok = false;
    } else {
        eprintln!("trace: phases {phase_sum:.1}µs of {total:.1}µs recorded — consistent");
    }
    ok
}

/// Prints the reply (or the error reply) as one JSON line; returns success.
fn print_reply(reply: Result<Value, ecrpq_server::ServerError>) -> bool {
    match reply {
        Ok(v) => {
            println!("{v}");
            true
        }
        Err(e) => {
            println!("{}", Value::obj([("ok", Value::Bool(false)), ("error", Value::str(e.0))]));
            false
        }
    }
}

fn two<'a>(rest: &'a [String], usage: &str) -> (&'a str, &'a str) {
    match rest {
        [_, a, b] => (a, b),
        _ => die(usage),
    }
}

/// Parses `<graph>` followed by one or more `<from> <label> <to>` groups.
fn triples<'a>(rest: &'a [String], usage: &str) -> (&'a str, Vec<(&'a str, &'a str, &'a str)>) {
    if rest.len() < 5 || !(rest.len() - 2).is_multiple_of(3) {
        die(usage);
    }
    let edges =
        rest[2..].chunks(3).map(|c| (c[0].as_str(), c[1].as_str(), c[2].as_str())).collect();
    (rest[1].as_str(), edges)
}

fn three<'a>(rest: &'a [String], usage: &str) -> [&'a String; 3] {
    match rest {
        [_, a, b, c] => [a, b, c],
        _ => die(usage),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("ecrpq-cli: {msg}");
    std::process::exit(2);
}
