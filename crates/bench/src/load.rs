//! The high-concurrency load experiment of the `serve` family: scale-out
//! behaviour of the query service under 64/256/1024 concurrent connections.
//!
//! Three protocol shapes are driven against one in-process [`Server`] whose
//! admission capacity stays fixed while the connection count sweeps past it:
//!
//! * **`load_legacy_*`** — the closed-loop single-request protocol (send one
//!   `run`, wait for its reply). This is the pre-pipelining baseline every
//!   other series is compared against.
//! * **`load_pipe_*`** — an *open-loop* pipelined client: every connection
//!   schedules tagged `run` requests on a fixed timer (offered load is
//!   `OVERDRIVE`× the measured legacy saturation throughput, so the server
//!   — not the client — is the bottleneck) and a separate reader matches
//!   out-of-order replies by their echoed `id`. Latency is measured from the
//!   request's *scheduled* arrival time, not its actual send time, so
//!   queueing delay in a backed-up client counts against the server
//!   (avoiding coordinated omission, the classic closed-loop blind spot).
//! * **`load_batch_*`** — the `batch` op: each round-trip carries
//!   [`LoadConfig::batch`] sub-runs that share one catalog lookup and one
//!   registry resolution. The latency series records whole-batch round-trips;
//!   `persec` is per *sub-request*, which is what the throughput comparison
//!   needs.
//!
//! Per series: `p50`/`p95`/`p99` latency and `persec` (seconds per completed
//! request — the reciprocal of throughput, so lower is better like every
//! other series). The `persec` notes carry saturation throughput,
//! accepted/rejected connection counts, and the speedup over the legacy
//! series measured in the same sweep point.
//!
//! Each phase settles admission before it starts measuring: every
//! connection sends one untagged `stats` probe, learns whether it was
//! admitted or turned away, and parks on a barrier; the wall clock starts
//! when the barrier releases. The measured window therefore contains only
//! serving work (no thread-spawn or connect storm), and admission is exact:
//! `min(conns, workers)` connections hold slots for the whole phase.
//!
//! The family also self-checks the serving layer: every accepted connection
//! must receive *exactly* its quota of replies (zero reply loss, no
//! duplicates), the client-observed rejection count must equal the server's
//! `rejected` admission counter delta, and the accepted count must equal
//! `min(conns, workers)` exactly.

use ecrpq_integration::fig1;
use ecrpq_server::client::Client;
use ecrpq_server::server::{Server, ServerConfig, ServerHandle};
use ecrpq_util::json::{self, Value};
use ecrpq_util::Measurement;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Statement and graph names used by the workload (same as the closed-loop
/// serve family).
const GRAPH: &str = "bench";
const STMT: &str = "q";

/// Stack size for client threads: the 1024-connection sweep spawns thousands
/// of short-lived threads, and default 8 MiB stacks would reserve gigabytes
/// of address space for clients that only format and parse one-line JSON.
const CLIENT_STACK: usize = 256 * 1024;

/// Open-loop offered load as a multiple of the measured legacy saturation
/// throughput. Driving past capacity is the point: `completed / elapsed`
/// then reads the server's saturation throughput rather than the client's
/// pacing, and the latency distribution shows queueing under overload.
const OVERDRIVE: f64 = 3.0;

/// How long a pipelined reader waits for the next reply before declaring
/// reply loss (surfaced as an assertion, never a hang).
const READER_TIMEOUT: Duration = Duration::from_secs(30);

/// One sweep of the load experiment.
pub struct LoadConfig {
    /// Concurrent connection counts to sweep (the measurement `param`).
    pub conns: Vec<usize>,
    /// Server admission capacity (`--workers`); connection counts above it
    /// exercise the rejection path.
    pub workers: usize,
    /// Requests per accepted connection (legacy and pipelined phases; the
    /// batch phase issues `requests / batch` rounds of `batch` sub-runs).
    pub requests: usize,
    /// Graph size (nodes) of the data-complexity workload. Kept small: this
    /// family measures the serving layer, not evaluation.
    pub n: usize,
    /// Sub-requests per `batch` round-trip.
    pub batch: usize,
}

/// What one client connection observed.
struct ConnOutcome {
    /// Sorted later; per-request (legacy/pipe) or per-round-trip (batch).
    latencies: Vec<f64>,
    /// Completed sub-requests (for batch, `rounds * batch`).
    completed: usize,
    /// The connection was turned away at admission.
    rejected: bool,
}

impl ConnOutcome {
    fn rejected() -> ConnOutcome {
        ConnOutcome { latencies: Vec::new(), completed: 0, rejected: true }
    }
}

/// Aggregated outcome of one phase (one protocol shape at one conns point).
struct Phase {
    latencies: Vec<f64>,
    accepted: usize,
    rejected: usize,
    completed: usize,
    elapsed: f64,
}

impl Phase {
    fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed
    }
}

/// Connects and resolves admission with one untagged `stats` probe *before*
/// the phase barrier: `Some(stream)` for an admitted connection (now holding
/// one of the server's admission slots), `None` for one turned away at
/// capacity. Settling admission ahead of the measured window makes the
/// accepted count deterministic — exactly `min(conns, workers)` — and keeps
/// the connect storm's accept-queue churn out of the wall clock.
fn connect_admitted(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect load client");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    if (&stream).write_all(b"{\"op\":\"stats\"}\n").is_err() {
        return None; // server hung up before the probe landed: rejected
    }
    let mut line = String::new();
    match BufReader::new(&stream).read_line(&mut line) {
        Ok(n) if n > 0 => {}
        _ => return None, // EOF or reset: rejected at accept time
    }
    let reply = json::parse(line.trim()).expect("probe reply JSON");
    if reply.get("ok").and_then(Value::as_bool) == Some(true) {
        Some(stream)
    } else {
        assert!(
            reply.get("retry_after_hint").is_some(),
            "probe failed with a non-admission error: {reply}"
        );
        None
    }
}

/// Runs the load family over the configured connection sweep.
pub fn load_family(cfg: &LoadConfig) -> Vec<Measurement> {
    let graph = fig1::data_complexity_graph(cfg.n, 7);
    let query_text = {
        let (_, ecrpq) = fig1::data_queries(&graph);
        ecrpq.to_string()
    };
    let edges = graph.to_edge_list();

    let mut out = Vec::new();
    for &conns in &cfg.conns {
        // A fresh server per sweep point keeps the admission counters and
        // cache statistics attributable to one phase triple.
        let handle = spawn_warm_server(cfg.workers, &edges, &query_text);
        let addr = handle.addr();
        let expected_accepted = conns.min(cfg.workers);

        // Phase 1: legacy closed loop — the baseline saturation throughput.
        let requests = cfg.requests;
        let legacy =
            run_phase(&handle, conns, cfg.workers, move |_, b| legacy_conn(addr, requests, b));
        assert_eq!(
            legacy.completed,
            legacy.accepted * cfg.requests,
            "legacy reply loss at {conns} connections"
        );

        // Phase 2: pipelined open loop, offered at OVERDRIVE× the legacy
        // saturation point spread over the connections that will be admitted.
        let per_conn_rate = OVERDRIVE * legacy.throughput() / expected_accepted as f64;
        let interval = Duration::from_secs_f64(1.0 / per_conn_rate.max(1.0));
        let pipe = run_phase(&handle, conns, cfg.workers, move |_, b| {
            pipe_conn(addr, requests, interval, b)
        });
        assert_eq!(
            pipe.completed,
            pipe.accepted * cfg.requests,
            "pipelined reply loss at {conns} connections"
        );

        // Phase 3: batched closed loop — rounds of `batch` sub-runs.
        let rounds = (cfg.requests / cfg.batch).max(1);
        let batch_size = cfg.batch;
        let batch = run_phase(&handle, conns, cfg.workers, move |_, b| {
            batch_conn(addr, rounds, batch_size, b)
        });
        assert_eq!(
            batch.completed,
            batch.accepted * rounds * cfg.batch,
            "batch reply loss at {conns} connections"
        );

        emit(&mut out, "legacy", conns, &legacy, None, String::new());
        emit(&mut out, "pipe", conns, &pipe, Some(&legacy), format!("offered={OVERDRIVE}x"));
        emit(&mut out, "batch", conns, &batch, Some(&legacy), format!("batch={}", cfg.batch));

        handle.shutdown();
    }
    out
}

/// Spawns the bench server and warms it: after this, every measured request
/// is a registry hit with zero sim-table compilations.
fn spawn_warm_server(workers: usize, edges: &str, query_text: &str) -> ServerHandle {
    let handle =
        Server::spawn(ServerConfig { workers, exec_workers: workers, ..ServerConfig::default() })
            .expect("failed to spawn load server");
    let mut setup = Client::connect(handle.addr()).expect("connect setup client");
    setup.load_edges(GRAPH, edges).expect("load graph");
    setup.prepare_for_graph(STMT, query_text, GRAPH).expect("prepare statement");
    setup.run_in_mode(STMT, GRAPH, "boolean").expect("warmup run");
    let warm = setup.run_in_mode(STMT, GRAPH, "boolean").expect("second warmup run");
    assert_eq!(warm.get("registry").and_then(Value::as_str), Some("hit"));
    setup.close().expect("close setup client");
    handle
}

/// Spawns `conns` client threads running `conn`, joins them, and checks the
/// client-observed rejection count against the server's admission counter.
///
/// Each connection resolves its admission verdict (via the
/// [`connect_admitted`] probe) and then parks on a barrier; the wall clock
/// starts when the barrier releases, so `elapsed` covers serving work only
/// and admission is exact: `min(conns, workers)` connections hold slots for
/// the whole phase, every other connection was turned away before it began.
fn run_phase<F>(handle: &ServerHandle, conns: usize, workers: usize, conn: F) -> Phase
where
    F: Fn(usize, &Barrier) -> ConnOutcome + Send + Sync + 'static,
{
    // Quiesce first: the previous phase's (or the warmup client's) close
    // acks race the serve loop's slot release, so admission slots may still
    // be draining server-side. Every slot must be free before this phase's
    // probes resolve, or the accepted count would come up short.
    while handle.service().stats.active.load(Ordering::SeqCst) != 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let rejected_before = handle.service().stats.rejected.load(Ordering::SeqCst);
    let conn = Arc::new(conn);
    let barrier = Arc::new(Barrier::new(conns + 1));
    let threads: Vec<_> = (0..conns)
        .map(|i| {
            let conn = Arc::clone(&conn);
            let barrier = Arc::clone(&barrier);
            std::thread::Builder::new()
                .stack_size(CLIENT_STACK)
                .spawn(move || conn(i, &barrier))
                .expect("spawn load client thread")
        })
        .collect();
    barrier.wait();
    let wall = Instant::now();
    let outcomes: Vec<ConnOutcome> =
        threads.into_iter().map(|t| t.join().expect("load client panicked")).collect();
    let elapsed = wall.elapsed().as_secs_f64();

    let rejected = outcomes.iter().filter(|o| o.rejected).count();
    let accepted = conns - rejected;
    let completed = outcomes.iter().map(|o| o.completed).sum();
    let mut latencies: Vec<f64> = outcomes.into_iter().flat_map(|o| o.latencies).collect();
    latencies.sort_by(f64::total_cmp);

    // Rejection accounting must be consistent: every client that saw the
    // at-capacity reply is one tick of the server's `rejected` counter.
    let rejected_after = handle.service().stats.rejected.load(Ordering::SeqCst);
    assert_eq!(
        rejected_after - rejected_before,
        rejected as u64,
        "admission accounting mismatch: server counted {} rejections, clients saw {rejected}",
        rejected_after - rejected_before,
    );
    assert_eq!(
        accepted,
        conns.min(workers),
        "admission resolved before the barrier must be exact at {conns} connections"
    );
    Phase { latencies, accepted, rejected, completed, elapsed }
}

/// One closed-loop legacy connection: `requests` sequential `run`s.
fn legacy_conn(addr: SocketAddr, requests: usize, barrier: &Barrier) -> ConnOutcome {
    let Some(stream) = connect_admitted(addr) else {
        barrier.wait();
        return ConnOutcome::rejected();
    };
    let mut client = Client::from_stream(stream).expect("wrap admitted stream");
    barrier.wait();
    let mut latencies = Vec::with_capacity(requests);
    for _ in 0..requests {
        let start = Instant::now();
        let reply =
            client.run_in_mode(STMT, GRAPH, "boolean").expect("legacy run on admitted conn");
        latencies.push(start.elapsed().as_secs_f64());
        debug_assert_eq!(reply.get("registry").and_then(Value::as_str), Some("hit"));
    }
    let _ = client.close();
    ConnOutcome { latencies, completed: requests, rejected: false }
}

/// One closed-loop batch connection: `rounds` round-trips of `batch`
/// sub-runs each. Latency samples are whole round-trips.
fn batch_conn(addr: SocketAddr, rounds: usize, batch: usize, barrier: &Barrier) -> ConnOutcome {
    let Some(stream) = connect_admitted(addr) else {
        barrier.wait();
        return ConnOutcome::rejected();
    };
    let mut client = Client::from_stream(stream).expect("wrap admitted stream");
    barrier.wait();
    let req = Client::batch_runs(STMT, GRAPH, "boolean", batch);
    let mut latencies = Vec::with_capacity(rounds);
    let mut completed = 0;
    for _ in 0..rounds {
        let start = Instant::now();
        let reply = client.request(&req).expect("batch round on admitted conn");
        latencies.push(start.elapsed().as_secs_f64());
        let results = reply.get("results").and_then(Value::as_arr).expect("batch results");
        assert_eq!(results.len(), batch, "short batch reply");
        for r in results {
            assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "batch sub: {r}");
        }
        completed += results.len();
    }
    let _ = client.close();
    ConnOutcome { latencies, completed, rejected: false }
}

/// One open-loop pipelined connection: a writer paces tagged `run`s on the
/// arrival timer (bursting overdue requests in one flush) while a reader
/// matches replies by `id` and timestamps them against the schedule.
fn pipe_conn(
    addr: SocketAddr,
    requests: usize,
    interval: Duration,
    barrier: &Barrier,
) -> ConnOutcome {
    let Some(stream) = connect_admitted(addr) else {
        barrier.wait();
        return ConnOutcome::rejected();
    };
    let read_half = stream.try_clone().expect("clone load stream");
    read_half.set_read_timeout(Some(READER_TIMEOUT)).expect("set reader timeout");
    barrier.wait();
    // The schedule base: request `i` is *due* at `base + i * interval`,
    // whether or not the connection keeps up.
    let base = Instant::now();

    let reader = std::thread::Builder::new()
        .stack_size(CLIENT_STACK)
        .spawn(move || {
            let mut r = BufReader::new(read_half);
            let mut latencies = vec![0.0f64; requests];
            let mut seen = vec![false; requests];
            let mut got = 0usize;
            let mut line = String::new();
            while got < requests {
                line.clear();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break, // EOF, reset, or reader timeout
                    Ok(_) => {}
                }
                let Ok(v) = json::parse(line.trim()) else { break };
                // Admission was settled by the probe, so every line on this
                // connection must be a tagged reply to one of our requests.
                let id = v
                    .get("id")
                    .and_then(Value::as_u64)
                    .unwrap_or_else(|| panic!("untagged reply on admitted connection: {v}"))
                    as usize;
                assert!(id < requests, "stray reply id {id}");
                assert!(!seen[id], "duplicate reply for id {id}");
                assert_eq!(
                    v.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "pipelined run failed: {v}"
                );
                seen[id] = true;
                // Latency from the scheduled arrival, not the actual send:
                // a backed-up writer queue counts as latency.
                let sched = base + interval * id as u32;
                latencies[id] = Instant::now().duration_since(sched).as_secs_f64();
                got += 1;
            }
            (latencies, got)
        })
        .expect("spawn pipe reader");

    let mut w = BufWriter::new(stream);
    for i in 0..requests {
        let due = base + interval * i as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = format!(
            "{{\"id\":{i},\"op\":\"run\",\"name\":\"{STMT}\",\"graph\":\"{GRAPH}\",\
             \"mode\":\"boolean\"}}\n"
        );
        w.write_all(req.as_bytes()).expect("pipelined write on admitted conn");
        // Coalesce: flush only when the next arrival is not already due, so
        // a burst of overdue requests leaves in one syscall.
        if Instant::now() < base + interval * (i + 1) as u32 {
            w.flush().expect("pipelined flush on admitted conn");
        }
    }
    w.flush().expect("pipelined final flush");
    let (latencies, got) = reader.join().expect("pipe reader panicked");
    assert_eq!(got, requests, "pipelined reply loss: {got} of {requests} replies arrived");
    ConnOutcome { latencies, completed: requests, rejected: false }
}

/// Emits the four measurements of one series at one conns point. The
/// `persec` note carries throughput, admission counts, and (for non-legacy
/// series) the speedup over the legacy phase of the same point.
fn emit(
    out: &mut Vec<Measurement>,
    kind: &str,
    conns: usize,
    phase: &Phase,
    legacy: Option<&Phase>,
    extra: String,
) {
    let param = conns as u64;
    for (tag, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
        out.push(Measurement {
            series: format!("load_{kind}_{tag}"),
            param,
            seconds: crate::serve::percentile(&phase.latencies, p),
            note: String::new(),
        });
    }
    let mut note = format!(
        "throughput={:.0} req/s accepted={} rejected={} completed={}",
        phase.throughput(),
        phase.accepted,
        phase.rejected,
        phase.completed,
    );
    if let Some(legacy) = legacy {
        note.push_str(&format!(" speedup={:.2}x", phase.throughput() / legacy.throughput()));
    }
    if !extra.is_empty() {
        note.push(' ');
        note.push_str(&extra);
    }
    out.push(Measurement {
        series: format!("load_{kind}_persec"),
        param,
        seconds: 1.0 / phase.throughput(),
        note,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end sweep: the internal asserts (zero reply loss, no
    /// duplicate ids, rejection accounting) are the real test body.
    #[test]
    fn load_family_smoke() {
        let cfg = LoadConfig { conns: vec![3], workers: 2, requests: 6, n: 30, batch: 3 };
        let m = load_family(&cfg);
        assert_eq!(m.len(), 12, "four series per protocol shape");
        assert!(m.iter().all(|m| m.seconds.is_finite() && m.seconds >= 0.0));
        let persec = m.iter().find(|m| m.series == "load_batch_persec").unwrap();
        assert!(persec.note.contains("batch=3"), "note: {}", persec.note);
        assert!(persec.note.contains("speedup="), "note: {}", persec.note);
        for kind in ["legacy", "pipe", "batch"] {
            assert!(m.iter().any(|x| x.series == format!("load_{kind}_p99")));
        }
    }
}
