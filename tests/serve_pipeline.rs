//! Integration suite for the pipelined serve path: tagged out-of-order
//! completion, interleaved `batch` and single ops, a 256-connection soak
//! with exactly-once delivery checked bit-for-bit against sequential
//! execution, and the protocol error goldens of the pipelining surface.
//!
//! Everything here drives a real in-process [`Server`] over loopback TCP —
//! the same transport `ecrpq-serve` exposes — so the connection loop's
//! dispatch, coalesced flushing, and admission control are all on the path.

use ecrpq_server::client::Client;
use ecrpq_server::server::{Server, ServerConfig, ServerHandle};
use ecrpq_util::json::Value;
use std::time::Duration;

const GRAPH: &str = "ring";
const STMT: &str = "two_hops";

/// Spawns a server with `workers` connection slots, loads a generated graph,
/// prepares one statement, and warms the bound-plan cache so every request
/// the tests issue afterwards is a registry hit.
fn spawn_prepared(workers: usize) -> ServerHandle {
    let handle =
        Server::spawn(ServerConfig { workers, exec_workers: workers, ..ServerConfig::default() })
            .expect("spawn server");
    let mut c = Client::connect(handle.addr()).expect("connect setup");
    c.load_generator(GRAPH, "cycle:8:a").expect("load graph");
    c.prepare_for_graph(STMT, "Ans(x, y) <- (x, p, y), L(p) = a a", GRAPH).expect("prepare");
    c.run_in_mode(STMT, GRAPH, "boolean").expect("warm run");
    c.close().expect("close setup");
    handle
}

/// The canonical boolean `run` request the suite pipelines.
fn run_req() -> Value {
    Value::obj([
        ("op", Value::str("run")),
        ("name", Value::str(STMT)),
        ("graph", Value::str(GRAPH)),
        ("mode", Value::str("boolean")),
    ])
}

/// `reply` with its `id` tag removed — the shape an untagged (sequential)
/// request would have produced, enabling bit-for-bit comparison.
fn strip_id(reply: &Value) -> Value {
    match reply {
        Value::Obj(pairs) => Value::Obj(pairs.iter().filter(|(k, _)| k != "id").cloned().collect()),
        other => other.clone(),
    }
}

#[test]
fn tagged_replies_match_by_id_whatever_their_order() {
    let handle = spawn_prepared(2);
    let mut c = Client::connect(handle.addr()).expect("connect");

    // The sequential ground truth: one untagged run of the same request.
    let expected = c.request(&run_req()).expect("sequential run");

    // A burst of 16 tagged copies — integer and string ids mixed — written
    // without waiting for any reply, then one flush.
    let req = run_req();
    let mut want: Vec<Value> = Vec::new();
    for i in 0..8u64 {
        want.push(Value::int(i));
        want.push(Value::str(format!("tag-{i}")));
    }
    for id in &want {
        c.send(&Client::tagged(&req, id)).expect("send tagged");
    }
    c.flush().expect("flush burst");

    // Replies may arrive in any order; each must carry exactly one of the
    // ids, each id exactly once, and each payload must be bit-identical to
    // the sequential reply once the tag is stripped.
    let mut seen: Vec<Value> = Vec::new();
    for _ in 0..want.len() {
        let reply = c.recv().expect("recv tagged reply");
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "reply: {reply}");
        let id = reply.get("id").expect("tagged reply echoes its id").clone();
        assert!(want.contains(&id), "unknown id in reply: {reply}");
        assert!(!seen.contains(&id), "duplicate reply for id {id}");
        assert_eq!(strip_id(&reply), expected, "tagged reply diverged from sequential run");
        seen.push(id);
    }
    assert_eq!(seen.len(), want.len());

    c.close().expect("close");
    handle.shutdown();
}

#[test]
fn untagged_request_is_an_ordering_barrier() {
    let handle = spawn_prepared(2);
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.request(&run_req()).expect("warm this connection");

    // Eight tagged runs followed by one untagged stats: the untagged
    // request drains all pending tagged work first, so its reply must be
    // the last of the nine on the wire.
    let req = run_req();
    for i in 0..8u64 {
        c.send(&Client::tagged(&req, &Value::int(i))).expect("send tagged");
    }
    c.send(&Value::obj([("op", Value::str("stats"))])).expect("send untagged");
    c.flush().expect("flush");

    let mut replies = Vec::new();
    for _ in 0..9 {
        replies.push(c.recv().expect("recv"));
    }
    let untagged_at =
        replies.iter().position(|r| r.get("id").is_none()).expect("the stats reply carries no id");
    assert_eq!(untagged_at, 8, "untagged barrier reply must arrive after all tagged replies");
    assert!(replies[8].get("admission").is_some(), "barrier reply is the stats reply");

    c.close().expect("close");
    handle.shutdown();
}

#[test]
fn batch_and_singles_interleave_on_one_connection() {
    let handle = spawn_prepared(2);
    let mut c = Client::connect(handle.addr()).expect("connect");
    let expected = c.request(&run_req()).expect("sequential run");

    // A tagged batch of 4 runs, a tagged single run, and an untagged single
    // run, all written in one burst.
    let batch =
        Client::tagged(&Client::batch_runs(STMT, GRAPH, "boolean", 4), &Value::str("the-batch"));
    c.send(&batch).expect("send batch");
    c.send(&Client::tagged(&run_req(), &Value::int(7))).expect("send tagged single");
    c.send(&run_req()).expect("send untagged single");
    c.flush().expect("flush");

    let mut batch_reply = None;
    let mut tagged_reply = None;
    let mut untagged_reply = None;
    for _ in 0..3 {
        let reply = c.recv().expect("recv");
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "reply: {reply}");
        match reply.get("id") {
            Some(Value::Str(s)) if s == "the-batch" => batch_reply = Some(reply),
            Some(v) if v.as_u64() == Some(7) => tagged_reply = Some(reply),
            None => untagged_reply = Some(reply),
            other => panic!("unexpected id {other:?} in {reply}"),
        }
    }
    let batch_reply = batch_reply.expect("batch reply arrived");
    let tagged_reply = tagged_reply.expect("tagged single reply arrived");
    let untagged_reply = untagged_reply.expect("untagged single reply arrived");

    // Every sub-result of the batch and both singles agree bit-for-bit with
    // the sequential run.
    assert_eq!(batch_reply.get("count").and_then(Value::as_u64), Some(4));
    let results = batch_reply.get("results").and_then(Value::as_arr).expect("results");
    for sub in results {
        assert_eq!(sub.get("answer"), expected.get("answer"), "batch sub diverged: {sub}");
        assert_eq!(sub.get("registry"), expected.get("registry"));
    }
    assert_eq!(strip_id(&tagged_reply), expected);
    assert_eq!(untagged_reply, expected);

    c.close().expect("close");
    handle.shutdown();
}

/// 256 connections hammer the server concurrently through the pipelined
/// path; admission capacity is far below the connection count, so clients
/// retry until admitted. Every admitted connection must receive each of its
/// tagged replies exactly once, bit-identical to sequential execution.
#[test]
fn soak_256_connections_exactly_once_bit_identical() {
    const CONNS: usize = 256;
    const REQUESTS: usize = 8;
    let handle = spawn_prepared(32);
    let addr = handle.addr();

    let expected = {
        let mut c = Client::connect(addr).expect("connect reference");
        let e = c.request(&run_req()).expect("sequential reference run");
        c.close().expect("close reference");
        e
    };

    let threads: Vec<_> = (0..CONNS)
        .map(|_| {
            let expected = expected.clone();
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || {
                    // Retry until admitted: the at-capacity reply arrives as
                    // the first (untagged) line, after which the server
                    // hangs up.
                    'attempt: for _ in 0..5000 {
                        let mut c = Client::connect(addr).expect("connect soak");
                        let req = run_req();
                        for i in 0..REQUESTS as u64 {
                            c.send(&Client::tagged(&req, &Value::int(i))).expect("send");
                        }
                        c.flush().expect("flush");
                        let mut seen = [false; REQUESTS];
                        for _ in 0..REQUESTS {
                            let reply = match c.recv() {
                                Ok(r) => r,
                                // The server may close a rejected connection
                                // before all our writes land.
                                Err(_) => {
                                    std::thread::sleep(Duration::from_millis(1));
                                    continue 'attempt;
                                }
                            };
                            match reply.get("id").and_then(Value::as_u64) {
                                Some(id) => {
                                    let id = id as usize;
                                    assert!(id < REQUESTS, "stray id: {reply}");
                                    assert!(!seen[id], "duplicate reply for id {id}");
                                    seen[id] = true;
                                    assert_eq!(
                                        strip_id(&reply),
                                        expected,
                                        "soak reply diverged from sequential execution"
                                    );
                                }
                                None => {
                                    // Admission rejection: untagged, with the
                                    // documented shape.
                                    assert_eq!(
                                        reply.get("ok").and_then(Value::as_bool),
                                        Some(false)
                                    );
                                    assert!(
                                        reply.get("retry_after_hint").is_some(),
                                        "rejection carries retry_after_hint: {reply}"
                                    );
                                    std::thread::sleep(Duration::from_millis(1));
                                    continue 'attempt;
                                }
                            }
                        }
                        assert!(seen.iter().all(|&s| s), "missing replies");
                        let _ = c.close();
                        return;
                    }
                    panic!("connection was never admitted after 5000 attempts");
                })
                .expect("spawn soak thread")
        })
        .collect();
    for t in threads {
        t.join().expect("soak thread panicked");
    }

    // The service served every admitted request; rejections were counted.
    let stats = handle.service().stats.requests.load(std::sync::atomic::Ordering::SeqCst);
    assert!(stats >= (CONNS * REQUESTS) as u64, "at least one full quota per connection");
    handle.shutdown();
}

#[test]
fn protocol_error_goldens() {
    let handle = spawn_prepared(2);
    let mut c = Client::connect(handle.addr()).expect("connect");

    let golden = |c: &mut Client, line: &str, needle: &str| {
        let reply = c.request_raw(line).expect("error replies are still replies");
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false), "reply: {reply}");
        let msg = reply.get("error").and_then(Value::as_str).unwrap_or_default();
        assert!(msg.contains(needle), "error `{msg}` should mention `{needle}`");
        reply
    };

    // Malformed id tags: float, boolean, negative, array.
    let bad = golden(&mut c, r#"{"op":"stats","id":1.5}"#, "`id` must be a string");
    assert!(bad.get("id").is_none(), "malformed ids are not echoed: {bad}");
    golden(&mut c, r#"{"op":"stats","id":true}"#, "`id` must be a string");
    golden(&mut c, r#"{"op":"stats","id":-3}"#, "`id` must be a string");
    golden(&mut c, r#"{"op":"stats","id":[1]}"#, "`id` must be a string");

    // Batch shape errors: missing, empty, and oversized request arrays.
    golden(&mut c, r#"{"op":"batch"}"#, "needs a `requests` array");
    golden(&mut c, r#"{"op":"batch","requests":[]}"#, "must not be empty");
    let oversized = format!(r#"{{"op":"batch","requests":[{}]}}"#, vec!["{}"; 1025].join(","));
    golden(&mut c, &oversized, "batch too large");

    // Lifecycle ops are connection-ordered and must stay untagged.
    golden(&mut c, r#"{"op":"close","id":1}"#, "must not carry an `id` tag");
    golden(&mut c, r#"{"op":"shutdown","id":"s"}"#, "must not carry an `id` tag");

    // The connection survived every error and still serves.
    let ok = c.request(&run_req()).expect("connection still usable");
    assert_eq!(ok.get("ok").and_then(Value::as_bool), Some(true));
    c.close().expect("close");
    handle.shutdown();
}

/// The median of `n` timings of `op`.
fn median_of(n: usize, mut op: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..n)
        .map(|_| {
            let start = std::time::Instant::now();
            op();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[n / 2]
}

/// A message larger than the 8 KB write buffer must leave as one `write` on
/// a `TCP_NODELAY` socket in both directions. Sent as a body plus a separate
/// newline, the newline waits on Nagle's algorithm for the peer's ~40 ms
/// delayed ACK. Medians, so that quick-ACK at connection start or a loaded
/// host cannot flip the verdict.
#[test]
fn messages_over_the_write_buffer_do_not_wait_for_a_delayed_ack() {
    let handle = Server::spawn(ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("spawn server");
    let mut c = Client::connect(handle.addr()).expect("connect");
    c.load_generator("big", "cycle:1000:a").expect("load graph");
    c.prepare_for_graph("one_hop", "Ans(x, y) <- (x, p, y), L(p) = a", "big").expect("prepare");
    let reply_bytes = c.run("one_hop", "big").expect("warm run").to_string().len();
    assert!(reply_bytes > 8 * 1024, "the reply must outgrow the write buffer: {reply_bytes} B");

    let read = median_of(31, || {
        c.run("one_hop", "big").expect("run");
    });
    assert!(read < Duration::from_millis(20), "median > 8 KB reply took {read:?}");

    let edges: String = (0..1000).map(|i| format!("n{i} a n{}\n", i + 1)).collect();
    assert!(edges.len() > 8 * 1024, "the request must outgrow the write buffer");
    let load = median_of(31, || {
        c.load_edges("inline", &edges).expect("load inline edges");
    });
    assert!(load < Duration::from_millis(20), "median > 8 KB request took {load:?}");
    c.close().expect("close");
    handle.shutdown();
}
