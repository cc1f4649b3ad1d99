//! The thread-pooled TCP transport: accept loop, per-connection protocol
//! driver with pipelining, and graceful shutdown.
//!
//! One listener thread accepts connections and hands each to the
//! *connection* pool; the owning worker reads request lines until the
//! client disconnects, sends `close`, or sends `shutdown`. Untagged
//! requests are dispatched inline (strict in-order replies, as ever);
//! requests carrying an `id` tag are handed to the shared *pipeline* pool
//! and their replies are written as they complete — out of order when the
//! work finishes out of order. Replies are coalesced: the writer flushes
//! once per burst (when no tagged work is pending and no further complete
//! request line is already buffered), not once per reply.
//!
//! Framing: every accepted socket has `TCP_NODELAY` set, and every reply
//! line, newline included, goes to the writer in one `write_all`. A reply
//! smaller than the write buffer coalesces with its burst; a larger one
//! bypasses the buffer and leaves in one `write`, so no trailing segment
//! waits on Nagle's algorithm for the peer's delayed ACK. Request lines are
//! read as bytes and decoded once complete: a line split by a read timeout
//! loses nothing, and one that is not UTF-8 gets an `ok:false` reply.
//!
//! Shutdown (from a request or from [`ServerHandle::shutdown`]) flips a
//! flag and pokes the listener with a loopback connection so `accept`
//! wakes up, then joins the listener and drains both pools.

use crate::pool::ThreadPool;
use crate::protocol::{self, Control, Service};
use crate::ServerError;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is
    /// reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads (each owns one live connection at a time). Defaults to
    /// the machine's available parallelism, at least 4.
    pub workers: usize,
    /// Threads in the shared pipeline pool executing tagged (pipelined)
    /// requests from every connection. Defaults to `workers`.
    pub exec_workers: usize,
    /// Bound on the registry's cached `(statement, graph)` plans.
    pub bound_capacity: usize,
    /// Log requests slower than this many milliseconds to the slow-query
    /// ring buffer (read back via the `slowlog` op). 0 disables the log.
    pub slow_query_ms: u64,
    /// When set, bind a plain-TCP exposition endpoint on this address: each
    /// connection receives the metrics registry in Prometheus text format
    /// and is closed — scrapeable with `nc`, no HTTP or JSON parsing
    /// needed. Port 0 picks an ephemeral port (reported by
    /// [`ServerHandle::metrics_addr`]).
    pub metrics_addr: Option<String>,
    /// Per-connection cap on dispatched-but-unwritten tagged replies (the
    /// reply send-queue). A connection that keeps pipelining past this —
    /// typically because its reader has stalled and replies cannot drain —
    /// gets one structured error reply and is closed, instead of buffering
    /// replies without bound. Clamped to at least 1.
    pub send_queue_cap: usize,
    /// Socket write timeout in milliseconds. A reply write blocked longer
    /// than this (a reader stalled with full kernel buffers) fails the
    /// connection instead of pinning a pipeline worker indefinitely.
    /// 0 disables the timeout.
    pub write_timeout_ms: u64,
    /// Live-overlay merge threshold: after this many pending overlay edge
    /// operations on a graph, a mutation op merges the overlay into a fresh
    /// sealed epoch (see the `add_edges`/`remove_edges` protocol ops).
    pub merge_threshold: usize,
}

/// Default [`ServerConfig::send_queue_cap`]: deep enough for any sane
/// pipelining burst, small enough that a stalled reader cannot pin
/// unbounded reply memory.
pub const DEFAULT_SEND_QUEUE_CAP: usize = 256;

/// Default [`ServerConfig::write_timeout_ms`].
pub const DEFAULT_WRITE_TIMEOUT_MS: u64 = 5_000;

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).max(4);
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            exec_workers: workers,
            bound_capacity: crate::registry::DEFAULT_BOUND_CAPACITY,
            slow_query_ms: 0,
            metrics_addr: None,
            send_queue_cap: DEFAULT_SEND_QUEUE_CAP,
            write_timeout_ms: DEFAULT_WRITE_TIMEOUT_MS,
            merge_threshold: ecrpq_graph::delta::DEFAULT_MERGE_THRESHOLD,
        }
    }
}

/// The `retry_after_hint` (milliseconds) carried by admission-rejection
/// replies: how long a rejected client should wait before reconnecting.
/// Connection slots free up when a conversation ends, so the hint is a
/// coarse backoff, not a reservation.
pub const RETRY_AFTER_HINT_MS: u64 = 100;

/// The running server. Construct with [`Server::spawn`].
pub struct Server;

/// A handle to a running server: its bound address and the shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    listener_thread: Mutex<Option<JoinHandle<()>>>,
    metrics_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Binds the listener, spawns the accept thread and worker pool, and
    /// returns immediately. The server runs until
    /// [`ServerHandle::shutdown`] or a client's `shutdown` request.
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(
            Service::new(config.bound_capacity)
                .with_slow_query_ms(config.slow_query_ms)
                .with_merge_threshold(config.merge_threshold),
        );
        let stop = Arc::new(AtomicBool::new(false));

        // The optional exposition endpoint: a polling accept loop that
        // writes the rendered registry and closes, one scrape per
        // connection. It notices the stop flag within one poll interval.
        let mut metrics_addr = None;
        let mut metrics_thread = None;
        if let Some(maddr) = &config.metrics_addr {
            let mlistener = TcpListener::bind(maddr)?;
            metrics_addr = Some(mlistener.local_addr()?);
            mlistener.set_nonblocking(true)?;
            let mservice = Arc::clone(&service);
            let mstop = Arc::clone(&stop);
            metrics_thread =
                Some(std::thread::Builder::new().name("ecrpq-metrics".to_string()).spawn(
                    move || loop {
                        match mlistener.accept() {
                            Ok((mut scrape, _)) => {
                                let body = mservice.render_metrics();
                                let _ = scrape.write_all(body.as_bytes());
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                if mstop.load(Ordering::SeqCst) {
                                    break;
                                }
                                std::thread::sleep(IDLE_POLL);
                            }
                            Err(_) => break,
                        }
                        if mstop.load(Ordering::SeqCst) {
                            break;
                        }
                    },
                )?);
        }

        let accept_service = Arc::clone(&service);
        let accept_stop = Arc::clone(&stop);
        let workers = config.workers.max(1);
        let exec_workers = config.exec_workers.max(1);
        let send_queue_cap = config.send_queue_cap.max(1);
        let write_timeout = match config.write_timeout_ms {
            0 => None,
            ms => Some(std::time::Duration::from_millis(ms)),
        };
        let listener_thread =
            std::thread::Builder::new().name("ecrpq-accept".to_string()).spawn(move || {
                let pool = ThreadPool::new(workers);
                // The shared pipeline pool runs tagged requests from every
                // connection; its queue depth is the service's backpressure
                // gauge.
                let exec = Arc::new(ThreadPool::with_queue_gauge(
                    exec_workers,
                    Arc::clone(&accept_service.stats.queue_depth),
                ));
                // Live connections (the `stats.active` gauge). Each occupies
                // one worker for its whole lifetime, so admission is bounded
                // by the pool size: an over-capacity connection gets an
                // explicit error reply and is closed instead of queueing
                // behind a worker that may never free up.
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    let active = &accept_service.stats.active;
                    if active.fetch_add(1, Ordering::SeqCst) >= workers as u64 {
                        active.fetch_sub(1, Ordering::SeqCst);
                        accept_service.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        let reply = format!(
                            "{{\"ok\":false,\"error\":\"server at capacity \
                             ({workers} workers busy); retry later\",\
                             \"retry_after_hint\":{RETRY_AFTER_HINT_MS}}}\n"
                        );
                        let _ = stream.write_all(reply.as_bytes());
                        continue; // dropping the stream closes it
                    }
                    accept_service.stats.connections.fetch_add(1, Ordering::Relaxed);
                    let service = Arc::clone(&accept_service);
                    let stop = Arc::clone(&accept_stop);
                    let exec = Arc::clone(&exec);
                    let served = pool.execute(move || {
                        let control = serve_connection(
                            &service,
                            stream,
                            &stop,
                            &exec,
                            send_queue_cap,
                            write_timeout,
                        );
                        service.stats.active.fetch_sub(1, Ordering::SeqCst);
                        if let Control::Shutdown = control {
                            request_stop(&stop, addr);
                        }
                    });
                    if !served {
                        break;
                    }
                }
                // Joining the pools here lets in-flight connections finish
                // their current requests before shutdown completes (idle
                // connections notice the stop flag within one read timeout).
                pool.shutdown();
                exec.shutdown();
            })?;

        Ok(ServerHandle {
            addr,
            metrics_addr,
            service,
            stop,
            listener_thread: Mutex::new(Some(listener_thread)),
            metrics_thread: Mutex::new(metrics_thread),
        })
    }
}

impl ServerHandle {
    /// The bound socket address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound exposition-endpoint address, when
    /// [`ServerConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shared service (catalog + registry + counters) — useful for
    /// in-process inspection in tests and benchmarks.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Requests shutdown and waits for the listener and workers to drain.
    /// Idempotent; also called on drop.
    pub fn shutdown(&self) {
        request_stop(&self.stop, self.addr);
        if let Some(t) = self.listener_thread.lock().unwrap().take() {
            let _ = t.join();
        }
        if let Some(t) = self.metrics_thread.lock().unwrap().take() {
            let _ = t.join();
        }
    }

    /// Blocks until the server stops on its own (a client's `shutdown`
    /// request), without requesting a stop itself. `ecrpq-serve` parks its
    /// main thread here.
    pub fn shutdown_wait(&self) {
        if let Some(t) = self.listener_thread.lock().unwrap().take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Flips the stop flag and unblocks the accept loop with a loopback
/// connection (the listener checks the flag after every `accept`).
fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    if stop.swap(true, Ordering::SeqCst) {
        return; // already stopping
    }
    let _ = TcpStream::connect(addr);
}

/// How often an idle connection polls the stop flag. Reads run with this
/// timeout so a server shutdown interrupts parked workers instead of
/// waiting for every client to hang up.
const IDLE_POLL: std::time::Duration = std::time::Duration::from_millis(200);

/// Per-connection state shared between the owning connection worker and
/// the pipeline-pool jobs completing its tagged requests. The writer is the
/// single reply channel; `pending` counts dispatched-but-unwritten tagged
/// replies (the flush-coalescing trigger); `failed` latches any write error
/// so the connection worker stops reading.
struct ConnShared {
    writer: Mutex<BufWriter<TcpStream>>,
    pending: AtomicUsize,
    failed: AtomicBool,
}

impl ConnShared {
    /// Writes one tagged reply and decrements `pending` — both under the
    /// writer lock, so the pending==0 check and the flush it triggers are
    /// atomic against concurrent completions. The flush-on-last-pending rule
    /// is what coalesces a burst of pipelined replies into one syscall.
    fn finish_tagged(&self, mut reply: String) {
        reply.push('\n');
        let mut w = self.writer.lock().unwrap();
        let mut ok = w.write_all(reply.as_bytes()).is_ok();
        let remaining = self.pending.fetch_sub(1, Ordering::SeqCst) - 1;
        if ok && remaining == 0 {
            ok = w.flush().is_ok();
        }
        if !ok {
            self.failed.store(true, Ordering::SeqCst);
        }
    }

    /// Writes one in-order reply, flushing only when `flush` says the burst
    /// is over. Returns false on write failure.
    fn write_ordered(&self, mut reply: String, flush: bool) -> bool {
        reply.push('\n');
        let mut w = self.writer.lock().unwrap();
        let ok = w.write_all(reply.as_bytes()).is_ok() && (!flush || w.flush().is_ok());
        if !ok {
            self.failed.store(true, Ordering::SeqCst);
        }
        ok
    }

    /// Waits until every dispatched tagged reply has been written — the
    /// ordering barrier an untagged request (or connection teardown) needs
    /// before proceeding. Tagged jobs always finish (evaluation is finite
    /// and `finish_tagged` decrements unconditionally), so this terminates.
    fn drain(&self) {
        while self.pending.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
}

/// Drives one connection until EOF, a `close`/`shutdown` request, or server
/// shutdown. Each line is parsed once; tagged requests go to the pipeline
/// pool (replies written as they complete), untagged requests run inline
/// after a barrier on all in-flight tagged work — preserving the strict
/// in-order semantics untagged traffic always had, and making an untagged
/// request an explicit synchronization point in a pipelined stream.
/// Returns the final control decision.
fn serve_connection(
    service: &Arc<Service>,
    stream: TcpStream,
    stop: &AtomicBool,
    exec: &Arc<ThreadPool>,
    send_queue_cap: usize,
    write_timeout: Option<std::time::Duration>,
) -> Control {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(write_timeout);
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return Control::Close };
    let mut reader = BufReader::new(read_half);
    let shared = Arc::new(ConnShared {
        writer: Mutex::new(BufWriter::new(stream)),
        pending: AtomicUsize::new(0),
        failed: AtomicBool::new(false),
    });
    let mut line = Vec::new();
    loop {
        line.clear();
        // Read one full line as bytes; timeouts keep any partial data in
        // `line` (even half a UTF-8 character) and just give the stop flag
        // (and the write-failure latch) a chance to end the connection.
        loop {
            match reader.read_until(b'\n', &mut line) {
                Ok(0) => {
                    // EOF: finish in-flight tagged work so every accepted
                    // request still gets its reply flushed (the client may
                    // only have closed its write half).
                    shared.drain();
                    return Control::Close;
                }
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.load(Ordering::SeqCst) || shared.failed.load(Ordering::SeqCst) {
                        shared.drain();
                        return Control::Close;
                    }
                }
                Err(_) => {
                    shared.drain();
                    return Control::Close; // broken pipe
                }
            }
        }
        // Parse once, reading the id tag once: it decides the dispatch path.
        let parsed = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => protocol::parse_request(text),
            Err(e) => Err(ServerError(format!("request line is not UTF-8: {e}"))),
        };
        let (req, id) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                // The rejection is an untagged reply: it waits for in-flight
                // tagged work like any untagged request.
                shared.drain();
                let reply = service.reject_line(&e.0);
                if !shared.write_ordered(reply, !has_buffered_line(&reader)) {
                    return Control::Close;
                }
                continue;
            }
        };
        if let Some(id) = id {
            // Bound the reply send-queue before admitting more tagged work:
            // a reader that stalls (or pipelines far past any sane depth)
            // would otherwise buffer replies without bound. The connection
            // gets one structured error naming the cap, then closes; the
            // flush itself is bounded by the socket write timeout.
            if shared.pending.load(Ordering::SeqCst) >= send_queue_cap {
                service.stats.reply_overflows.fetch_add(1, Ordering::Relaxed);
                let reply = format!(
                    "{{\"ok\":false,\"id\":{id},\"error\":\"reply queue overflow: \
                     {send_queue_cap} tagged replies pending and unread; \
                     read replies or pipeline less deeply\"}}"
                );
                let _ = shared.write_ordered(reply, true);
                shared.drain();
                shared.failed.store(true, Ordering::SeqCst);
                // End with FIN, not RST: half-close the write side and
                // briefly consume whatever the client already sent, so the
                // kernel does not discard the error reply on close because
                // of unread input.
                let _ = reader.get_ref().shutdown(std::net::Shutdown::Write);
                discard_input(&mut reader);
                return Control::Close;
            }
            // Tagged: dispatch concurrently, reply written on completion.
            service.stats.pipelined.fetch_add(1, Ordering::Relaxed);
            shared.pending.fetch_add(1, Ordering::SeqCst);
            let job = Arc::new((req, id));
            let job_service = Arc::clone(service);
            let job_shared = Arc::clone(&shared);
            let job_req = Arc::clone(&job);
            let submitted = exec.execute(move || {
                let (reply, _) = job_service.dispatch_req(&job_req.0, Some(&job_req.1));
                job_shared.finish_tagged(reply);
            });
            if !submitted {
                // Pool already shut down (server stopping): the request was
                // admitted, so answer it inline rather than dropping it.
                let (reply, _) = service.dispatch_req(&job.0, Some(&job.1));
                shared.finish_tagged(reply);
            }
        } else {
            // Untagged: barrier, then strict in-order inline execution.
            // Flush only when the input buffer holds no further complete
            // request — a burst of untagged requests coalesces into one
            // flush too.
            shared.drain();
            let (reply, control) = service.dispatch_req(&req, None);
            let flush = control != Control::Continue || !has_buffered_line(&reader);
            if !shared.write_ordered(reply, flush) {
                return Control::Close;
            }
            if control != Control::Continue {
                return control;
            }
        }
    }
}

/// True if the reader's buffer already holds at least one complete request
/// line — the "burst continues" signal that defers flushing.
fn has_buffered_line(reader: &BufReader<TcpStream>) -> bool {
    reader.buffer().contains(&b'\n')
}

/// Reads and discards in-flight input for up to one second (or until EOF),
/// so a connection being failed can close with FIN and its final error
/// reply survives in the client's receive queue. Bounded: a client that
/// keeps streaming just gets the reset it was headed for anyway.
fn discard_input(reader: &mut BufReader<TcpStream>) {
    use std::io::Read;
    let mut sink = [0u8; 4096];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while std::time::Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use ecrpq_util::json;

    #[test]
    fn spawn_roundtrip_and_graceful_shutdown() {
        let handle = Server::spawn(ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        c.load_generator("g", "cycle:5:a").unwrap();
        c.prepare("q", "Ans(x, y) <- (x, p, y), L(p) = a", &["a"]).unwrap();
        let r = c.run("q", "g").unwrap();
        assert_eq!(r.get("count").and_then(|v| v.as_u64()), Some(5));
        c.close().unwrap();

        // A second connection still sees the cataloged state.
        let mut c2 = Client::connect(handle.addr()).unwrap();
        let r = c2.run("q", "g").unwrap();
        assert_eq!(r.get("registry").and_then(|v| v.as_str()), Some("hit"));
        drop(c2);

        handle.shutdown();
        assert!(handle.is_shutting_down());
        // After shutdown the port stops accepting protocol traffic.
        assert!(
            Client::connect(handle.addr()).and_then(|mut c| c.stats()).is_err(),
            "a drained server must not answer new requests"
        );
    }

    #[test]
    fn over_capacity_connection_gets_an_error_instead_of_hanging() {
        let handle = Server::spawn(ServerConfig { workers: 1, ..ServerConfig::default() }).unwrap();
        // c1 occupies the only worker for its connection lifetime.
        let mut c1 = Client::connect(handle.addr()).unwrap();
        c1.stats().unwrap();
        // c2 must be rejected promptly with an explicit capacity error, not
        // queued behind a worker that may never free up.
        let mut c2 = Client::connect(handle.addr()).unwrap();
        let err = c2.stats().expect_err("over-capacity connection must error");
        assert!(err.0.contains("capacity"), "unexpected error: {err}");
        // Freeing the worker admits the next connection.
        c1.close().unwrap();
        let mut c3 = Client::connect(handle.addr()).unwrap();
        for _ in 0..50 {
            if c3.stats().is_ok() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            c3 = Client::connect(handle.addr()).unwrap();
        }
        c3.stats().expect("freed worker must admit a new connection");
        handle.shutdown();
    }

    #[test]
    fn shutdown_interrupts_idle_connections() {
        let handle = Server::spawn(ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
        // An idle client that never closes must not block graceful shutdown:
        // the owning worker polls the stop flag between read timeouts.
        let mut idle = Client::connect(handle.addr()).unwrap();
        idle.stats().unwrap();
        let start = std::time::Instant::now();
        handle.shutdown();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "shutdown must not wait for idle clients to hang up"
        );
        assert!(idle.stats().is_err(), "the idle connection was closed by shutdown");
    }

    #[test]
    fn four_concurrent_clients_match_in_process_evaluation() {
        let graph = ecrpq_graph::generators::cycle_graph(9, "a");
        let text = "Ans(x, y) <- (x, p, y), L(p) = a a a";
        let query = ecrpq::parse_query(text, graph.alphabet()).unwrap();
        let mut expected: Vec<Vec<String>> =
            ecrpq::eval::eval_nodes(&query, &graph, &ecrpq::EvalConfig::default())
                .unwrap()
                .iter()
                .map(|row| row.iter().map(|&n| graph.node_display(n)).collect())
                .collect();
        expected.sort();

        let handle = Server::spawn(ServerConfig { workers: 6, ..ServerConfig::default() }).unwrap();
        let addr = handle.addr();
        let mut setup = Client::connect(addr).unwrap();
        setup.load_edges("g", &graph.to_edge_list()).unwrap();
        setup.prepare_for_graph("q", text, "g").unwrap();
        setup.close().unwrap();

        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let r = c.run("q", "g").unwrap();
                    let mut rows: Vec<Vec<String>> = r
                        .get("answers")
                        .unwrap()
                        .as_arr()
                        .unwrap()
                        .iter()
                        .map(|row| {
                            row.as_arr()
                                .unwrap()
                                .iter()
                                .map(|v| v.as_str().unwrap().to_string())
                                .collect()
                        })
                        .collect();
                    rows.sort();
                    let _ = c.close();
                    rows
                })
            })
            .collect();
        for c in clients {
            assert_eq!(
                c.join().unwrap(),
                expected,
                "concurrent served answers must match in-process evaluation"
            );
        }
        handle.shutdown();
    }

    /// A client that pipelines tagged requests but never reads its replies
    /// must not buffer unbounded reply memory: the connection fails with a
    /// structured overflow error and a counter tick, and the server keeps
    /// serving well-behaved clients.
    #[test]
    fn stalled_reader_overflows_the_reply_queue_and_fails_fast() {
        let handle = Server::spawn(ServerConfig {
            workers: 2,
            exec_workers: 1,
            send_queue_cap: 4,
            write_timeout_ms: 500,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut setup = Client::connect(handle.addr()).unwrap();
        setup.load_generator("g", "cycle:512:a").unwrap();
        setup.prepare("q", "Ans(x, y) <- (x, p, y), L(p) = a a", &["a"]).unwrap();
        setup.close().unwrap();

        // The stalled reader: one burst of tagged runs, never reading a
        // byte back. Every reply is ~512 rows, so the single pipeline
        // worker falls behind the read loop within a handful of requests
        // and `pending` crosses the cap.
        let mut stalled = TcpStream::connect(handle.addr()).unwrap();
        let mut burst = String::new();
        for i in 0..200 {
            burst.push_str(&format!(
                "{{\"op\":\"run\",\"name\":\"q\",\"graph\":\"g\",\"id\":{i}}}\n"
            ));
        }
        stalled.write_all(burst.as_bytes()).unwrap();

        let stats = &handle.service().stats;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while stats.reply_overflows.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "reply-queue overflow never tripped");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // The structured error reaches the (now reading) client, then EOF:
        // the server closed the connection rather than keep buffering.
        stalled.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut received = String::new();
        use std::io::Read;
        stalled.read_to_string(&mut received).expect("server must close the stalled connection");
        assert!(
            received.contains("reply queue overflow"),
            "no structured overflow error in: …{}",
            &received[received.len().saturating_sub(300)..]
        );

        // The freed slot still admits a well-behaved client, and the stats
        // reply surfaces the overflow count.
        let mut c = Client::connect(handle.addr()).unwrap();
        let st = c.stats().unwrap();
        let overflows =
            st.get("admission").unwrap().get("reply_overflows").unwrap().as_u64().unwrap();
        assert!(overflows >= 1, "stats must surface the overflow: {st:?}");
        c.close().unwrap();
        handle.shutdown();
    }

    /// Reads `n` reply lines off a raw connection.
    fn read_replies(stream: &TcpStream, n: usize) -> Vec<json::Value> {
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(stream);
        (0..n)
            .map(|_| {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).unwrap() > 0, "server closed the connection");
                json::parse(line.trim()).unwrap()
            })
            .collect()
    }

    #[test]
    fn non_utf8_line_gets_an_error_reply_and_the_connection_keeps_serving() {
        let handle = Server::spawn(ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"{\"op\":\"st\xFFats\"}\n{\"op\":\"stats\"}\n").unwrap();
        let replies = read_replies(&raw, 2);
        assert_eq!(replies[0].get("ok").and_then(|v| v.as_bool()), Some(false));
        let err = replies[0].get("error").and_then(|v| v.as_str()).unwrap();
        assert!(err.contains("not UTF-8"), "unexpected error: {err}");
        assert_eq!(replies[1].get("ok").and_then(|v| v.as_bool()), Some(true), "{:?}", replies[1]);
        assert!(replies[1].get("admission").is_some(), "second reply must be stats");
        handle.shutdown();
    }

    #[test]
    fn request_split_inside_a_utf8_character_across_a_read_timeout_loses_nothing() {
        let handle = Server::spawn(ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        // `é` is 0xC3 0xA9; the pause outlasts the server's read timeout.
        raw.write_all(b"{\"op\":\"load\",\"graph\":\"g\",\"edges\":\"caf\xC3").unwrap();
        std::thread::sleep(IDLE_POLL + std::time::Duration::from_millis(100));
        raw.write_all(b"\xA9 a b\\n\"}\n").unwrap();
        raw.write_all(
            b"{\"op\":\"prepare\",\"name\":\"q\",\"query\":\"Ans(x, y) <- (x, p, y), L(p) = a\",\
              \"graph\":\"g\"}\n{\"op\":\"run\",\"name\":\"q\",\"graph\":\"g\"}\n",
        )
        .unwrap();
        let replies = read_replies(&raw, 3);
        for r in &replies {
            assert_eq!(r.get("ok").and_then(|v| v.as_bool()), Some(true), "{r:?}");
        }
        let answers = replies[2].get("answers").and_then(|v| v.as_arr()).unwrap();
        let row = answers[0].as_arr().unwrap();
        assert_eq!(row[0].as_str(), Some("café"));
        handle.shutdown();
    }

    #[test]
    fn shutdown_via_protocol_request() {
        let handle = Server::spawn(ServerConfig { workers: 2, ..ServerConfig::default() }).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        let r = c.shutdown().unwrap();
        assert_eq!(r.get("shutting_down").and_then(|v| v.as_bool()), Some(true));
        // The handle's own shutdown is then a no-op join.
        handle.shutdown();
        assert!(handle.is_shutting_down());
    }
}
