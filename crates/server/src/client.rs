//! A small blocking client for the line-delimited protocol.
//!
//! One [`Client`] owns one TCP connection. [`Client::request`] sends any
//! JSON value as a line and reads the reply line; convenience wrappers cover
//! the protocol ops and turn `ok: false` replies into [`ServerError`]s. The
//! `ecrpq-cli` binary, the `server_roundtrip` example, and the benchmark
//! harness's `serve` workload all drive this type.
//!
//! **Pipelining.** [`Client::send`] writes a request without waiting for
//! its reply (tag it via [`Client::tagged`] to allow out-of-order
//! completion); [`Client::flush`] pushes the burst out and [`Client::recv`]
//! reads the next reply off the wire. The caller matches tagged replies to
//! requests by their echoed `id`. **Batching.**
//! [`Client::batch_runs`] wraps N runs of one statement into a single
//! `batch` request.
//!
//! **Framing.** The socket has `TCP_NODELAY` set, and every request line,
//! newline included, goes to the write buffer in one `write_all`: a request
//! larger than the buffer leaves in one `write` instead of a body plus a
//! 1-byte segment that Nagle's algorithm holds for the server's delayed ACK.

use crate::ServerError;
use ecrpq_util::json::{self, Value};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServerError> {
        let stream = TcpStream::connect(addr).map_err(ServerError::msg)?;
        Client::from_stream(stream)
    }

    /// Wraps an already-connected stream — for callers that resolve
    /// admission (or tunnel the connection) themselves before handing the
    /// socket to the protocol client. No bytes may be in flight.
    pub fn from_stream(stream: TcpStream) -> Result<Client, ServerError> {
        stream.set_nodelay(true).map_err(ServerError::msg)?;
        let read_half = stream.try_clone().map_err(ServerError::msg)?;
        Ok(Client { reader: BufReader::new(read_half), writer: BufWriter::new(stream) })
    }

    /// Sends one request value and reads the reply. Transport errors and
    /// `ok: false` replies both surface as `Err`; use
    /// [`request_raw`](Self::request_raw) to inspect error replies.
    pub fn request(&mut self, req: &Value) -> Result<Value, ServerError> {
        let reply = self.request_raw(&req.to_string())?;
        Client::interpret(reply)
    }

    /// Interprets a reply value: passes `ok: true` replies through and turns
    /// `ok: false` into the carried [`ServerError`]. This is the one place
    /// the reply contract is decoded; `ecrpq-cli`'s raw/script modes reuse
    /// it for their exit-status contract.
    pub fn interpret(reply: Value) -> Result<Value, ServerError> {
        match reply.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(reply),
            _ => {
                let msg = reply
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("server replied ok=false")
                    .to_string();
                Err(ServerError(msg))
            }
        }
    }

    /// Sends one raw request line and parses the reply line (without
    /// interpreting `ok`).
    pub fn request_raw(&mut self, line: &str) -> Result<Value, ServerError> {
        self.write_line(line.trim_end().to_string())?;
        self.flush()?;
        self.recv()
    }

    /// Appends the newline and hands the whole line to the writer at once.
    fn write_line(&mut self, mut line: String) -> Result<(), ServerError> {
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(ServerError::msg)
    }

    /// Writes one request without flushing or waiting for its reply — the
    /// pipelined send half. Pair with [`flush`](Self::flush) to end the
    /// burst and [`recv`](Self::recv) to collect replies (tag requests with
    /// [`tagged`](Self::tagged) so out-of-order completions stay
    /// matchable).
    pub fn send(&mut self, req: &Value) -> Result<(), ServerError> {
        self.write_line(req.to_string())
    }

    /// Flushes buffered pipelined requests to the server. Requests enter the
    /// 8 KB write buffer whole, so a burst that fits leaves in one `write`
    /// and a larger one in several, each ending on a line boundary.
    pub fn flush(&mut self) -> Result<(), ServerError> {
        self.writer.flush().map_err(ServerError::msg)
    }

    /// Reads the next reply line off the wire (whatever request it answers)
    /// without interpreting `ok`.
    pub fn recv(&mut self) -> Result<Value, ServerError> {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(ServerError::msg)?;
        if n == 0 {
            return Err(ServerError("server closed the connection".into()));
        }
        json::parse(reply.trim()).map_err(|e| ServerError(format!("bad reply JSON: {e}")))
    }

    /// A copy of `req` carrying the pipelining `id` tag — the server may
    /// answer tagged requests out of order, echoing the tag in the reply.
    pub fn tagged(req: &Value, id: &Value) -> Value {
        match req {
            Value::Obj(pairs) => {
                let mut pairs = pairs.clone();
                pairs.retain(|(k, _)| k != "id");
                pairs.insert(0, ("id".to_string(), id.clone()));
                Value::Obj(pairs)
            }
            other => other.clone(),
        }
    }

    /// A `batch` request running statement `name` against `graph` `n`
    /// times in the given mode — the throughput shape the `batch` op
    /// amortizes (one catalog and one registry lookup for all `n` runs).
    pub fn batch_runs(name: &str, graph: &str, mode: &str, n: usize) -> Value {
        Value::obj([
            ("op", Value::str("batch")),
            ("name", Value::str(name)),
            ("graph", Value::str(graph)),
            ("mode", Value::str(mode)),
            ("requests", Value::Arr(vec![Value::Obj(Vec::new()); n])),
        ])
    }

    /// `load` from a built-in generator spec (e.g. `cycle:8:a`).
    pub fn load_generator(&mut self, graph: &str, spec: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("load")),
            ("graph", Value::str(graph)),
            ("generator", Value::str(spec)),
        ]))
    }

    /// `load` from inline edge-list text.
    pub fn load_edges(&mut self, graph: &str, edges: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("load")),
            ("graph", Value::str(graph)),
            ("edges", Value::str(edges)),
        ]))
    }

    /// `prepare` a named statement over an explicit label alphabet.
    pub fn prepare(
        &mut self,
        name: &str,
        query: &str,
        alphabet: &[&str],
    ) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("prepare")),
            ("name", Value::str(name)),
            ("query", Value::str(query)),
            ("alphabet", Value::Arr(alphabet.iter().map(|&l| Value::str(l)).collect())),
        ]))
    }

    /// `prepare` a named statement using a cataloged graph's alphabet.
    pub fn prepare_for_graph(
        &mut self,
        name: &str,
        query: &str,
        graph: &str,
    ) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("prepare")),
            ("name", Value::str(name)),
            ("query", Value::str(query)),
            ("graph", Value::str(graph)),
        ]))
    }

    /// `run` a prepared statement against a cataloged graph (node mode).
    pub fn run(&mut self, name: &str, graph: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("run")),
            ("name", Value::str(name)),
            ("graph", Value::str(graph)),
        ]))
    }

    /// `run` with an explicit mode (`nodes`, `boolean`, or `paths`).
    pub fn run_in_mode(
        &mut self,
        name: &str,
        graph: &str,
        mode: &str,
    ) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("run")),
            ("name", Value::str(name)),
            ("graph", Value::str(graph)),
            ("mode", Value::str(mode)),
        ]))
    }

    /// `explain` a prepared statement against a cataloged graph: plans the
    /// query without enumerating answers and returns the planner's join
    /// order, per-atom BFS directions/pins, and estimated vs actual atom
    /// cardinalities (plus a rendered `text` field).
    pub fn explain(&mut self, name: &str, graph: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("explain")),
            ("name", Value::str(name)),
            ("graph", Value::str(graph)),
        ]))
    }

    /// `save` a cataloged graph as a binary snapshot at `path` (plus its
    /// `path.art` statement sidecar).
    pub fn save(&mut self, graph: &str, path: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("save")),
            ("graph", Value::str(graph)),
            ("path", Value::str(path)),
        ]))
    }

    /// `open` a snapshot file under a fresh catalog name, re-preparing and
    /// warming any sidecar statements.
    pub fn open(&mut self, name: &str, path: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("open")),
            ("name", Value::str(name)),
            ("path", Value::str(path)),
        ]))
    }

    /// `add_edges` — apply `(from, label, to)` triples to a cataloged
    /// graph's live overlay. Unknown node names and labels are created.
    pub fn add_edges(
        &mut self,
        graph: &str,
        edges: &[(&str, &str, &str)],
    ) -> Result<Value, ServerError> {
        self.mutate("add_edges", graph, edges)
    }

    /// `remove_edges` — remove `(from, label, to)` triples through the live
    /// overlay. Triples that name unknown nodes/labels/edges are counted
    /// under `missing` in the reply, not errors.
    pub fn remove_edges(
        &mut self,
        graph: &str,
        edges: &[(&str, &str, &str)],
    ) -> Result<Value, ServerError> {
        self.mutate("remove_edges", graph, edges)
    }

    fn mutate(
        &mut self,
        op: &str,
        graph: &str,
        edges: &[(&str, &str, &str)],
    ) -> Result<Value, ServerError> {
        let rows: Vec<Value> = edges
            .iter()
            .map(|(f, l, t)| Value::Arr(vec![Value::str(*f), Value::str(*l), Value::str(*t)]))
            .collect();
        self.request(&Value::obj([
            ("op", Value::str(op)),
            ("graph", Value::str(graph)),
            ("edges", Value::Arr(rows)),
        ]))
    }

    /// `trace` a prepared statement: runs it like
    /// [`run_in_mode`](Self::run_in_mode) but the reply additionally carries
    /// `trace.spans` (the phase span tree, start/duration in microseconds)
    /// and `trace.server_latency_us` (the latency the server recorded for
    /// this request in its own histogram).
    pub fn trace(&mut self, name: &str, graph: &str, mode: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([
            ("op", Value::str("trace")),
            ("name", Value::str(name)),
            ("graph", Value::str(graph)),
            ("mode", Value::str(mode)),
        ]))
    }

    /// `metrics` — `format` is `"text"` (Prometheus exposition under a
    /// `text` field) or `"json"` (structured families under `metrics`).
    pub fn metrics(&mut self, format: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([("op", Value::str("metrics")), ("format", Value::str(format))]))
    }

    /// `slowlog` — newest-first entries from the server's slow-query ring
    /// buffer (empty unless the server runs with `--slow-query-ms`).
    pub fn slowlog(&mut self, limit: Option<u64>) -> Result<Value, ServerError> {
        let mut pairs = vec![("op".to_string(), Value::str("slowlog"))];
        if let Some(n) = limit {
            pairs.push(("limit".to_string(), Value::int(n)));
        }
        self.request(&Value::Obj(pairs))
    }

    /// `stats`.
    pub fn stats(&mut self) -> Result<Value, ServerError> {
        self.request(&Value::obj([("op", Value::str("stats"))]))
    }

    /// `stats` including per-label statistics of one cataloged graph.
    pub fn stats_graph(&mut self, graph: &str) -> Result<Value, ServerError> {
        self.request(&Value::obj([("op", Value::str("stats")), ("graph", Value::str(graph))]))
    }

    /// `close` this connection (the server acknowledges, then hangs up).
    pub fn close(&mut self) -> Result<Value, ServerError> {
        self.request(&Value::obj([("op", Value::str("close"))]))
    }

    /// `shutdown` the whole server.
    pub fn shutdown(&mut self) -> Result<Value, ServerError> {
        self.request(&Value::obj([("op", Value::str("shutdown"))]))
    }
}
