//! Request decoding: the op table, the strict field accessors, and the one
//! dispatch match that decodes each op's arguments for its handler.

use super::query::BatchCache;
use super::*;

/// Parses one request line into its object and its validated `id` tag,
/// which is taken out of the object. A tag is a string or a non-negative
/// integer; anything else (float, bool, object, array, null) is a protocol
/// error — a tag the client cannot reliably match replies by must be
/// rejected loudly, not echoed approximately.
pub fn parse_request(line: &str) -> Result<(Value, Option<Value>), ServerError> {
    let mut req =
        json::parse(line.trim()).map_err(|e| ServerError(format!("bad request JSON: {e}")))?;
    let Value::Obj(pairs) = &mut req else { return Ok((req, None)) };
    let Some(at) = pairs.iter().position(|(k, _)| k == "id") else { return Ok((req, None)) };
    match &pairs[at].1 {
        Value::Str(_) => {}
        id @ Value::Num(_) if id.as_u64().is_some() => {}
        other => {
            return Err(ServerError(format!(
                "`id` must be a string or non-negative integer, got {other}"
            )))
        }
    }
    let id = pairs.remove(at).1;
    Ok((req, Some(id)))
}

/// The op table: every op's wire name. A request's `op` is looked up here
/// once; [`Op::name`] reads the name back for metric labels and the
/// slow-query log.
///
/// | op | request fields | reply fields |
/// |----|----------------|--------------|
/// | `load` | `graph`, plus one of `edges` (inline edge-list text), `path` (edge-list file), `json` (inline `{"edges": …}`), `json_path`, `generator` (e.g. `cycle:8:a`) | `graph`, `nodes`, `edges` |
/// | `add_edges` | `graph`, plus `edges` (array of `[from, label, to]` string triples) and/or `text` (edge-list lines); optional `merge_threshold` (honored when the overlay is created) | applies the batch to the graph's live overlay: `added`, `removed`, `missing`, `nodes`, `edges`, `pending`, `version`, `merged` (true when the batch crossed the merge threshold and a fresh epoch was published), `merges`, `maintained` (statements kept incrementally up to date) |
/// | `remove_edges` | like `add_edges` | removes *every* live instance of each triple (reply fields as `add_edges`; a triple matching nothing counts as `missing`) |
/// | `prepare` | `name`, `query`, plus `alphabet` (label array) or `graph` (use its alphabet) | `name`, `node_vars`, `path_vars` |
/// | `run` | `name`, `graph`, optional `mode` (`nodes`\|`boolean`\|`paths`), `limit` | `registry` (`hit`\|`miss`), `answers`/`answer`, `count`, `stats` |
/// | `check` | `name`, `graph`, `nodes` (names), `paths` (alternating `[node, label, node, …]`) | `member` |
/// | `explain` | `name`, `graph` | `planner` (always `cost-based`), `join_order`, `atoms` (per-atom direction/pin/estimated vs actual cardinalities), `stats`, `answers`, `text` (rendered plan) |
/// | `trace` | like `run` (`name` *or* inline `query` text), `graph`, optional `mode`, `limit` | `run`'s fields plus `trace`: a wall-clock span tree (`resolve` → `run` with per-phase engine children → `render`; with `query`, also `parse`/`compile`/`bind`) and `server_latency_us`, the root-span duration also recorded into the request histogram |
/// | `stats` | optional `graph` | `version`, `uptime_s`, catalog/registry/server counters; with `graph`, its `graph_stats` (per-label edge/endpoint counts, degree maxima, sampled reach fraction) |
/// | `metrics` | optional `format` (`text`\|`json`) | `text`: the metrics registry in Prometheus exposition format; `json`: structured families with estimated histogram quantiles |
/// | `slowlog` | optional `limit` | `threshold_ms`, `entries` (ring buffer of requests slower than `--slow-query-ms`, newest first) |
/// | `save` | `graph`, `path` | writes the binary snapshot to `path` and the statement sidecar (names and texts, nothing compiled) to `path.art`; `graph`, `path`, `bytes`, `statements` (persisted), `sidecar_gc` |
/// | `open` | `name`, `path` | opens a snapshot under a *fresh* catalog name; every sidecar statement is re-prepared from its text, bound and compiled before the graph is published, then installed warm; `graph`, `nodes`, `edges`, `statements` (warmed) |
/// | `batch` | `requests` (array of sub-requests, each a `run`/`check`/`explain`/`trace`/`stats` object; `op` defaults to `run`); a sub-request reads any field it omits from the batch object, so batch-level `name`, `graph`, `mode`, `limit` act as defaults | `count`, `results` (one reply object per sub-request, in order; a failing sub yields `ok: false` *inside* `results`, never a batch-level error) |
/// | `close` | — | `closing: true`, then the connection ends |
/// | `shutdown` | — | `shutting_down: true`, then the whole server stops |
///
/// Each field has one type: a string, a non-negative integer (`limit`,
/// `merge_threshold`), or an array of strings (`alphabet`, `nodes`, each
/// `paths` entry). Absent optional fields take their defaults; fields an op
/// does not read are ignored (the retired `threads` and `planner` fields
/// among them). A field an op reads but cannot decode (the wrong type, an
/// unknown `mode` or `format`) gets a structured `ok: false` reply naming
/// the field — never a silent default, never a dropped connection — before
/// the request touches any server state.
pub(crate) const OPS: [(&str, Op); 16] = [
    ("load", Op::Load),
    ("add_edges", Op::AddEdges),
    ("remove_edges", Op::RemoveEdges),
    ("prepare", Op::Prepare),
    ("run", Op::Read(ReadOp::Run)),
    ("check", Op::Read(ReadOp::Check)),
    ("explain", Op::Read(ReadOp::Explain)),
    ("trace", Op::Read(ReadOp::Trace)),
    ("stats", Op::Read(ReadOp::Stats)),
    ("metrics", Op::Metrics),
    ("slowlog", Op::Slowlog),
    ("batch", Op::Batch),
    ("save", Op::Save),
    ("open", Op::Open),
    ("close", Op::Close),
    ("shutdown", Op::Shutdown),
];

/// A protocol op (see [`OPS`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Load,
    AddEdges,
    RemoveEdges,
    Prepare,
    Read(ReadOp),
    Metrics,
    Slowlog,
    Batch,
    Save,
    Open,
    Close,
    Shutdown,
}

/// The read-only ops, the only ones a `batch` may carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadOp {
    Run,
    Check,
    Explain,
    Trace,
    Stats,
}

impl Op {
    /// The op's wire name.
    pub(crate) fn name(self) -> &'static str {
        OPS.iter().find(|(_, op)| *op == self).expect("every op is in the table").0
    }

    pub(crate) fn named(name: &str) -> Option<Op> {
        OPS.iter().find(|(n, _)| *n == name).map(|&(_, op)| op)
    }
}

/// A decoded request: its op, looked up once in the op table, and its
/// fields, read through strict accessors — a present field of the wrong
/// type is an error naming it. A `batch` entry reads any field it lacks
/// from its batch object.
#[derive(Clone, Copy)]
pub(crate) struct Request<'a> {
    pub(crate) op: Op,
    own: &'a [(String, Value)],
    batch: &'a [(String, Value)],
}

impl<'a> Request<'a> {
    pub(crate) fn decode(req: &'a Value) -> Result<Request<'a>, ServerError> {
        let (Value::Obj(own), Some(name)) = (req, req.get("op").and_then(Value::as_str)) else {
            return Err(ServerError("request needs a string `op` field".into()));
        };
        let op = Op::named(name).ok_or_else(|| ServerError(format!("unknown op `{name}`")))?;
        Ok(Request { op, own, batch: &[] })
    }

    /// One entry of this `batch` request: a read, `run` by default.
    fn entry(self, v: &'a Value) -> Result<(ReadOp, Request<'a>), ServerError> {
        let Value::Obj(own) = v else {
            return Err(ServerError("each batch entry must be a request object".into()));
        };
        // The entry's own `op` only: the batch's is `batch`.
        let name = Request { op: self.op, own, batch: &[] }.opt_str("op")?.unwrap_or("run");
        match Op::named(name) {
            Some(op @ Op::Read(read)) => Ok((read, Request { op, own, batch: self.own })),
            _ => Err(ServerError(format!(
                "batch entries may only be run/check/explain/trace/stats, got `{name}`"
            ))),
        }
    }

    fn get(self, key: &str) -> Option<&'a Value> {
        let find = |pairs: &'a [(String, Value)]| pairs.iter().find(|(k, _)| k == key);
        find(self.own).or_else(|| find(self.batch)).map(|(_, v)| v)
    }

    fn str(self, key: &str) -> Result<&'a str, ServerError> {
        self.get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| ServerError(format!("request needs a string `{key}` field")))
    }

    pub(crate) fn opt_str(self, key: &str) -> Result<Option<&'a str>, ServerError> {
        self.get(key)
            .map(|v| v.as_str().ok_or_else(|| ServerError(format!("`{key}` must be a string"))))
            .transpose()
    }

    fn opt_uint(self, key: &str) -> Result<Option<u64>, ServerError> {
        let err = || ServerError(format!("`{key}` must be a non-negative integer"));
        self.get(key).map(|v| v.as_u64().ok_or_else(err)).transpose()
    }

    /// An array-of-strings field; an absent one reads as empty.
    fn strs(self, key: &str) -> Result<Strs<'a>, ServerError> {
        let err = || ServerError(format!("`{key}` must be an array of strings"));
        self.get(key).map_or(Ok(Strs(&[])), |v| Strs::new(v).ok_or_else(err))
    }

    /// An array field; an absent one reads as empty.
    fn list(self, key: &str) -> Result<&'a [Value], ServerError> {
        let err = || ServerError(format!("`{key}` must be an array"));
        self.get(key).map_or(Ok(&[]), |v| v.as_arr().ok_or_else(err))
    }

    /// The arguments of a `run`, or with `traced`, of a `trace`, which may
    /// name inline `query` text in place of a statement.
    fn run(self, traced: bool) -> Result<Run<'a>, ServerError> {
        let inline = if traced { self.opt_str("query")? } else { None };
        let target = match inline {
            Some(text) => Target::Inline(text),
            None => Target::Named(self.str("name")?),
        };
        Ok(Run {
            target,
            graph: self.str("graph")?,
            limit: self.opt_uint("limit")?,
            mode: match self.opt_str("mode")?.unwrap_or("nodes") {
                "nodes" => Mode::Nodes,
                "boolean" => Mode::Boolean,
                "paths" => Mode::Paths,
                other => return Err(ServerError(format!("unknown run mode `{other}`"))),
            },
        })
    }

    /// The one graph source of a `load`: the first source field present.
    fn graph_source(self) -> Result<GraphSource, ServerError> {
        Ok(if let Some(text) = self.opt_str("edges")? {
            GraphSource::EdgeListText(text.to_string())
        } else if let Some(path) = self.opt_str("path")? {
            GraphSource::EdgeListFile(path.to_string())
        } else if let Some(v) = self.get("json") {
            GraphSource::Json(v.clone())
        } else if let Some(path) = self.opt_str("json_path")? {
            GraphSource::JsonFile(path.to_string())
        } else if let Some(spec) = self.opt_str("generator")? {
            GraphSource::Generator(spec.to_string())
        } else {
            return Err(ServerError(
                "load needs one of `edges`, `path`, `json`, `json_path`, `generator`".into(),
            ));
        })
    }

    /// The triples of a mutation: an `edges` array of `[from, label, to]`
    /// string arrays, and/or `text` edge-list lines (`from label to` per
    /// line, blank lines skipped). At least one triple is required.
    fn edge_triples(self) -> Result<Vec<(String, String, String)>, ServerError> {
        let mut out = Vec::new();
        for e in self.list("edges")? {
            e.as_arr().filter(|items| items.len() == 3).ok_or_else(|| {
                ServerError("`edges` entries must be [from, label, to] arrays".into())
            })?;
            let triple = Strs::new(e)
                .ok_or_else(|| ServerError("`edges` triple components must be strings".into()))?;
            let mut s = triple.iter().map(str::to_string);
            out.extend(s.next().zip(s.next()).zip(s.next()).map(|((f, l), t)| (f, l, t)));
        }
        for line in self.opt_str("text")?.unwrap_or("").lines() {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (None, ..) => {}
                (Some(f), Some(l), Some(t), None) => {
                    out.push((f.to_string(), l.to_string(), t.to_string()));
                }
                _ => {
                    return Err(ServerError(format!(
                        "each `text` edge line must be `from label to`, got `{}`",
                        line.trim()
                    )));
                }
            }
        }
        if out.is_empty() {
            return Err(ServerError(
                "mutation needs a non-empty `edges` array and/or `text` edge lines".into(),
            ));
        }
        Ok(out)
    }

    /// The `paths` of a `check`: string arrays of odd length.
    fn paths(self) -> Result<Paths<'a>, ServerError> {
        let paths = self.list("paths")?;
        for p in paths {
            let p = Strs::new(p)
                .ok_or_else(|| ServerError("each path must be an array of strings".into()))?;
            if p.0.len() % 2 == 0 {
                return Err(ServerError(
                    "a path array alternates node, label, node, … (odd length)".into(),
                ));
            }
        }
        Ok(Paths(paths))
    }
}

/// The arguments of a `run` or `trace`.
pub(crate) struct Run<'a> {
    pub(crate) target: Target<'a>,
    pub(crate) graph: &'a str,
    pub(crate) limit: Option<u64>,
    pub(crate) mode: Mode,
}

/// What a `run` or `trace` evaluates: a registered statement, or query
/// text parsed, compiled and bound for one `trace` alone.
#[derive(Clone, Copy)]
pub(crate) enum Target<'a> {
    Named(&'a str),
    Inline(&'a str),
}

/// A JSON array checked to hold only strings, read without copying them.
#[derive(Clone, Copy)]
pub(crate) struct Strs<'a>(&'a [Value]);

impl<'a> Strs<'a> {
    fn new(v: &'a Value) -> Option<Strs<'a>> {
        v.as_arr().filter(|items| items.iter().all(|s| s.as_str().is_some())).map(Strs)
    }

    pub(crate) fn iter(self) -> impl Iterator<Item = &'a str> {
        self.0.iter().filter_map(Value::as_str)
    }
}

/// The checked `paths` of a `check`.
#[derive(Clone, Copy)]
pub(crate) struct Paths<'a>(&'a [Value]);

impl<'a> Paths<'a> {
    pub(crate) fn iter(self) -> impl Iterator<Item = Strs<'a>> {
        self.0.iter().map(|p| Strs(p.as_arr().unwrap_or_default()))
    }
}

impl Service {
    /// The one dispatch: decodes the arguments of the request's op and
    /// hands them to its handler, so a request is decoded in full before it
    /// touches the server. `tagged` says the line carried an `id`, which
    /// `close` and `shutdown` must not: they end the request stream, and a
    /// concurrently dispatched one could race past requests it was meant to
    /// follow. Only those two end anything; every other op keeps the
    /// connection reading.
    pub(crate) fn execute(
        &self,
        req: Request<'_>,
        tagged: bool,
    ) -> Result<(Value, Control), ServerError> {
        let reply = match req.op {
            Op::Load => self.op_load(req.str("graph")?, &req.graph_source()?)?,
            Op::AddEdges | Op::RemoveEdges => {
                let (graph, edges) = (req.str("graph")?, req.edge_triples()?);
                let threshold = req.opt_uint("merge_threshold")?;
                self.op_mutate(graph, &edges, req.op == Op::AddEdges, threshold)?
            }
            Op::Prepare => {
                let (name, query) = (req.str("name")?, req.str("query")?);
                let alphabet = if req.get("alphabet").is_some() {
                    Alphabet::from_labels(req.strs("alphabet")?.iter())
                } else if let Some(graph) = req.opt_str("graph")? {
                    self.graph(graph)?.alphabet().clone()
                } else {
                    return Err(ServerError(
                        "prepare needs an `alphabet` array or a `graph` name".into(),
                    ));
                };
                self.op_prepare(name, query, &alphabet)?
            }
            Op::Read(op) => self.read(op, req, &mut BatchCache::default())?,
            Op::Metrics => match req.opt_str("format")?.unwrap_or("text") {
                "text" => self.op_metrics(false),
                "json" => self.op_metrics(true),
                other => {
                    return Err(ServerError(format!(
                        "`format` must be `text` or `json`, got `{other}`"
                    )))
                }
            },
            Op::Slowlog => {
                let limit = req.opt_uint("limit")?.unwrap_or(u64::MAX);
                self.op_slowlog(limit.min(SLOWLOG_CAPACITY as u64) as usize)
            }
            Op::Batch => {
                let entries = req
                    .get("requests")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| ServerError("batch needs a `requests` array".into()))?;
                if entries.is_empty() {
                    return Err(ServerError("batch `requests` must not be empty".into()));
                }
                if entries.len() > MAX_BATCH {
                    return Err(ServerError(format!(
                        "batch too large: {} requests (cap {MAX_BATCH})",
                        entries.len()
                    )));
                }
                self.op_batch(entries.iter().map(|e| req.entry(e)))
            }
            Op::Save => self.op_save(req.str("graph")?, req.str("path")?)?,
            Op::Open => self.op_open(req.str("name")?, req.str("path")?)?,
            Op::Close | Op::Shutdown if tagged => {
                return Err(ServerError(format!(
                    "`{}` must not carry an `id` tag: lifecycle ops are connection-ordered",
                    req.op.name()
                )))
            }
            Op::Close => return Ok((ok_obj([("closing", Value::Bool(true))]), Control::Close)),
            Op::Shutdown => {
                return Ok((ok_obj([("shutting_down", Value::Bool(true))]), Control::Shutdown))
            }
        };
        Ok((reply, Control::Continue))
    }

    /// Decodes and executes one read — a request on its own or a `batch`
    /// entry — against the request's cache.
    pub(crate) fn read(
        &self,
        op: ReadOp,
        req: Request<'_>,
        cache: &mut BatchCache,
    ) -> Result<Value, ServerError> {
        match op {
            ReadOp::Run => self.run_request(&req.run(false)?, cache, None).map(ok_obj),
            ReadOp::Trace => self.op_trace(&req.run(true)?, cache),
            ReadOp::Check => {
                let (name, graph) = (req.str("name")?, req.str("graph")?);
                self.op_check(name, graph, req.strs("nodes")?, req.paths()?, cache)
            }
            ReadOp::Explain => self.op_explain(req.str("name")?, req.str("graph")?, cache),
            ReadOp::Stats => self.op_stats(req.opt_str("graph")?),
        }
    }
}
