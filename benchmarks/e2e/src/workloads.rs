//! The four workloads: set-up, the closed-loop measured window, and the
//! end-to-end metrics read from it.
//!
//! Every client thread owns one connection and sends its next request only
//! after the previous reply arrived and verified (a closed loop: the callers
//! this system has block on the answer). At most `nproc` threads run.

use crate::gen::{self, Inputs, Workload};
use crate::server::{Conn, Server};
use crate::stats::{median, sliced_quantile, sliced_rate, Sample};
use crate::verify::{self, Digest, Expected};
use ecrpq_util::json::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Un-timed closed-loop traffic before the window opens.
const WARM_UP: Duration = Duration::from_secs(1);

#[derive(Clone)]
pub struct Ctx {
    pub server_bin: PathBuf,
    /// Per-run scratch directory (edge lists, snapshots), removed at exit.
    pub tmp: PathBuf,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: f64,
    /// How many times set-up runs at least; `setup_s` is the median.
    pub setup_reps: usize,
    /// `--write-golden`: take every first reply as the reference.
    pub ignore_golden: bool,
}

impl Ctx {
    fn expected(&self, w: Workload) -> Expected {
        if self.ignore_golden {
            Expected::default()
        } else {
            Expected::for_run(w.name(), self.seed)
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

pub fn metric(name: &'static str, value: f64, n: usize) -> Metric {
    Metric { name, value, n }
}

/// The three headline latencies of a workload: the sample classes each
/// reads and the quantile it reports.
pub fn latency_slots(w: Workload) -> [(&'static [&'static str], f64); 3] {
    match w {
        Workload::ServePoint => [(&["nodes"], 0.5), (&["bool"], 0.5), (&["nodes", "bool"], 0.99)],
        Workload::ServeEval => [(&["reach"], 0.5), (&["search"], 0.5), (&["wide"], 0.5)],
        Workload::ServeRw => [
            (&["read", "read_dirty", "read_clean"], 0.5),
            (&["write_overlay"], 0.5),
            (&["write_merge"], 0.5),
        ],
        Workload::ColdStart => [(&["cold_ready"], 0.5), (&["open_ready"], 0.5), (&["save"], 0.5)],
    }
}

/// What one client thread (and, merged, one window) observed.
#[derive(Default)]
pub struct Recorder {
    window_start: Option<Instant>,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
    /// Client-side time spent parsing and verifying replies.
    pub client_self: Duration,
    /// Sums over verified replies of the engine's cache counters.
    pub sim_cache_hits: u64,
    pub sim_cache_misses: u64,
    /// Request and reply bytes of every operation, newlines included.
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Recorder {
    fn new(window_start: Instant) -> Recorder {
        Recorder { window_start: Some(window_start), ..Recorder::default() }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Files an interval that ended now under `class`; intervals that end
    /// before the window opens (set-up, warm-up) are dropped.
    fn record(&mut self, class: &'static str, took: Duration, is_op: bool) {
        let since = self.window_start.and_then(|s| Instant::now().checked_duration_since(s));
        if let Some(t) = since {
            let us = took.as_nanos() as f64 / 1e3;
            self.samples.push(Sample { t_us: t.as_micros() as u64, class, us, is_op });
        }
    }

    /// One closed-loop operation: send, wait, parse, check. Only a reply
    /// that passes `check` yields a latency sample; anything else — error,
    /// refusal, timeout, wrong answer — is a failed operation.
    pub fn op(
        &mut self,
        conn: &mut Conn,
        line: &str,
        class: &'static str,
        check: impl FnOnce(&Value) -> Result<(), String>,
    ) -> Option<Value> {
        let (v, rtt) = self.op_unfiled(conn, line, class, check)?;
        self.record(class, rtt, true);
        Some(v)
    }

    /// [`op`](Self::op) for a caller that picks the sample's class from the
    /// reply: verifies and counts, but leaves recording to the caller.
    fn op_unfiled(
        &mut self,
        conn: &mut Conn,
        line: &str,
        class: &'static str,
        check: impl FnOnce(&Value) -> Result<(), String>,
    ) -> Option<(Value, Duration)> {
        self.attempted += 1;
        let (reply, rtt) = match conn.request(line) {
            Ok(r) => r,
            Err(e) => {
                self.fail(format!("{class}: {e}"));
                return None;
            }
        };
        self.bytes_out += line.len() as u64 + 1;
        self.bytes_in += reply.len() as u64 + 1;
        let parse_start = Instant::now();
        let checked = verify::parse_ok(reply).and_then(|v| check(&v).map(|()| v));
        self.client_self += parse_start.elapsed();
        match checked {
            Ok(v) => {
                if let Some(stats) = v.get("stats") {
                    let n = |k| stats.get(k).and_then(Value::as_u64).unwrap_or(0);
                    self.sim_cache_hits += n("sim_cache_hits");
                    self.sim_cache_misses += n("sim_cache_misses");
                }
                Some((v, rtt))
            }
            Err(e) => {
                self.fail(format!("{class}: {e}"));
                None
            }
        }
    }

    fn merge(&mut self, other: Recorder) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
        self.client_self += other.client_self;
        self.sim_cache_hits += other.sim_cache_hits;
        self.sim_cache_misses += other.sim_cache_misses;
        self.bytes_out += other.bytes_out;
        self.bytes_in += other.bytes_in;
    }

    /// Window length for rates and slices, µs: the asked-for length, or up
    /// to the last completion when an operation in flight at the deadline
    /// (a whole cold-start cycle, say) ran past it.
    pub fn window_us(&self, seconds: f64) -> u64 {
        let last = self.samples.iter().map(|s| s.t_us).max().unwrap_or(0);
        ((seconds * 1e6) as u64).max(last + 1)
    }

    /// Every class seen, in order of first appearance, with its plain
    /// median and sample count.
    pub fn class_medians(&self) -> Vec<(&'static str, f64, usize)> {
        let mut classes: Vec<&'static str> = Vec::new();
        for s in &self.samples {
            if !classes.contains(&s.class) {
                classes.push(s.class);
            }
        }
        classes
            .into_iter()
            .map(|c| {
                let v: Vec<f64> = self.class_samples(&[c]).iter().map(|s| s.1).collect();
                (c, median(&v), v.len())
            })
            .collect()
    }

    pub fn class_samples(&self, classes: &[&str]) -> Vec<(u64, f64)> {
        let hit = |s: &&Sample| classes.contains(&s.class);
        self.samples.iter().filter(hit).map(|s| (s.t_us, s.us)).collect()
    }
}

/// A server with the workload's graphs loaded and statements prepared, run
/// and verified, plus the connections the window will use.
pub struct Warm {
    pub server: Server,
    pub conns: Vec<Conn>,
}

/// The server's own counters around a window: `stats` and `metrics` (JSON
/// format) replies. A server that started inside the window (`cold_start`)
/// has no `before`; its counters start at zero.
#[derive(Default)]
pub struct Wire {
    pub before: Vec<(Value, Value)>,
    pub after: Vec<(Value, Value)>,
}

/// Everything one pass over a workload produced.
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub rec: Recorder,
    pub peak_rss_mib: f64,
    pub inputs: Inputs,
    pub expected: Expected,
    /// The warm server, for the traced replays (`serve_*` only).
    pub warm: Option<Warm>,
    pub wire: Wire,
    pub live: LiveCounts,
}

/// Window-long observations read from reply fields.
#[derive(Default)]
pub struct LiveCounts {
    pub merges: u64,
    pub pending_max: u64,
    pub maintained: u64,
}

fn checked_request(conn: &mut Conn, line: &str) -> Result<Value, String> {
    let (reply, _) = conn.request(line)?;
    verify::parse_ok(reply)
}

/// A fresh server with every graph loaded and every statement prepared
/// (but not yet run, so nothing is bound or compiled).
pub fn start_prepared(ctx: &Ctx, inputs: &Inputs) -> Result<(Server, Conn), String> {
    let server = Server::spawn(&ctx.server_bin, &[])?;
    let mut conn = server.connect()?;
    for g in &inputs.graphs {
        checked_request(&mut conn, &g.load_inline())?;
    }
    for s in &inputs.stmts {
        checked_request(&mut conn, &s.prepare_line())?;
    }
    Ok((server, conn))
}

/// Set-up of the three `serve_*` workloads: load, prepare, and two verified
/// runs of every statement (the first binds and compiles, the second must
/// already be warm).
fn start_warm(
    ctx: &Ctx,
    w: Workload,
    inputs: &Inputs,
    conns: usize,
) -> Result<(Warm, Expected), String> {
    let (server, mut conn) = start_prepared(ctx, inputs)?;
    let mut expected = ctx.expected(w);
    for s in &inputs.stmts {
        let line = s.request_line("run", ctx.nproc);
        let first = checked_request(&mut conn, &line)?;
        expected.check(&s.name, verify::digest(&first)?)?;
        let again = checked_request(&mut conn, &line)?;
        verify::require_warm(&again)?;
        expected.check(&s.name, verify::digest(&again)?)?;
    }
    if w == Workload::ServeRw {
        // One write cycle: fixes the merge threshold, builds the maintained
        // statement, and proves that a remove restores the base answer.
        let batch = &inputs.batches[0];
        let run = inputs.stmts[0].request_line("run", ctx.nproc);
        checked_request(&mut conn, &gen::mutate_line(true, batch, true))?;
        let after_add = checked_request(&mut conn, &run)?;
        expected.check("q@batch0", verify::digest(&after_add)?)?;
        checked_request(&mut conn, &gen::mutate_line(false, batch, false))?;
        let after_remove = checked_request(&mut conn, &run)?;
        expected.check("q", verify::digest(&after_remove)?)?;
    }
    let mut all = vec![conn];
    while all.len() < conns {
        all.push(server.connect()?);
    }
    Ok((Warm { server, conns: all }, expected))
}

/// Whether a client loop sends another request: the window is open and the
/// server still answers (a lost connection that cannot be dialled again
/// means the child is gone; the loop must not spin on it).
fn loop_until(end: Instant, conn: &Conn) -> bool {
    Instant::now() < end && !conn.dead
}

/// `serve_point` and `serve_eval`: every thread walks the seeded statement
/// order from its own offset.
fn window_round_robin(
    ctx: &Ctx,
    inputs: &Inputs,
    warm: &mut Warm,
    expected: &Expected,
) -> Recorder {
    let start = Instant::now() + WARM_UP;
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let lines: Vec<String> =
        inputs.stmts.iter().map(|s| s.request_line("run", ctx.nproc)).collect();
    let threads = warm.conns.len();
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = warm
            .conns
            .iter_mut()
            .enumerate()
            .map(|(t, conn)| {
                let lines = &lines;
                scope.spawn(move || {
                    let mut rec = Recorder::new(start);
                    let mut at = t * inputs.order.len() / threads;
                    while loop_until(end, conn) {
                        let i = inputs.order[at % inputs.order.len()];
                        at += 1;
                        let s = &inputs.stmts[i];
                        rec.op(conn, &lines[i], s.class, |v| {
                            verify::require_warm(v)?;
                            match expected.get(&s.name) {
                                Some(want) if *want == verify::digest(v)? => Ok(()),
                                _ => Err(format!("wrong answer for `{}`", s.name)),
                            }
                        });
                    }
                    rec
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut rec = Recorder::new(start);
    recorders.into_iter().for_each(|r| rec.merge(r));
    rec
}

/// `serve_rw`: connection 0 cycles add → run → remove → run over the seeded
/// batches; every other connection runs the statement continuously.
fn window_read_write(
    ctx: &Ctx,
    inputs: &Inputs,
    warm: &mut Warm,
    expected: &mut Expected,
    live: &mut LiveCounts,
) -> Recorder {
    let start = Instant::now() + WARM_UP;
    let end = start + Duration::from_secs_f64(ctx.seconds);
    let run = inputs.stmts[0].request_line("run", ctx.nproc);
    let writes: Vec<[String; 2]> = inputs
        .batches
        .iter()
        .map(|b| [gen::mutate_line(true, b, false), gen::mutate_line(false, b, false)])
        .collect();
    let (writer_conn, reader_conns) = warm.conns.split_first_mut().expect("one connection");
    let mut rec = Recorder::new(start);
    // Readers cannot know which batch is applied when their reply is built,
    // so they count the distinct answers seen and are checked afterwards
    // against the states the writer established.
    let mut seen: HashMap<Digest, u64> = HashMap::new();
    std::thread::scope(|scope| {
        let readers: Vec<_> = reader_conns
            .iter_mut()
            .map(|conn| {
                let run = &run;
                scope.spawn(move || {
                    let mut rec = Recorder::new(start);
                    let mut seen: HashMap<Digest, u64> = HashMap::new();
                    while loop_until(end, conn) {
                        rec.op(conn, run, "read", |v| {
                            *seen.entry(verify::digest(v)?).or_default() += 1;
                            verify::require_warm(v)
                        });
                    }
                    (rec, seen)
                })
            })
            .collect();

        let mut cycle = 0usize;
        while loop_until(end, writer_conn) {
            // Batch 0 was applied once in set-up; start after it.
            cycle += 1;
            let i = cycle % inputs.batches.len();
            let batch = &inputs.batches[i];
            for (add, line) in [true, false].into_iter().zip(&writes[i]) {
                let mut pending = 0;
                let wrote = rec.op_unfiled(writer_conn, line, "write", |v| {
                    let n = |k| v.get(k).and_then(Value::as_u64);
                    let moved = if add { n("added") } else { n("removed") };
                    match (moved, n("missing"), n("pending")) {
                        (Some(m), Some(0), Some(p)) if m == batch.len() as u64 => {
                            pending = p;
                            Ok(())
                        }
                        _ => Err("write did not apply every edge of its batch".to_string()),
                    }
                });
                if let Some((v, rtt)) = wrote {
                    let merged = v.get("merged").and_then(Value::as_bool) == Some(true);
                    rec.record(if merged { "write_merge" } else { "write_overlay" }, rtt, true);
                    live.merges += u64::from(merged);
                    live.pending_max = live.pending_max.max(pending);
                    live.maintained = v.get("maintained").and_then(Value::as_u64).unwrap_or(0);
                }
                let key = if add { format!("q@batch{i}") } else { "q".to_string() };
                let class = if pending > 0 { "read_dirty" } else { "read_clean" };
                rec.op(writer_conn, &run, class, |v| {
                    verify::require_warm(v)?;
                    expected.check(&key, verify::digest(v)?)
                });
            }
        }
        for r in readers {
            let (reader_rec, reader_seen) = r.join().expect("reader thread panicked");
            rec.merge(reader_rec);
            for (d, n) in reader_seen {
                *seen.entry(d).or_default() += n;
            }
        }
    });
    for (d, n) in seen {
        if let Err(e) = expected.check_any("q", &d) {
            rec.failed += n;
            rec.errors.push(format!("{n} reads: {e}"));
        }
    }
    rec
}

/// `stats` and `metrics` as the server reports them now.
fn wire_snapshot(conn: &mut Conn) -> Result<(Value, Value), String> {
    let stats = checked_request(conn, &gen::simple_line("stats"))?;
    let metrics = checked_request(conn, r#"{"op":"metrics","format":"json"}"#)?;
    Ok((stats, metrics))
}

/// One `cold_start` cycle: a cold server from the edge-list file to the
/// first verified answer of every statement, a save, and a second server
/// opened from the snapshot to its first verified answers. With `wire`, each
/// server's counters are read just before it shuts down.
fn cold_cycle(
    ctx: &Ctx,
    inputs: &Inputs,
    expected: &mut Expected,
    rec: &mut Recorder,
    mut wire: Option<&mut Wire>,
) -> Result<f64, String> {
    let g = &inputs.graphs[0];
    let edge_file = ctx.tmp.join("cs.edges").to_string_lossy().to_string();
    let snap_str = ctx.tmp.join("cs.snap").to_string_lossy().to_string();
    let mut peak: f64 = 0.0;
    let mut first_answers = |rec: &mut Recorder, conn: &mut Conn, class, warm: bool| {
        for s in &inputs.stmts {
            rec.op(conn, &s.request_line("run", ctx.nproc), class, |v| {
                if warm {
                    verify::require_warm(v)?;
                }
                expected.check(&s.name, verify::digest(v)?)
            });
        }
    };
    let mut finish = |rec: &mut Recorder, server: Server, conn: &mut Conn| -> Result<(), String> {
        if let Some(wire) = wire.as_deref_mut() {
            wire.after.push(wire_snapshot(conn)?);
        }
        peak = peak.max(server.peak_rss_mib());
        rec.attempted += 1;
        let asked = Instant::now();
        match server.shutdown(conn) {
            Ok(()) => rec.record("shutdown", asked.elapsed(), true),
            Err(e) => rec.fail(e),
        }
        Ok(())
    };

    let born = Instant::now();
    let server = Server::spawn(&ctx.server_bin, &[])?;
    let mut conn = server.connect()?;
    rec.op(&mut conn, &g.load_path(&edge_file), "load", |v| {
        match v.get("edges").and_then(Value::as_u64) {
            Some(n) if n == g.num_edges as u64 => Ok(()),
            _ => Err("load did not report every edge".to_string()),
        }
    });
    for s in &inputs.stmts {
        rec.op(&mut conn, &s.prepare_line(), "prepare", |_| Ok(()));
    }
    first_answers(rec, &mut conn, "run_cold", false);
    rec.record("cold_ready", born.elapsed(), false);
    rec.op(&mut conn, &gen::save_line(g.name, &snap_str), "save", |v| {
        match v.get("statements").and_then(Value::as_u64) {
            Some(n) if n == inputs.stmts.len() as u64 => Ok(()),
            _ => Err("save did not persist every statement".to_string()),
        }
    });
    finish(rec, server, &mut conn)?;

    let born = Instant::now();
    let server = Server::spawn(&ctx.server_bin, &["--open".into(), format!("cs={snap_str}")])?;
    let mut conn = server.connect()?;
    first_answers(rec, &mut conn, "run_open", true);
    rec.record("open_ready", born.elapsed(), false);
    finish(rec, server, &mut conn)?;
    Ok(peak)
}

/// Runs one pass of `w`: set-up (`ctx.setup_reps` times, the last one
/// kept), warm-up, and a measured window of `ctx.seconds`. With `with_wire`
/// the server's own counters are read around the window.
pub fn run_pass(ctx: &Ctx, w: Workload, with_wire: bool) -> Result<Pass, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    // A cheap set-up is repeated more often (within a second in all): the
    // shorter the interval, the more samples its median needs to be steady.
    let first = Instant::now();
    while setup_s.len() < ctx.setup_reps.max(1)
        || (ctx.setup_reps > 1 && setup_s.len() < 15 && first.elapsed() < Duration::from_secs(1))
    {
        drop(kept.take());
        let began = Instant::now();
        let inputs = gen::generate(w, ctx.seed);
        let state = if w == Workload::ColdStart {
            // Set-up is the edge-list file plus one whole cycle, which also
            // establishes the expected answers.
            std::fs::write(ctx.tmp.join("cs.edges"), &inputs.graphs[0].edges)
                .map_err(|e| format!("cannot write the edge list: {e}"))?;
            let mut expected = ctx.expected(w);
            let mut rec = Recorder::default();
            cold_cycle(ctx, &inputs, &mut expected, &mut rec, None)?;
            if rec.failed > 0 {
                return Err(format!("cold_start set-up failed: {}", rec.errors.join("; ")));
            }
            (None, expected)
        } else {
            let conns = if w == Workload::ServeEval { 1 } else { ctx.nproc.max(1) };
            let (warm, expected) = start_warm(ctx, w, &inputs, conns)?;
            (Some(warm), expected)
        };
        setup_s.push(began.elapsed().as_secs_f64());
        kept = Some((inputs, state));
    }
    let (inputs, (mut warm, mut expected)) = kept.expect("at least one set-up");

    let mut wire = Wire::default();
    let mut live = LiveCounts::default();
    let mut peak_rss_mib: f64 = 0.0;
    let rec = match &mut warm {
        Some(warm) => {
            if with_wire {
                wire.before.push(wire_snapshot(&mut warm.conns[0])?);
            }
            let rec = match w {
                Workload::ServeRw => {
                    window_read_write(ctx, &inputs, warm, &mut expected, &mut live)
                }
                _ => window_round_robin(ctx, &inputs, warm, &expected),
            };
            if !warm.server.alive() {
                return Err("the server exited during the window".into());
            }
            if with_wire {
                wire.after.push(wire_snapshot(&mut warm.conns[0])?);
            }
            peak_rss_mib = warm.server.peak_rss_mib();
            rec
        }
        None => {
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(ctx.seconds);
            let mut rec = Recorder::new(start);
            while Instant::now() < end && rec.failed == 0 {
                // Only the last cycle's counters are kept: one cold and one
                // reopened server, the unit the per-layer report uses.
                wire.after.clear();
                let cycle_wire = with_wire.then_some(&mut wire);
                let peak = cold_cycle(ctx, &inputs, &mut expected, &mut rec, cycle_wire)?;
                peak_rss_mib = peak_rss_mib.max(peak);
            }
            rec
        }
    };
    Ok(Pass { setup_s, rec, peak_rss_mib, inputs, expected, warm, wire, live })
}

/// The end-to-end metrics of one pass, in `BENCHMARK.json` order.
pub fn end_to_end(w: Workload, seconds: f64, pass: &Pass) -> Vec<Metric> {
    let rec = &pass.rec;
    let window_us = rec.window_us(seconds);
    let op_times: Vec<u64> = rec.samples.iter().filter(|s| s.is_op).map(|s| s.t_us).collect();
    let mut out = vec![
        metric("setup_s", median(&pass.setup_s), pass.setup_s.len()),
        metric("ops_per_s", sliced_rate(&op_times, window_us), op_times.len()),
    ];
    for (name, (classes, q)) in ["lat1_us", "lat2_us", "lat3_us"].into_iter().zip(latency_slots(w))
    {
        let (value, n) = sliced_quantile(&rec.class_samples(classes), window_us, q);
        out.push(metric(name, value, n));
    }
    out.push(metric("peak_rss_mb", pass.peak_rss_mib, 1));
    out
}
