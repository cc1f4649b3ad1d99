//! Benchmark harness: regenerates every experiment of `EXPERIMENTS.md` (the
//! empirical counterpart of Figure 1 of the paper plus the Section 4 / 8.2
//! application workloads), prints one table per experiment — including the
//! fitted growth exponent (for polynomially growing series) or the growth
//! ratio per step (for exponentially growing series) — and writes each
//! experiment's measurements as `BENCH_<experiment>.json` in the current
//! directory so the perf-trajectory pipeline can consume them.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ecrpq-bench --bin harness [-- MODE]
//!
//! MODE:
//!   full      the full sweeps (default)
//!   quick     shrunk sweeps, finishes in a few seconds (CI-style runs)
//!   smoke     only the smallest size point of each experiment family
//!   prepared  only the prepared-query pipeline experiment (compile vs run
//!             columns + the `prepared_reuse` micro-family), at full size
//!   serve     only the query-service experiment (loopback TCP throughput
//!             and p50/p95 latency per client-thread count, plus the
//!             high-concurrency load sweep: legacy vs pipelined vs batch
//!             protocol shapes at 64/256/1024 connections), at full size
//!   serve-smoke
//!             the serve family at smoke sizes — a seconds-scale gate whose
//!             load sweep self-checks zero reply loss and admission
//!             accounting (used by scripts/check.sh)
//!   plan      only the query-planner experiment (warm run time of
//!             plan-sensitive workloads, static vs cost-based plans), at
//!             full size
//! ```

use ecrpq_bench::{json, print_table, workloads, Measurement};

/// One experiment family's runner.
type Family = fn(Mode, &mut Report);

/// Parsed command line.
struct Args {
    mode: Mode,
    /// A single-family mode: its name and the family's runner.
    only: Option<(&'static str, Family)>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Full,
    Quick,
    Smoke,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
            Mode::Smoke => "smoke",
        }
    }
}

/// The single-family modes (each runs at full size).
const FAMILIES: [(&str, Family); 3] =
    [("prepared", run_prepared), ("serve", run_serve), ("plan", run_plan_family)];

fn parse_args() -> Args {
    let mut args = Args { mode: Mode::Full, only: None };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "full" => args.mode = Mode::Full,
            "quick" => args.mode = Mode::Quick,
            "smoke" => args.mode = Mode::Smoke,
            // A seconds-scale serve gate for scripts/check.sh: only the
            // serve family, at smoke sizes — the load sweep's internal
            // asserts (zero reply loss, rejection accounting) are the check.
            "serve-smoke" => {
                args.mode = Mode::Smoke;
                args.only = Some(("serve-smoke", run_serve));
            }
            other => match FAMILIES.iter().find(|(name, _)| *name == other) {
                Some(&family) => {
                    args.mode = Mode::Full;
                    args.only = Some(family);
                }
                None => {
                    eprintln!("harness: unknown argument `{other}` (see the doc comment)");
                    std::process::exit(2);
                }
            },
        }
    }
    args
}

/// Where the experiment families report: the mode name stamped into every
/// `BENCH_<id>.json`.
struct Report {
    mode: &'static str,
}

impl Report {
    /// Prints one experiment's table and writes its `BENCH_<id>.json` file.
    fn report(&mut self, id: &str, title: &str, measurements: &[Measurement], exponential: bool) {
        print_table(title, measurements, exponential);
        self.report_quiet(id, measurements);
    }

    /// Records an experiment whose table the caller already printed.
    fn report_quiet(&mut self, id: &str, measurements: &[Measurement]) {
        let path = format!("BENCH_{id}.json");
        match std::fs::write(&path, json::experiment(id, self.mode, measurements)) {
            Ok(()) => println!("   wrote {path}"),
            Err(e) => eprintln!("   failed to write {path}: {e}"),
        }
    }
}

fn main() {
    let args = parse_args();
    let mode_name = args.only.map_or(args.mode.name(), |(name, _)| name);
    println!("ECRPQ reproduction harness — regenerating the Figure 1 experiments");
    println!("(mode: {mode_name})");
    let mut rep = Report { mode: mode_name };
    match args.only {
        Some((_, family)) => family(args.mode, &mut rep),
        None => run_all(args.mode, &mut rep),
    }
    println!("\nDone. Absolute timings are machine-specific; EXPERIMENTS.md records the");
    println!("qualitative comparison against the paper's complexity claims.");
}

/// Every experiment family, in `EXPERIMENTS.md` order.
fn run_all(mode: Mode, rep: &mut Report) {
    // F1a-D1 / F1a-D2: data complexity.
    let sizes: &[usize] = match mode {
        Mode::Full => &[100, 200, 400, 800, 1600],
        Mode::Quick => &[50, 100, 200],
        Mode::Smoke => &[50],
    };
    let m = workloads::fig1a_data(sizes);
    rep.report(
        "fig1a_data",
        "Fig 1(a) data complexity: fixed query, growing graph (CRPQ vs ECRPQ vs Q_len)",
        &m,
        false,
    );

    // F1a-C1: combined complexity.
    let (crpq_m, ecrpq_m) = match mode {
        Mode::Full => (7, 5),
        Mode::Quick => (5, 3),
        Mode::Smoke => (2, 2),
    };
    let m = workloads::fig1a_combined(crpq_m, ecrpq_m);
    rep.report(
        "fig1a_combined",
        "Fig 1(a) combined complexity: growing query on the REI gadget graph (CRPQ NP vs ECRPQ PSPACE)",
        &m,
        true,
    );

    // F1a-C2: acyclicity restriction.
    let acyclic_max = match mode {
        Mode::Full => 5,
        Mode::Quick => 4,
        Mode::Smoke => 2,
    };
    let m = workloads::fig1a_acyclic(6, acyclic_max);
    rep.report(
        "fig1a_acyclic",
        "Fig 1(a) acyclic restriction: acyclic CRPQ (PTIME) vs acyclic ECRPQ (PSPACE-hard)",
        &m,
        true,
    );

    // F1a-C3: the length abstraction Q_len.
    let (full_m, qlen_m) = match mode {
        Mode::Full => (5, 7),
        Mode::Quick => (3, 5),
        Mode::Smoke => (1, 1),
    };
    let m = workloads::fig1a_qlen(full_m, qlen_m);
    rep.report(
        "fig1a_qlen",
        "Fig 1(a) Q_len: full ECRPQ evaluation vs the length abstraction (NP, matches CQs)",
        &m,
        true,
    );

    // F1b-R1: repetition of path variables.
    let rep_max = match mode {
        Mode::Full => 6,
        Mode::Quick => 4,
        Mode::Smoke => 1,
    };
    let m = workloads::fig1b_repetition(rep_max);
    rep.report(
        "fig1b_repetition",
        "Fig 1(b) repetition: CRPQ with a repeated path variable (PSPACE-hard) vs repetition-free",
        &m,
        true,
    );

    // F1b-N1: negation.
    let (sizes, depth): (&[usize], usize) = match mode {
        Mode::Full => (&[20, 40, 80, 160], 2),
        Mode::Quick => (&[10, 20, 40], 2),
        Mode::Smoke => (&[10], 1),
    };
    let m = workloads::fig1b_negation(sizes, depth);
    rep.report(
        "fig1b_negation",
        "Fig 1(b) negation: CRPQ¬ data complexity (growing graph) and quantifier depth",
        &m,
        false,
    );

    // F1b-L1: linear constraints.
    let (sizes, rows): (&[usize], usize) = match mode {
        Mode::Full => (&[4, 6, 8, 10], 4),
        Mode::Quick => (&[4, 6], 4),
        Mode::Smoke => (&[4], 1),
    };
    let m = workloads::fig1b_linear(sizes, rows);
    rep.report(
        "fig1b_linear",
        "Fig 1(b) linear constraints: itinerary queries, growing network and growing constraint rows",
        &m,
        false,
    );

    // APP-1: ρ-isomorphism associations.
    let sizes: &[usize] = match mode {
        Mode::Full => &[10, 20, 30, 40],
        Mode::Quick => &[10, 20],
        Mode::Smoke => &[10],
    };
    let m = workloads::app_rho_iso(sizes);
    rep.report("app_rho_iso", "APP-1 semantic-web associations (ρ-isomorphism)", &m, false);

    // APP-3: sequence alignment.
    let (read_len, max_k) = match mode {
        Mode::Full => (12, 3),
        Mode::Quick => (8, 3),
        Mode::Smoke => (8, 1),
    };
    let m = workloads::app_alignment(read_len, max_k);
    rep.report(
        "app_alignment",
        "APP-3 sequence alignment: edit-distance relation D≤k for growing k",
        &m,
        true,
    );

    // APP-2: pattern matching.
    let sizes: &[usize] = match mode {
        Mode::Full => &[4, 8, 12],
        Mode::Quick => &[3, 5],
        Mode::Smoke => &[3],
    };
    let m = workloads::app_pattern(sizes);
    rep.report(
        "app_pattern",
        "APP-2 pattern matching: squares (pattern XX) over growing string graphs",
        &m,
        false,
    );

    // PLAN-1: the cost-based query planner.
    run_plan_family(mode, rep);

    // PREP: the prepared-query pipeline (compile vs run, reuse family).
    run_prepared(mode, rep);

    // SERVE: the query service over loopback TCP.
    run_serve(mode, rep);
}

/// Runs the query-service experiment: an in-process server on loopback TCP,
/// swept over concurrent client-thread counts. Series: `p50`/`p95` request
/// latency and `mean` seconds per request (note carries throughput).
fn run_serve(mode: Mode, rep: &mut Report) {
    let (threads, requests, n): (&[usize], usize, usize) = match mode {
        Mode::Full => (&[1, 4, 8], 150, 400),
        Mode::Quick => (&[1, 4], 50, 100),
        Mode::Smoke => (&[1], 8, 50),
    };
    let mut m = ecrpq_bench::serve::serve_family(threads, requests, n);

    // The high-concurrency load sweep: legacy closed-loop vs pipelined
    // open-loop vs batched, per connection count, with the connection count
    // deliberately driven past the server's admission capacity so rejection
    // accounting is exercised. Quick-mode points use connection counts the
    // full baseline never records, so the regression gate skips them.
    let load_cfg = match mode {
        Mode::Full => ecrpq_bench::load::LoadConfig {
            conns: vec![64, 256, 1024],
            workers: 64,
            requests: 100,
            n: 60,
            batch: 16,
        },
        Mode::Quick => ecrpq_bench::load::LoadConfig {
            conns: vec![16, 48],
            workers: 16,
            requests: 40,
            n: 60,
            batch: 16,
        },
        Mode::Smoke => ecrpq_bench::load::LoadConfig {
            conns: vec![4],
            workers: 2,
            requests: 20,
            n: 40,
            batch: 8,
        },
    };
    m.extend(ecrpq_bench::load::load_family(&load_cfg));
    rep.report(
        "serve",
        "SERVE query service: loopback latency per client-thread count + \
         load sweep (legacy vs pipelined vs batch) per connection count",
        &m,
        false,
    );
}

/// Runs the query-planner experiment: warm run time of the plan-sensitive
/// workloads (a pinnable bound constant; a reverse-favored language) under
/// the static plan vs the cost-based plan, per graph size. The two series of
/// each workload differ only in their `PlannerMode`, so the ratio is the
/// planner's speedup.
fn run_plan_family(mode: Mode, rep: &mut Report) {
    let sizes: &[usize] = match mode {
        Mode::Full => &[1000, 2000, 4000],
        Mode::Quick => &[500, 1000],
        Mode::Smoke => &[200],
    };
    let m = workloads::plan_speedup(sizes);
    rep.report(
        "plan",
        "PLAN-1 cost-based planner: warm run time, static vs cost-based plans (pinned constant; reverse-favored language)",
        &m,
        false,
    );
}

/// Runs the prepared-pipeline experiment: a compile/run split of
/// representative workloads plus the `prepared_reuse` micro-family (one
/// query, N fresh graphs; the compile column collapses to ≈ 0 on reuse).
fn run_prepared(mode: Mode, rep: &mut Report) {
    let (graphs, n, rei_m, edit_k) = match mode {
        Mode::Full => (5, 400, 3, 2),
        Mode::Quick => (3, 100, 2, 1),
        Mode::Smoke => (2, 50, 1, 1),
    };
    let mut m = workloads::prepared_split(n, rei_m, edit_k);
    m.extend(workloads::prepared_reuse(graphs, n));
    ecrpq_bench::print_compile_run_table(
        "PREP prepared-query pipeline: compile vs run (reuse = same query, fresh graphs)",
        &m,
    );
    rep.report_quiet("prepared", &m);
}
