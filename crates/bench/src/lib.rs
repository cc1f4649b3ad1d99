//! Workload definitions shared by the micro-benchmarks (`benches/*.rs`,
//! built on [`microbench`]) and the `harness` binary.
//!
//! Every public function in [`workloads`] corresponds to one experiment of
//! `EXPERIMENTS.md` (one cell group of Figure 1 of the paper, or one of the
//! Section 4 / Section 8.2 application scenarios). Each returns a list of
//! [`Measurement`]s: the swept parameter, the measured wall-clock time of one
//! evaluation, and a short annotation (answer counts, state counts) so the
//! harness output can be sanity-checked against expectations.

pub mod load;
pub mod microbench;
pub mod serve;

/// The shared JSON writer/parser (promoted to `ecrpq-util`; re-exported so
/// existing `ecrpq_bench::json` callers compile unchanged).
pub use ecrpq_util::json;
/// One measured point of an experiment series (lives in `ecrpq-util`, shared
/// with the server bench family).
pub use ecrpq_util::Measurement;

use ecrpq::eval::{self, EvalConfig};
use ecrpq::query::Ecrpq;
use ecrpq_automata::builtin;
use ecrpq_automata::nfa::Nfa;
use ecrpq_automata::relation::RegularRelation;
use ecrpq_automata::Symbol;
use ecrpq_graph::generators;
use ecrpq_graph::GraphDb;
use std::time::Instant;

/// Timed repetitions per measured point; the median is recorded, which is
/// what the `--compare` regression gate of the harness diffs.
pub const MEASURE_SAMPLES: usize = 5;

/// Untimed warmup iterations before the samples (same policy as
/// [`microbench::Config`]), so one-time costs — allocator warmup, lazily
/// compiled simulation tables — do not skew the medians.
pub const MEASURE_WARMUP: usize = 1;

/// Times a closure [`MEASURE_SAMPLES`] times (after [`MEASURE_WARMUP`]
/// untimed runs) and records the median wall-clock time in a [`Measurement`].
pub fn measure<F: FnMut() -> String>(series: &str, param: u64, mut f: F) -> Measurement {
    for _ in 0..MEASURE_WARMUP {
        let _ = f();
    }
    let mut times = Vec::with_capacity(MEASURE_SAMPLES);
    let mut note = String::new();
    for _ in 0..MEASURE_SAMPLES {
        let start = Instant::now();
        note = f();
        times.push(start.elapsed().as_secs_f64());
    }
    Measurement { series: series.to_string(), param, seconds: microbench::median(&times), note }
}

/// Least-squares slope of log(time) against log(param): the fitted polynomial
/// degree of a series. Meaningful only for polynomially growing series.
pub fn fitted_exponent(points: &[(u64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(p, t)| *p > 0 && *t > 0.0)
        .map(|(p, t)| ((*p as f64).ln(), t.ln()))
        .collect();
    if pts.len() < 2 {
        return f64::NAN;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|(x, _)| x).sum();
    let sy: f64 = pts.iter().map(|(_, y)| y).sum();
    let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Mean ratio between consecutive timings of a series: the per-step growth
/// factor. Meaningful for exponentially growing series.
pub fn growth_ratio(points: &[(u64, f64)]) -> f64 {
    let mut ratios = Vec::new();
    for w in points.windows(2) {
        if w[0].1 > 0.0 {
            ratios.push(w[1].1 / w[0].1);
        }
    }
    if ratios.is_empty() {
        f64::NAN
    } else {
        ratios.iter().sum::<f64>() / ratios.len() as f64
    }
}

/// Groups measurements by series into `(param, seconds)` lists.
pub fn by_series(measurements: &[Measurement]) -> Vec<(String, Vec<(u64, f64)>)> {
    let mut out: Vec<(String, Vec<(u64, f64)>)> = Vec::new();
    for m in measurements {
        match out.iter_mut().find(|(s, _)| *s == m.series) {
            Some((_, pts)) => pts.push((m.param, m.seconds)),
            None => out.push((m.series.clone(), vec![(m.param, m.seconds)])),
        }
    }
    out
}

/// An NFA over `{a, b}` accepting the language `(a^modulus)+`: non-empty
/// blocks of `a`s whose length is a multiple of `modulus`. The intersection
/// of several of these (for pairwise coprime moduli) only contains words of
/// length at least the product of the moduli, which is what makes the
/// regular-expression-intersection workloads force the PSPACE behaviour of
/// Theorem 6.3: the evaluator has to track the product of the counting
/// automata to find the (exponentially long) common word.
pub fn count_a_mod_language(alphabet: &ecrpq_automata::Alphabet, modulus: usize) -> Nfa<Symbol> {
    let a = alphabet.sym("a");
    let mut nfa = Nfa::new();
    let states = nfa.add_states(modulus + 1);
    nfa.add_initial(states[0]);
    nfa.set_accepting(states[modulus], true);
    for i in 0..modulus {
        nfa.add_transition(states[i], a, states[i + 1]);
    }
    nfa.add_transition(states[modulus], a, states[1]);
    nfa
}

const PRIMES: [usize; 8] = [2, 3, 5, 7, 11, 13, 17, 19];

/// Workload builders, one per experiment id of `EXPERIMENTS.md`.
pub mod workloads {
    use super::*;

    /// Shared evaluation configuration for the benchmark workloads.
    pub fn config() -> EvalConfig {
        EvalConfig::default()
    }

    // ------------------------------------------------------------------
    // F1a-D1 / F1a-D2: data complexity (fixed query, growing graph)
    // ------------------------------------------------------------------

    /// A random graph with an embedded `a^m b^m` chain whose endpoints are the
    /// named nodes `chain_start` / `chain_mid` / `chain_end`.
    pub fn data_complexity_graph(n: usize, seed: u64) -> GraphDb {
        let mut g = generators::random_graph(n, 2.0, &["a", "b"], seed);
        let start = g.add_named_node("chain_start");
        let mid = g.add_named_node("chain_mid");
        let end = g.add_named_node("chain_end");
        let a = g.alphabet().sym("a");
        let b = g.alphabet().sym("b");
        let mut prev = start;
        for _ in 0..3 {
            let x = g.add_node();
            g.add_edge(prev, a, x);
            prev = x;
        }
        g.add_edge(prev, a, mid);
        let mut prev = mid;
        for _ in 0..3 {
            let x = g.add_node();
            g.add_edge(prev, b, x);
            prev = x;
        }
        g.add_edge(prev, b, end);
        g
    }

    /// The (CRPQ, ECRPQ) Boolean query pair of the data-complexity family.
    /// Public because the `serve` workload ships the ECRPQ over the wire in
    /// textual form (`Display` emits the parser's syntax).
    pub fn data_queries(g: &GraphDb) -> (Ecrpq, Ecrpq) {
        let al = g.alphabet().clone();
        let crpq = Ecrpq::builder(&al)
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a a a a")
            .language("p2", "b b b b")
            .bind_node("x", "chain_start")
            .bind_node("y", "chain_end")
            .build()
            .unwrap();
        let ecrpq = Ecrpq::builder(&al)
            .atom("x", "p1", "z")
            .atom("z", "p2", "y")
            .language("p1", "a a a a")
            .language("p2", "b b b b")
            .relation(builtin::equal_length(&al), &["p1", "p2"])
            .bind_node("x", "chain_start")
            .bind_node("y", "chain_end")
            .build()
            .unwrap();
        (crpq, ecrpq)
    }

    /// Fig 1(a), data-complexity row: CRPQ vs ECRPQ vs `Q_len` evaluation of
    /// the same Boolean query as the graph grows.
    pub fn fig1a_data(sizes: &[usize]) -> Vec<Measurement> {
        let cfg = config();
        let mut out = Vec::new();
        for &n in sizes {
            let g = data_complexity_graph(n, 7);
            let (crpq, ecrpq) = data_queries(&g);
            out.push(measure("crpq", n as u64, || {
                format!("answer={}", eval::eval_boolean(&crpq, &g, &cfg).unwrap())
            }));
            out.push(measure("ecrpq", n as u64, || {
                format!("answer={}", eval::eval_boolean(&ecrpq, &g, &cfg).unwrap())
            }));
            out.push(measure("qlen", n as u64, || {
                format!("answers={}", eval::length::eval_qlen(&ecrpq, &g, &cfg).unwrap().len())
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // F1a-C1: combined complexity (fixed graph, growing query)
    // ------------------------------------------------------------------

    /// The regular-expression-intersection family on the paper's gadget graph
    /// `G_Σ`: `m` language atoms with pairwise-coprime counting moduli.
    /// `with_equality` adds the relations `π1 = πi`, turning the CRPQ into the
    /// ECRPQ of Theorem 6.3's reduction.
    pub fn rei_query(m: usize, with_equality: bool) -> (Ecrpq, GraphDb) {
        assert!(m <= PRIMES.len(), "rei_query supports at most {} atoms", PRIMES.len());
        let g = generators::rei_gadget_graph(&["a", "b"]);
        let al = g.alphabet().clone();
        let mut builder = Ecrpq::builder(&al);
        for (i, &prime) in PRIMES.iter().enumerate().take(m) {
            let path = format!("pi{i}");
            builder = builder.atom("x", &path, "y").bind_node("x", "v0");
            let lang = count_a_mod_language(&al, prime);
            builder = builder.relation(
                RegularRelation::from_language(&lang).named(&format!("a_mod_{prime}")),
                &[&path],
            );
        }
        if with_equality {
            for i in 1..m {
                builder = builder.relation(builtin::equality(&al), &["pi0", &format!("pi{i}")]);
            }
        }
        (builder.build().unwrap(), g)
    }

    /// Fig 1(a), combined-complexity row: CRPQ (NP, here effectively
    /// polynomial per atom) vs ECRPQ (PSPACE; the search must track the
    /// product of the counting automata) as the number of atoms grows.
    pub fn fig1a_combined(max_m_crpq: usize, max_m_ecrpq: usize) -> Vec<Measurement> {
        let cfg = config();
        let mut out = Vec::new();
        for m in 1..=max_m_crpq {
            let (q, g) = rei_query(m, false);
            out.push(measure("crpq", m as u64, || {
                format!("answer={}", eval::eval_boolean(&q, &g, &cfg).unwrap())
            }));
        }
        for m in 1..=max_m_ecrpq {
            let (q, g) = rei_query(m, true);
            out.push(measure("ecrpq", m as u64, || {
                let (ans, stats) = eval::eval_nodes_with_stats(&q, &g, &cfg).unwrap();
                format!("answer={} search_states={}", !ans.is_empty(), stats.search_states)
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // F1a-C2: the acyclicity restriction (Theorem 6.5)
    // ------------------------------------------------------------------

    /// Acyclic chain queries of `len` atoms over a line graph of `(ab)^k`:
    /// the CRPQ version (with and without the Yannakakis evaluator) and the
    /// ECRPQ version with equal-length relations between consecutive paths.
    pub fn chain_query(
        len: usize,
        with_relations: bool,
        alphabet: &ecrpq_automata::Alphabet,
    ) -> Ecrpq {
        let mut builder = Ecrpq::builder(alphabet).head_nodes(&["x0", &format!("x{len}")]);
        for i in 0..len {
            let path = format!("p{i}");
            builder = builder.atom(&format!("x{i}"), &path, &format!("x{}", i + 1));
            builder = builder.language(&path, "(a b)+");
        }
        if with_relations {
            for i in 1..len {
                builder = builder.relation(
                    builtin::equal_length(alphabet),
                    &[&format!("p{}", i - 1), &format!("p{i}")],
                );
            }
        }
        builder.build().unwrap()
    }

    /// Fig 1(a), acyclic column: acyclic CRPQs stay tractable as the query
    /// grows (both with the generic evaluator and the dedicated Yannakakis
    /// pass), while acyclic ECRPQs do not.
    pub fn fig1a_acyclic(graph_len: usize, max_len: usize) -> Vec<Measurement> {
        let cfg = config();
        let word: Vec<&str> = std::iter::repeat_n(["a", "b"], graph_len).flatten().collect();
        let (g, _, _) = generators::string_graph(&word);
        let al = g.alphabet().clone();
        let mut out = Vec::new();
        for len in 2..=max_len {
            let crpq = chain_query(len, false, &al);
            let ecrpq = chain_query(len, true, &al);
            out.push(measure("acyclic_crpq_yannakakis", len as u64, || {
                format!(
                    "answers={}",
                    eval::acyclic::eval_acyclic_crpq(&crpq, &g, &cfg).unwrap().len()
                )
            }));
            out.push(measure("acyclic_crpq_generic", len as u64, || {
                format!("answers={}", eval::eval_nodes(&crpq, &g, &cfg).unwrap().len())
            }));
            out.push(measure("acyclic_ecrpq", len as u64, || {
                format!("answers={}", eval::eval_nodes(&ecrpq, &g, &cfg).unwrap().len())
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // F1a-C3: the length abstraction Q_len (Theorem 6.7)
    // ------------------------------------------------------------------

    /// Fig 1(a), `Q_len` column: the REI ECRPQ family evaluated exactly vs
    /// under the length abstraction.
    pub fn fig1a_qlen(max_m_full: usize, max_m_qlen: usize) -> Vec<Measurement> {
        let cfg = config();
        let mut out = Vec::new();
        for m in 1..=max_m_full {
            let (q, g) = rei_query(m, true);
            out.push(measure("ecrpq_full", m as u64, || {
                format!("answer={}", eval::eval_boolean(&q, &g, &cfg).unwrap())
            }));
        }
        for m in 1..=max_m_qlen {
            let (q, g) = rei_query(m, true);
            out.push(measure("qlen", m as u64, || {
                format!("answers={}", eval::length::eval_qlen(&q, &g, &cfg).unwrap().len())
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // F1b-R1: repetition of path variables (Proposition 6.8)
    // ------------------------------------------------------------------

    /// The repeated-path-variable CRPQ of Proposition 6.8:
    /// `Ans() ← ⋀ (x, π, y_i), R_i(π)` — a single path variable must satisfy
    /// all the counting languages simultaneously.
    pub fn repetition_query(m: usize) -> (Ecrpq, GraphDb) {
        assert!(m <= PRIMES.len(), "repetition_query supports at most {} atoms", PRIMES.len());
        let g = generators::rei_gadget_graph(&["a", "b"]);
        let al = g.alphabet().clone();
        let mut builder = Ecrpq::builder(&al).bind_node("x", "v0");
        for (i, &prime) in PRIMES.iter().enumerate().take(m) {
            builder = builder.atom("x", "pi", &format!("y{i}"));
            let lang = count_a_mod_language(&al, prime);
            builder = builder.relation(
                RegularRelation::from_language(&lang).named(&format!("a_mod_{prime}")),
                &["pi"],
            );
        }
        (builder.build().unwrap(), g)
    }

    /// Fig 1(b), repetition columns: the same intersection expressed with a
    /// repeated path variable (PSPACE-hard) vs with independent path
    /// variables (easy).
    pub fn fig1b_repetition(max_m: usize) -> Vec<Measurement> {
        let cfg = config();
        let mut out = Vec::new();
        for m in 1..=max_m {
            let (q_rep, g) = repetition_query(m);
            let (q_free, g2) = rei_query(m, false);
            out.push(measure("crpq_repeated_pathvar", m as u64, || {
                let (ans, stats) = eval::eval_nodes_with_stats(&q_rep, &g, &cfg).unwrap();
                format!("answer={} search_states={}", !ans.is_empty(), stats.search_states)
            }));
            out.push(measure("crpq_repetition_free", m as u64, || {
                format!("answer={}", eval::eval_boolean(&q_free, &g2, &cfg).unwrap())
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // F1b-N1: negation (Theorems 8.1 and 8.2)
    // ------------------------------------------------------------------

    /// Fig 1(b), negation columns: data complexity of a fixed CRPQ¬ formula
    /// over growing random graphs, and the cost of growing quantifier depth
    /// on a fixed small graph.
    pub fn fig1b_negation(sizes: &[usize], max_depth: usize) -> Vec<Measurement> {
        use ecrpq::eval::negation::{eval_crpq_neg, Assignment, Formula};
        let cfg = config();
        let mut out = Vec::new();
        // Data complexity: ∀π ((x,π,y) → label ∈ a(a|b)*) for a fixed pair.
        for &n in sizes {
            let g = generators::random_graph(n, 1.5, &["a", "b"], 11);
            let al = g.alphabet().clone();
            let phi = Formula::forall_path(
                "pi",
                Formula::edge("x", "pi", "y")
                    .not()
                    .or(Formula::lang("pi", "a (a|b)*", &al).unwrap()),
            );
            let asg = Assignment::empty()
                .with_node("x", ecrpq_graph::NodeId(0))
                .with_node("y", ecrpq_graph::NodeId(1));
            out.push(measure("crpq_neg_data", n as u64, || {
                format!("holds={}", eval_crpq_neg(&phi, &g, &al, &asg, &cfg).unwrap())
            }));
        }
        // Combined complexity: alternating quantifier depth on a small graph.
        let g = generators::random_graph(8, 1.5, &["a", "b"], 3);
        let al = g.alphabet().clone();
        for depth in 1..=max_depth {
            let mut phi = Formula::lang("pi1", "a (a|b)*", &al).unwrap();
            for d in (1..=depth).rev() {
                let var = format!("pi{d}");
                let inner = Formula::edge("x", &var, "y").and(phi);
                phi = if d % 2 == 0 {
                    Formula::forall_path(&var, Formula::edge("x", &var, "y").not().or(inner))
                } else {
                    Formula::exists_path(&var, inner)
                };
            }
            let phi = Formula::exists_node("x", Formula::exists_node("y", phi));
            let asg = Assignment::empty();
            out.push(measure("crpq_neg_depth", depth as u64, || {
                format!("holds={}", eval_crpq_neg(&phi, &g, &al, &asg, &cfg).unwrap())
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // F1b-L1: linear constraints (Theorem 8.5)
    // ------------------------------------------------------------------

    /// Fig 1(b), linear-constraint column: the airline itinerary query over
    /// growing flight networks (data complexity) and with a growing number of
    /// constraint rows (combined complexity).
    pub fn fig1b_linear(sizes: &[usize], max_rows: usize) -> Vec<Measurement> {
        use ecrpq::eval::counts::{fraction_at_least, label_count};
        use ecrpq_automata::semilinear::CmpOp;
        let mut out = Vec::new();
        for &cities in sizes {
            let g = generators::flight_network(cities, &["SQ", "BA", "QF"], cities * 4, 3, 5);
            let al = g.alphabet().clone();
            let c = fraction_at_least("p", "SQ", 80);
            let q = Ecrpq::builder(&al)
                .atom("x", "p", "y")
                .bind_node("x", "city0")
                .bind_node("y", "city1")
                .linear_constraint(c.terms.clone(), c.op, c.constant)
                .build()
                .unwrap();
            let cfg = EvalConfig { max_convolution_steps: Some(24), ..EvalConfig::default() };
            out.push(measure("linear_data", cities as u64, || {
                format!("answer={}", eval::eval_boolean(&q, &g, &cfg).unwrap())
            }));
        }
        let g = generators::flight_network(8, &["SQ", "BA", "QF"], 32, 3, 5);
        let al = g.alphabet().clone();
        for rows in 1..=max_rows {
            let mut builder = Ecrpq::builder(&al)
                .atom("x", "p", "y")
                .bind_node("x", "city0")
                .bind_node("y", "city1");
            let constraints = [
                fraction_at_least("p", "SQ", 50),
                label_count("p", "BA", CmpOp::Le, 4),
                label_count("p", "QF", CmpOp::Le, 4),
                ecrpq::eval::counts::length("p", CmpOp::Le, 21),
            ];
            for c in constraints.iter().take(rows) {
                builder = builder.linear_constraint(c.terms.clone(), c.op, c.constant);
            }
            let q = builder.build().unwrap();
            let cfg = EvalConfig { max_convolution_steps: Some(24), ..EvalConfig::default() };
            out.push(measure("linear_rows", rows as u64, || {
                format!("answer={}", eval::eval_boolean(&q, &g, &cfg).unwrap())
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // APP-1..4: the Section 4 / 8.2 application workloads
    // ------------------------------------------------------------------

    /// ρ-isomorphism association queries over RDF-style graphs of growing size.
    pub fn app_rho_iso(sizes: &[usize]) -> Vec<Measurement> {
        let cfg = config();
        let mut out = Vec::new();
        for &n in sizes {
            let w = generators::rdf_subproperty_graph(n, 4, 1.6, 13);
            let al = w.graph.alphabet().clone();
            let rho = builtin::rho_isomorphism(&al, &w.subproperties, true);
            // "Are e0 and e1 ρ-isoAssociated?" — Boolean so the data-complexity
            // sweep is dominated by the graph, not by the number of answers.
            let q = Ecrpq::builder(&al)
                .atom("x", "p1", "z1")
                .atom("y", "p2", "z2")
                .language("p1", ". .*")
                .language("p2", ". .*")
                .relation(rho, &["p1", "p2"])
                .bind_node("x", "e0")
                .bind_node("y", "e1")
                .build()
                .unwrap();
            out.push(measure("rho_iso", n as u64, || {
                format!("associated={}", eval::eval_boolean(&q, &w.graph, &cfg).unwrap())
            }));
        }
        out
    }

    /// Edit-distance checks between random DNA reads for growing k.
    pub fn app_alignment(read_len: usize, max_k: usize) -> Vec<Measurement> {
        let cfg = config();
        let mut out = Vec::new();
        let seq1 = generators::random_dna(read_len, 21);
        let mut seq2 = seq1.clone();
        // introduce two edits
        if read_len > 4 {
            seq2[read_len / 3] = "A";
            seq2.remove(2 * read_len / 3);
        }
        let w = generators::sequence_pair_graph(&seq1, &seq2, false);
        let al = w.graph.alphabet().clone();
        for k in 0..=max_k {
            let rel = builtin::edit_distance_leq(&al, k);
            let q = Ecrpq::builder(&al)
                .atom("x1", "p1", "y1")
                .atom("x2", "p2", "y2")
                .relation(rel, &["p1", "p2"])
                .bind_node("x1", "s0")
                .bind_node("y1", &format!("s{}", seq1.len()))
                .bind_node("x2", "t0")
                .bind_node("y2", &format!("t{}", seq2.len()))
                .build()
                .unwrap();
            out.push(measure("edit_distance_k", k as u64, || {
                format!("within={}", eval::eval_boolean(&q, &w.graph, &cfg).unwrap())
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // PREP-1 / PREP-2: the prepared-query pipeline (compile vs run)
    // ------------------------------------------------------------------

    /// The `prepared_reuse` micro-family: one query prepared once, then
    /// bound and run against `graphs` fresh graphs of `n` nodes. Per graph
    /// `i` three series are recorded:
    ///
    /// * `reuse_compile` — the time to make every compiled automaton
    ///   artifact available before run `i` (prepare + [`PreparedQuery::warm`]
    ///   on the first graph; pure cache hits, ≈ 0, afterwards);
    /// * `reuse_run` — bind + execute with the prepared query;
    /// * `reuse_oneshot` — the classic one-shot `eval_nodes` on the same
    ///   graph, for comparison.
    ///
    /// [`PreparedQuery::warm`]: ecrpq::eval::PreparedQuery::warm
    pub fn prepared_reuse(graphs: usize, n: usize) -> Vec<Measurement> {
        use ecrpq::eval::PreparedQuery;
        let cfg = config();
        let mut out = Vec::new();
        let g0 = data_complexity_graph(n, 1);
        let (_, query) = data_queries(&g0);
        let mut prepared: Option<PreparedQuery> = None;
        for i in 1..=graphs {
            let g = data_complexity_graph(n, i as u64);
            let start = Instant::now();
            let pq = prepared.get_or_insert_with(|| ecrpq::eval::prepare(&query).unwrap());
            let (hits, misses) = pq.warm();
            out.push(Measurement {
                series: "reuse_compile".to_string(),
                param: i as u64,
                seconds: start.elapsed().as_secs_f64(),
                note: format!("cache_hits={hits} cache_misses={misses}"),
            });
            let pq = prepared.as_ref().unwrap();
            out.push(measure("reuse_run", i as u64, || {
                let bound = pq.bind(&g).unwrap();
                let (ans, stats) = bound.run_nodes(&cfg).unwrap();
                format!("answers={} cache_hits={}", ans.len(), stats.sim_cache_hits)
            }));
            out.push(measure("reuse_oneshot", i as u64, || {
                format!("answers={}", eval::eval_nodes(&query, &g, &cfg).unwrap().len())
            }));
        }
        out
    }

    /// Compile/run split of representative workloads: per point, a
    /// `<name>_compile` series (query construction + prepare + warm, rebuilt
    /// from scratch every sample so the compilation is cold) and a
    /// `<name>_run` series (bind + execute with a pre-warmed prepared
    /// query). Shows compilation cost as an explicit, separate line item.
    pub fn prepared_split(n: usize, rei_m: usize, edit_k: usize) -> Vec<Measurement> {
        let cfg = config();
        let mut out = Vec::new();

        // Data-complexity ECRPQ over a random graph.
        let g = data_complexity_graph(n, 7);
        let build = || data_queries(&g).1;
        out.push(measure("data_ecrpq_compile", n as u64, || {
            let q = build();
            let pq = ecrpq::eval::prepare(&q).unwrap();
            let (_, misses) = pq.warm();
            format!("compiled={misses}")
        }));
        let q = build();
        let pq = ecrpq::eval::prepare(&q).unwrap();
        pq.warm();
        out.push(measure("data_ecrpq_run", n as u64, || {
            let (holds, _) = pq.bind(&g).unwrap().run_boolean(&cfg).unwrap();
            format!("answer={holds}")
        }));

        // The REI ECRPQ family (counting automata + equality relations).
        let (q, g) = rei_query(rei_m, true);
        out.push(measure("rei_ecrpq_compile", rei_m as u64, || {
            let (q, _) = rei_query(rei_m, true);
            let pq = ecrpq::eval::prepare(&q).unwrap();
            let (_, misses) = pq.warm();
            format!("compiled={misses}")
        }));
        let pq = ecrpq::eval::prepare(&q).unwrap();
        pq.warm();
        out.push(measure("rei_ecrpq_run", rei_m as u64, || {
            let (holds, _) = pq.bind(&g).unwrap().run_boolean(&cfg).unwrap();
            format!("answer={holds}")
        }));

        // Edit distance D≤k between two reads (compile-heavy relation).
        let seq1 = generators::random_dna(10, 21);
        let mut seq2 = seq1.clone();
        seq2[3] = "A";
        seq2.remove(7);
        let w = generators::sequence_pair_graph(&seq1, &seq2, false);
        let al = w.graph.alphabet().clone();
        let build = |k: usize| {
            Ecrpq::builder(&al)
                .atom("x1", "p1", "y1")
                .atom("x2", "p2", "y2")
                .relation(builtin::edit_distance_leq(&al, k), &["p1", "p2"])
                .bind_node("x1", "s0")
                .bind_node("y1", &format!("s{}", seq1.len()))
                .bind_node("x2", "t0")
                .bind_node("y2", &format!("t{}", seq2.len()))
                .build()
                .unwrap()
        };
        out.push(measure("edit_distance_compile", edit_k as u64, || {
            let q = build(edit_k);
            let pq = ecrpq::eval::prepare(&q).unwrap();
            let (_, misses) = pq.warm();
            format!("compiled={misses}")
        }));
        let q = build(edit_k);
        let pq = ecrpq::eval::prepare(&q).unwrap();
        pq.warm();
        out.push(measure("edit_distance_run", edit_k as u64, || {
            let (holds, _) = pq.bind(&w.graph).unwrap().run_boolean(&cfg).unwrap();
            format!("within={holds}")
        }));

        out
    }

    /// Square-pattern matching (pattern `XX`) over string graphs of growing
    /// length.
    pub fn app_pattern(sizes: &[usize]) -> Vec<Measurement> {
        let cfg = config();
        let mut out = Vec::new();
        for &n in sizes {
            // the string (ab)^n — its square prefixes are found by the query
            let word: Vec<&str> = std::iter::repeat_n(["a", "b"], n).flatten().collect();
            let (g, _, _) = generators::string_graph(&word);
            let al = g.alphabet().clone();
            let q = ecrpq::expressiveness::pattern_to_ecrpq(
                &ecrpq::expressiveness::parse_pattern("XX"),
                &al,
            )
            .unwrap();
            out.push(measure("pattern_squares", n as u64, || {
                format!("answers={}", eval::eval_nodes(&q, &g, &cfg).unwrap().len())
            }));
        }
        out
    }

    // ------------------------------------------------------------------
    // PLAN-1: cost-based planner (static vs cost-based plans, warm runs)
    // ------------------------------------------------------------------

    /// A seeded random graph with named nodes `v0…v{n-1}` over `{a, b}`:
    /// roughly 3n edges, `b` carrying `b_edges` of them (the rest `a`).
    fn planner_graph(n: usize, b_edges: usize, seed: u64) -> GraphDb {
        use ecrpq_graph::prng::SplitMix64;
        let mut g = GraphDb::new(ecrpq_automata::Alphabet::from_labels(["a", "b"]));
        let nodes: Vec<_> = (0..n).map(|i| g.add_named_node(&format!("v{i}"))).collect();
        let a = g.alphabet().sym("a");
        let b = g.alphabet().sym("b");
        let mut rng = SplitMix64::seed_from_u64(seed);
        for _ in 0..n * 3 {
            g.add_edge(nodes[rng.gen_index(n)], a, nodes[rng.gen_index(n)]);
        }
        for _ in 0..b_edges.max(1) {
            g.add_edge(nodes[rng.gen_index(n)], b, nodes[rng.gen_index(n)]);
        }
        g
    }

    /// PLAN-1: warm run time of two plan-sensitive workloads under the
    /// static planner vs the cost-based planner, per graph size `n`.
    ///
    /// * `const_seed_*` — `Ans(y) <- (x, p, y), L(p) = a (a|b)*, x = :v0`
    ///   on a seeded random graph: the cost planner pins the BFS to the
    ///   bound constant `v0` (one source), the static plan scans all `n`
    ///   sources.
    /// * `rev_favored_*` — `Ans(x, y) <- (x, p, y), L(p) = a* b` on a graph
    ///   with dense `a` edges and rare `b` edges: the cost planner runs the
    ///   BFS backwards from the few `b` targets, the static plan walks the
    ///   huge forward `a*` closure from every node.
    ///
    /// Each query is prepared and warmed once; each measured point rebinds
    /// with the planner mode under test and times the warm run only, so the
    /// series differ *only* in the chosen plan. The differential suite
    /// (`tests/planner_differential.rs`) proves the answers are identical.
    pub fn plan_speedup(sizes: &[usize]) -> Vec<Measurement> {
        use ecrpq::eval::PlannerMode;
        use ecrpq::parse_query;
        let cfg = config();
        let modes = [("static", PlannerMode::Static), ("cost", PlannerMode::CostBased)];
        let mut out = Vec::new();

        for &n in sizes {
            // Selective bound constant: pinning beats the all-sources scan.
            let g = planner_graph(n, n / 4, 0xC057_0001 ^ n as u64);
            let q =
                parse_query("Ans(y) <- (x, p, y), L(p) = a (a|b)*, x = :v0", g.alphabet()).unwrap();
            let pq = eval::prepare(&q).unwrap();
            pq.warm();
            for (name, planner) in modes {
                let bound = pq.bind_with(&g, planner).unwrap();
                out.push(measure(&format!("const_seed_{name}"), n as u64, || {
                    let (ans, _) = bound.run_nodes(&cfg).unwrap();
                    format!("answers={} n={n}", ans.len())
                }));
            }

            // Reverse-favored language: rare last symbol, dense first symbol.
            let g = planner_graph(n, (n / 50).max(1), 0xC057_0002 ^ n as u64);
            let q = parse_query("Ans(x, y) <- (x, p, y), L(p) = a* b", g.alphabet()).unwrap();
            let pq = eval::prepare(&q).unwrap();
            pq.warm();
            for (name, planner) in modes {
                let bound = pq.bind_with(&g, planner).unwrap();
                out.push(measure(&format!("rev_favored_{name}"), n as u64, || {
                    let (ans, _) = bound.run_nodes(&cfg).unwrap();
                    format!("answers={} n={n}", ans.len())
                }));
            }
        }
        out
    }
}

/// Pretty-prints the prepared-pipeline measurements: one row per
/// `(workload, param)` point with the compile time and the run time as
/// separate columns (plus the one-shot total where recorded). Rows are
/// paired by series suffix: `<base>_compile` / `<base>_run` /
/// `<base>_oneshot`.
pub fn print_compile_run_table(title: &str, measurements: &[Measurement]) {
    println!("\n== {title} ==");
    println!(
        "{:<22} {:>8} {:>13} {:>13} {:>13}  note",
        "workload", "param", "compile s", "run s", "oneshot s"
    );
    let find = |series: &str, param: u64| {
        measurements.iter().find(|m| m.series == series && m.param == param)
    };
    for m in measurements {
        let Some(base) = m.series.strip_suffix("_compile") else {
            continue;
        };
        let run = find(&format!("{base}_run"), m.param);
        let oneshot = find(&format!("{base}_oneshot"), m.param);
        let fmt =
            |m: Option<&Measurement>| m.map_or("-".to_string(), |m| format!("{:.6}", m.seconds));
        let mut note = m.note.clone();
        if let Some(r) = run {
            if !r.note.is_empty() {
                if !note.is_empty() {
                    note.push_str("; ");
                }
                note.push_str(&r.note);
            }
        }
        println!(
            "{:<22} {:>8} {:>13.6} {:>13} {:>13}  {}",
            base,
            m.param,
            m.seconds,
            fmt(run),
            fmt(oneshot),
            note
        );
    }
}

/// Pretty-prints a set of measurements as the table the harness emits.
pub fn print_table(title: &str, measurements: &[Measurement], exponential: bool) {
    println!("\n== {title} ==");
    println!("{:<28} {:>10} {:>14}  note", "series", "param", "seconds");
    for m in measurements {
        println!("{:<28} {:>10} {:>14.6}  {}", m.series, m.param, m.seconds, m.note);
    }
    for (series, pts) in by_series(measurements) {
        if exponential {
            println!("   {series}: growth ratio per step ≈ {:.2}", growth_ratio(&pts));
        } else {
            println!("   {series}: fitted exponent ≈ {:.2}", fitted_exponent(&pts));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_exponent_of_quadratic_series() {
        let pts: Vec<(u64, f64)> = (1..=6u64).map(|n| (n, (n * n) as f64)).collect();
        let e = fitted_exponent(&pts);
        assert!((e - 2.0).abs() < 0.05, "exponent {e}");
    }

    #[test]
    fn growth_ratio_of_doubling_series() {
        let pts: Vec<(u64, f64)> = (0..5u64).map(|n| (n, (1 << n) as f64)).collect();
        let r = growth_ratio(&pts);
        assert!((r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn count_a_mod_language_counts() {
        let al = ecrpq_automata::Alphabet::from_labels(["a", "b"]);
        let nfa = count_a_mod_language(&al, 3);
        let (a, b) = (al.sym("a"), al.sym("b"));
        assert!(!nfa.accepts(&[]));
        assert!(nfa.accepts(&[a, a, a]));
        assert!(nfa.accepts(&[a, a, a, a, a, a]));
        assert!(!nfa.accepts(&[a, a]));
        assert!(!nfa.accepts(&[a, b, a]));
    }

    #[test]
    fn rei_queries_are_satisfiable() {
        let cfg = workloads::config();
        let (q, g) = workloads::rei_query(2, true);
        assert!(eval::eval_boolean(&q, &g, &cfg).unwrap());
        let (q, g) = workloads::rei_query(2, false);
        assert!(eval::eval_boolean(&q, &g, &cfg).unwrap());
        let (q, g) = workloads::repetition_query(2);
        assert!(eval::eval_boolean(&q, &g, &cfg).unwrap());
    }

    #[test]
    fn small_workloads_run() {
        let m = workloads::fig1a_data(&[30]);
        assert_eq!(m.len(), 3);
        let m = workloads::fig1a_acyclic(4, 3);
        assert!(!m.is_empty());
        let m = workloads::fig1b_negation(&[10], 1);
        assert_eq!(m.len(), 2);
        let m = workloads::app_pattern(&[3]);
        assert_eq!(m.len(), 1);
    }
}
