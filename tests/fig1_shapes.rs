//! The paper's Figure 1 as exact, seeded counts: one test per row.
//!
//! Each row's complexity claim is pinned through counters the engine
//! already reports — `EvalStats::search_states` (states visited by the
//! convolution search that relations force) and `BoundPlan::explain`'s
//! per-atom `actual_pairs` (pairs materialized by the reachability pass) and
//! `automaton_states` — never through wall-clock time. The counts are
//! deterministic (seeded graphs, fixed queries), so any change to them is a
//! change in the engine's behaviour, not noise. Rows without a counter
//! (`Q_len`, negation) pin their outcomes only.

use ecrpq::eval::counts::{fraction_at_least, label_count};
use ecrpq::eval::negation::{eval_crpq_neg, Assignment, Formula};
use ecrpq::eval::{self, length::eval_qlen, EvalConfig, ExplainReport};
use ecrpq::prelude::*;
use ecrpq::query::QLinearConstraint;
use ecrpq_automata::semilinear::CmpOp;
use ecrpq_graph::{generators, NodeId};
use ecrpq_integration::fig1::*;

fn cfg() -> EvalConfig {
    EvalConfig::default()
}

/// Runs `q` on `g` in node mode under the default planner and reports the
/// plan next to what it cost (answers, search states, per-atom pairs).
fn explain(q: &Ecrpq, g: &GraphDb, cfg: &EvalConfig) -> ExplainReport {
    eval::prepare(q).unwrap().bind(g).unwrap().explain(cfg).unwrap()
}

fn actual_pairs(r: &ExplainReport) -> Vec<u64> {
    r.atoms.iter().map(|a| a.actual_pairs).collect()
}

/// `p_m#`, the product of the first `m` primes: the length of the shortest
/// word in the intersection of the `m` counting languages of `rei_query`.
fn primorial(m: usize) -> u64 {
    [2u64, 3, 5, 7, 11][..m].iter().product()
}

/// Least-squares slope of log(y) against log(param): the fitted polynomial
/// degree of a series.
fn fitted_exponent(points: &[(u64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(p, y)| *p > 0 && *y > 0.0)
        .map(|(p, y)| ((*p as f64).ln(), y.ln()))
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

#[test]
fn fitted_exponent_of_quadratic_series() {
    let pts: Vec<(u64, f64)> = (1..=6u64).map(|n| (n, (n * n) as f64)).collect();
    let e = fitted_exponent(&pts);
    assert!((e - 2.0).abs() < 0.05, "exponent {e}");
}

/// Data complexity (CRPQs and ECRPQs are polynomial in the graph): a fixed
/// query over growing seeded graphs. Pinned to the chain's endpoints, both
/// the CRPQ and the ECRPQ cost the same at every size; unpinned, the CRPQ's
/// reachability pass grows at most quadratically in n.
#[test]
fn data_row_cost_is_flat_when_pinned_and_polynomial_when_not() {
    let sizes = [50usize, 100, 200, 400];
    let unpinned_pairs = [101u64, 188, 418, 726];
    let mut series = Vec::new();
    for (&n, &expected_pairs) in sizes.iter().zip(&unpinned_pairs) {
        let g = data_complexity_graph(n, 7);
        let (crpq, ecrpq) = data_queries(&g);

        let r = explain(&crpq, &g, &cfg());
        assert_eq!((r.answers, r.stats.search_states), (1, 0), "crpq n={n}");
        assert_eq!(actual_pairs(&r), [1, 1], "crpq n={n}");
        let r = explain(&ecrpq, &g, &cfg());
        assert_eq!((r.answers, r.stats.search_states), (1, 5), "ecrpq n={n}");
        assert_eq!(actual_pairs(&r), [1, 1], "ecrpq n={n}");

        let unpinned = parse_query(
            "Ans(x, y) <- (x, p1, z), (z, p2, y), L(p1) = a a a a, L(p2) = b b b b",
            g.alphabet(),
        )
        .unwrap();
        let r = explain(&unpinned, &g, &cfg());
        assert_eq!(r.stats.search_states, 0, "unpinned n={n}");
        let pairs: u64 = actual_pairs(&r).iter().sum();
        assert_eq!(pairs, expected_pairs, "unpinned n={n}");
        series.push((n as u64, pairs as f64));
    }
    let e = fitted_exponent(&series);
    assert!(e <= 2.0, "unpinned reach pairs grow like n^{e:.2}");
}

/// Combined complexity (Thm 6.3: NP for CRPQs, PSPACE for ECRPQs): the
/// regular-expression-intersection family on the gadget graph. With the
/// equality relations the search must walk to the shortest common word, of
/// length `p_m#`; without them every atom is answered by reachability alone.
#[test]
fn combined_row_ecrpq_search_follows_the_primorial_and_crpq_never_searches() {
    for m in 2..=5 {
        let (q, g) = rei_query(m, true);
        let r = explain(&q, &g, &cfg());
        assert_eq!(r.answers, 1, "ecrpq m={m}");
        assert_eq!(r.stats.search_states, primorial(m) + 1, "ecrpq m={m}");

        let (q, g) = rei_query(m, false);
        let r = explain(&q, &g, &cfg());
        assert_eq!(r.answers, 1, "crpq m={m}");
        assert_eq!(r.stats.search_states, 0, "crpq m={m}");
        assert!(actual_pairs(&r).iter().all(|&p| p <= 2), "crpq m={m}: {:?}", actual_pairs(&r));
    }
}

/// The acyclic restriction (Thm 6.5: acyclic CRPQs are PTIME in combined
/// complexity, acyclic ECRPQs stay PSPACE-hard). Chains of growing length
/// over `(ab)^6`: the Yannakakis pass answers the CRPQ exactly like the
/// generic evaluator and nothing searches; the ECRPQ needs the convolution
/// search. (On this graph the search does not grow with the chain, so only
/// the separation is asserted.)
#[test]
fn acyclic_row_crpq_never_searches_and_ecrpq_does() {
    let word: Vec<&str> = std::iter::repeat_n(["a", "b"], 6).flatten().collect();
    let (g, _, _) = generators::string_graph(&word);
    let al = g.alphabet().clone();
    // (chain length, CRPQ answers, ECRPQ answers, ECRPQ search states)
    for (len, crpq_answers, ecrpq_answers, ecrpq_states) in
        [(2, 15, 9, 196), (3, 10, 5, 163), (4, 6, 3, 85)]
    {
        let crpq = chain_query(len, false, &al);
        let mut yannakakis = eval::acyclic::eval_acyclic_crpq(&crpq, &g, &cfg()).unwrap();
        let mut generic = eval::eval_nodes(&crpq, &g, &cfg()).unwrap();
        yannakakis.sort();
        generic.sort();
        assert_eq!(yannakakis, generic, "len={len}");
        let r = explain(&crpq, &g, &cfg());
        assert_eq!((r.answers, r.stats.search_states), (crpq_answers, 0), "crpq len={len}");

        let r = explain(&chain_query(len, true, &al), &g, &cfg());
        assert_eq!((r.answers, r.stats.search_states), (ecrpq_answers, ecrpq_states), "len={len}");
    }
}

/// `Q_len` (Thm 6.7: the length abstraction drops to the complexity of
/// conjunctive queries): on the intersection family and the data-complexity
/// ECRPQ the abstraction returns exactly the full evaluation's answers.
#[test]
fn qlen_row_matches_the_full_evaluation() {
    for m in 1..=5 {
        let (q, g) = rei_query(m, true);
        let full = eval::eval_nodes(&q, &g, &cfg()).unwrap();
        assert_eq!(full.len(), 1, "m={m}");
        assert_eq!(eval_qlen(&q, &g, &cfg()).unwrap(), full, "m={m}");
    }
    for n in [50, 100, 200, 400] {
        let g = data_complexity_graph(n, 7);
        let (_, ecrpq) = data_queries(&g);
        assert_eq!(eval_qlen(&ecrpq, &g, &cfg()).unwrap().len(), 1, "n={n}");
    }
}

/// Repetition (Prop 6.8: a repeated path variable makes CRPQs PSPACE-hard):
/// one path variable under `m` counting languages intersects them into one
/// unary automaton of `p_m# + 1` states and searches as far as the ECRPQ of
/// the combined row; the repetition-free form never searches.
#[test]
fn repetition_row_searches_the_intersection_and_repetition_free_does_not() {
    for m in 2..=5 {
        let (q, g) = repetition_query(m);
        let r = explain(&q, &g, &cfg());
        assert_eq!(r.answers, 1, "repeated m={m}");
        assert_eq!(r.stats.search_states, primorial(m) + 1, "repeated m={m}");
        let states: Vec<usize> = r.atoms.iter().map(|a| a.automaton_states).collect();
        assert_eq!(states, [primorial(m) as usize + 1], "repeated m={m}");

        let (q, g) = rei_query(m, false);
        let r = explain(&q, &g, &cfg());
        assert_eq!((r.answers, r.stats.search_states), (1, 0), "repetition-free m={m}");
    }
}

/// Negation (Thms 8.1/8.2): a fixed `CRPQ¬` formula over growing random
/// graphs, and alternating path quantifiers of growing depth on a fixed
/// graph. No counter exists here; the outcomes and ranks are pinned.
#[test]
fn negation_row_outcomes_and_quantifier_ranks() {
    for n in [10, 20, 40, 80] {
        let g = generators::random_graph(n, 1.5, &["a", "b"], 11);
        let al = g.alphabet().clone();
        // ∀π ((x,π,y) → label(π) ∈ a(a|b)*) for the fixed pair (0, 1).
        let phi = Formula::forall_path(
            "pi",
            Formula::edge("x", "pi", "y").not().or(Formula::lang("pi", "a (a|b)*", &al).unwrap()),
        );
        let asg = Assignment::empty().with_node("x", NodeId(0)).with_node("y", NodeId(1));
        assert!(eval_crpq_neg(&phi, &g, &al, &asg, &cfg()).unwrap(), "n={n}");
        assert_eq!(phi.quantifier_rank(), 1);
    }

    let g = generators::random_graph(8, 1.5, &["a", "b"], 3);
    let al = g.alphabet().clone();
    for depth in 1..=3 {
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
        assert!(eval_crpq_neg(&phi, &g, &al, &Assignment::empty(), &cfg()).unwrap(), "d={depth}");
        assert_eq!(phi.quantifier_rank(), depth + 2);
    }
}

/// Linear constraints (Thm 8.5): the airline itinerary query over growing
/// flight networks, and with a growing number of constraint rows.
#[test]
fn linear_row_outcomes_and_search_states() {
    let cfg = EvalConfig { max_convolution_steps: Some(24), ..EvalConfig::default() };
    let itinerary = |al: &Alphabet, rows: &[QLinearConstraint]| {
        let mut builder =
            Ecrpq::builder(al).atom("x", "p", "y").bind_node("x", "city0").bind_node("y", "city1");
        for c in rows {
            builder = builder.linear_constraint(c.terms.clone(), c.op, c.constant);
        }
        builder.build().unwrap()
    };

    // (cities, answers, search states) with at least 80% SQ legs
    for (cities, answers, states) in [(4, 1, 20), (6, 0, 398), (8, 1, 20), (10, 1, 74)] {
        let g = generators::flight_network(cities, &["SQ", "BA", "QF"], cities * 4, 3, 5);
        let q = itinerary(g.alphabet(), &[fraction_at_least("p", "SQ", 80)]);
        let r = explain(&q, &g, &cfg);
        assert_eq!((r.answers, r.stats.search_states), (answers, states), "cities={cities}");
    }

    let g = generators::flight_network(8, &["SQ", "BA", "QF"], 32, 3, 5);
    let constraints = [
        fraction_at_least("p", "SQ", 50),
        label_count("p", "BA", CmpOp::Le, 4),
        label_count("p", "QF", CmpOp::Le, 4),
        ecrpq::eval::counts::length("p", CmpOp::Le, 21),
    ];
    for rows in 1..=constraints.len() {
        let q = itinerary(g.alphabet(), &constraints[..rows]);
        let r = explain(&q, &g, &cfg);
        assert_eq!((r.answers, r.stats.search_states), (1, 20), "rows={rows}");
    }
}
