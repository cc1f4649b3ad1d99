//! Differential suite for the cost-based query planner.
//!
//! The planner (PR 6) may reorder the join, flip per-atom BFS direction,
//! and pin a BFS to a bound constant — but it must never change *what* a
//! query answers. This suite enforces that guarantee three ways:
//!
//! 1. A seeded corpus of random queries over graph families chosen so the
//!    cost-based and static planners actually disagree (rare-label
//!    languages, bound constants, chains with one selective atom). Every
//!    case is run under both planner modes and against the classical
//!    reference engine; answer sets and `verified` counts must be identical
//!    everywhere.
//! 2. Handcrafted instances where the divergence is *guaranteed* (a
//!    reverse-favored language, a pinnable bound constant, a selective
//!    chain), asserted via the `explain` surface: the two planners must
//!    produce different plans, and the suite as a whole must observe at
//!    least one divergent plan — so the corpus never silently degenerates
//!    into comparing a planner against itself.
//! 3. Pinned goldens of the `ExplainReport` rendering for three
//!    representative queries, so the EXPLAIN surface (join order,
//!    directions, pins, estimated vs actual cardinalities) stays stable.

use ecrpq::eval::{reference, ExplainReport, PlannerMode, PreparedQuery};
use ecrpq::prelude::*;
use ecrpq_integration::corpus::{alphabet, random_constant_free_query_text};
use ecrpq_integration::prop::Gen;

const SEED: u64 = 0x9_1A27_0006;

fn config() -> EvalConfig {
    EvalConfig { max_search_states: 100_000, ..EvalConfig::default() }
}

fn sorted(mut rows: Vec<Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    rows.sort();
    rows
}

/// A seeded random graph over the corpus alphabet `{a, b, c}` with a skewed
/// label distribution (many `a`, few `b`, one `c` edge), so label frequency
/// actually matters to the cost model.
fn skewed_graph(gen: &mut Gen, nodes: usize) -> GraphDb {
    let mut db = GraphDb::new(alphabet());
    let ids = db.add_nodes(nodes);
    for _ in 0..nodes * 3 {
        let from = ids[gen.index(nodes)];
        let to = ids[gen.index(nodes)];
        db.add_edge(from, Symbol(0), to);
    }
    for _ in 0..nodes / 4 {
        let from = ids[gen.index(nodes)];
        let to = ids[gen.index(nodes)];
        db.add_edge(from, Symbol(1), to);
    }
    db.add_edge(ids[gen.index(nodes)], Symbol(2), ids[gen.index(nodes)]);
    db
}

/// True when the two planners chose observably different plans: a different
/// join order, or any atom with a different BFS direction or pin.
fn plans_differ(a: &ExplainReport, b: &ExplainReport) -> bool {
    a.join_order != b.join_order
        || a.atoms
            .iter()
            .zip(b.atoms.iter())
            .any(|(x, y)| x.direction != y.direction || x.pinned != y.pinned)
}

/// Runs one (query, graph) case under both planners and checks answers + `verified` against the reference engine. Returns
/// whether the two planners produced different plans for this case, or
/// `None` when the reference engine blows the search budget (no ground
/// truth — the corpus skips such cases).
fn check_case(what: &str, query: &Ecrpq, g: &GraphDb, cfg: &EvalConfig) -> Option<bool> {
    let Ok((ref_nodes, ref_stats)) = reference::eval_nodes_with_stats(query, g, cfg) else {
        return None;
    };
    let ref_nodes = sorted(ref_nodes);

    let pq = PreparedQuery::prepare(query).unwrap();
    for planner in [PlannerMode::CostBased, PlannerMode::Static] {
        let (nodes, stats) = pq.bind_with(g, planner).unwrap().run_nodes(cfg).unwrap();
        assert_eq!(
            sorted(nodes),
            ref_nodes,
            "{what}: answer set diverged from reference ({planner:?})"
        );
        assert_eq!(
            stats.verified, ref_stats.verified,
            "{what}: verified count diverged from reference ({planner:?})"
        );
    }

    let cost = pq.bind_with(g, PlannerMode::CostBased).unwrap().explain(cfg).unwrap();
    let stat = pq.bind_with(g, PlannerMode::Static).unwrap().explain(cfg).unwrap();
    assert_eq!(cost.answers, stat.answers, "{what}: explain answer counts diverged");
    Some(plans_differ(&cost, &stat))
}

#[test]
fn corpus_answers_identical_across_planners_and_reference() {
    let al = alphabet();
    let cfg = config();
    let mut gen = Gen::new(SEED);
    let mut divergent = 0usize;

    let graphs = vec![
        ("skewed", skewed_graph(&mut gen, 12)),
        ("random", {
            let mut db = GraphDb::new(alphabet());
            let ids = db.add_nodes(6);
            for _ in 0..14 {
                let from = ids[gen.index(6)];
                let label = Symbol(gen.index(3) as u32);
                let to = ids[gen.index(6)];
                db.add_edge(from, label, to);
            }
            db
        }),
    ];

    for qi in 0..10 {
        let text = random_constant_free_query_text(&mut gen);
        let query = parse_query(&text, &al)
            .unwrap_or_else(|e| panic!("corpus query must parse: {text:?}: {e}"));
        for (family, g) in &graphs {
            let what = format!("query {qi} {text:?} on {family}");
            if check_case(&what, &query, g, &cfg) == Some(true) {
                divergent += 1;
            }
        }
    }
    assert!(
        divergent >= 1,
        "corpus never produced a plan divergence — the differential is vacuous"
    );
}

/// A reverse-favored instance: dense `a` edges, a single `b` edge, language
/// `a* b`. The target-side frontier (targets of `b`) is one node while the
/// source-side frontier is nearly the whole graph, so the cost planner must
/// run the BFS backwards; the static planner always goes forward.
#[test]
fn reverse_favored_language_flips_direction_but_not_answers() {
    let cfg = config();
    let mut gen = Gen::new(SEED ^ 0xB);
    let mut db = GraphDb::new(alphabet());
    let ids = db.add_nodes(40);
    for _ in 0..120 {
        let from = ids[gen.index(40)];
        let to = ids[gen.index(40)];
        db.add_edge(from, Symbol(0), to);
    }
    db.add_edge(ids[3], Symbol(1), ids[7]);

    let query = parse_query("Ans(x0, x1) <- (x0, p0, x1), L(p0) = a* b", &alphabet()).unwrap();
    let diverged = check_case("reverse-favored a* b", &query, &db, &cfg)
        .expect("reference engine must stay within budget");
    assert!(diverged, "cost planner should flip the BFS direction on a reverse-favored instance");

    let pq = PreparedQuery::prepare(&query).unwrap();
    let report = pq.bind_with(&db, PlannerMode::CostBased).unwrap().explain(&cfg).unwrap();
    assert_eq!(report.atoms[0].direction.to_string(), "reverse");
}

/// A pinnable bound constant: with `x1 = :v1` the planner must anchor the
/// BFS at the constant (reverse from `v1`) instead of scanning every source.
#[test]
fn bound_constant_pins_the_bfs_without_changing_answers() {
    let cfg = config();
    let db = generators::rei_gadget_graph(&["a", "b"]);
    let al = db.alphabet().clone();
    let query = parse_query("Ans(x0) <- (x0, p0, x1), L(p0) = a*, x1 = :v1", &al).unwrap();
    check_case("pinned constant a* -> :v1", &query, &db, &cfg)
        .expect("reference engine must stay within budget");

    let pq = PreparedQuery::prepare(&query).unwrap();
    let report = pq.bind_with(&db, PlannerMode::CostBased).unwrap().explain(&cfg).unwrap();
    assert_eq!(report.atoms[0].pinned.as_deref(), Some("v1"), "BFS must be pinned to v1");
    assert_eq!(report.atoms[0].direction.to_string(), "reverse");
    let unpinned = pq.bind_with(&db, PlannerMode::Static).unwrap().explain(&cfg).unwrap();
    assert!(
        report.atoms[0].actual_pairs <= unpinned.atoms[0].actual_pairs,
        "pinning must not materialize more pairs than the full scan"
    );
}

/// A three-atom chain with one highly selective atom (`c`, a single edge):
/// the cost planner should start the join at the selective end, diverging
/// from the static connectivity order, with identical answers.
#[test]
fn selective_chain_reorders_the_join_without_changing_answers() {
    let cfg = config();
    let mut gen = Gen::new(SEED ^ 0xC);
    let db = skewed_graph(&mut gen, 16);
    let query = parse_query(
        "Ans(x0, x3) <- (x0, p0, x1), (x1, p1, x2), (x2, p2, x3), \
         L(p0) = a*, L(p1) = b, L(p2) = c",
        &alphabet(),
    )
    .unwrap();
    check_case("selective chain a*/b/c", &query, &db, &cfg)
        .expect("reference engine must stay within budget");

    let pq = PreparedQuery::prepare(&query).unwrap();
    let cost = pq.bind_with(&db, PlannerMode::CostBased).unwrap().explain(&cfg).unwrap();
    let stat = pq.bind_with(&db, PlannerMode::Static).unwrap().explain(&cfg).unwrap();
    assert!(
        plans_differ(&cost, &stat),
        "cost planner should reorder the selective chain (cost: {:?}, static: {:?})",
        cost.join_order,
        stat.join_order
    );
    // The selective `c` atom's estimate must be the smallest of the three.
    let est: Vec<f64> = cost.atoms.iter().map(|a| a.est_pairs).collect();
    assert!(est[2] <= est[0] && est[2] <= est[1], "c-atom must be estimated cheapest: {est:?}");
}

// ---------------------------------------------------------------------------
// Pinned EXPLAIN goldens
// ---------------------------------------------------------------------------

fn explain_text(query_text: &str, db: &GraphDb, planner: PlannerMode) -> String {
    let al = db.alphabet().clone();
    let query = parse_query(query_text, &al).unwrap();
    let pq = PreparedQuery::prepare(&query).unwrap();
    pq.bind_with(db, planner).unwrap().explain(&config()).unwrap().to_string()
}

#[test]
fn explain_golden_cycle_cost_based() {
    let db = generators::cycle_graph(6, "a");
    let text =
        explain_text("Ans(x0, x1) <- (x0, p0, x1), L(p0) = a a", &db, PlannerMode::CostBased);
    let expected = "plan (cost-based)\n\
                    \x20 join order: x0, x1\n\
                    \x20 atom p0: (x0) -[p0]-> (x1) dir=forward pin=- states=5 est_pairs=36.0 actual_pairs=6\n\
                    \x20 totals: candidates=6 verified=6 search_states=0 answers=6\n";
    assert_eq!(text, expected, "cycle golden drifted:\n{text}");
}

#[test]
fn explain_golden_pinned_constant() {
    let db = generators::rei_gadget_graph(&["a", "b"]);
    let text =
        explain_text("Ans(x0) <- (x0, p0, x1), L(p0) = a*, x1 = :v1", &db, PlannerMode::CostBased);
    let expected = "plan (cost-based)\n\
                    \x20 join order: x1, x0\n\
                    \x20 atom p0: (x0) -[p0]-> (x1) dir=reverse pin=v1 states=3 est_pairs=3.0 actual_pairs=3\n\
                    \x20 totals: candidates=3 verified=3 search_states=0 answers=3\n";
    assert_eq!(text, expected, "pinned-constant golden drifted:\n{text}");
}

#[test]
fn explain_golden_static_mode() {
    let db = generators::cycle_graph(6, "a");
    let text = explain_text("Ans(x0, x1) <- (x0, p0, x1), L(p0) = a a", &db, PlannerMode::Static);
    let expected = "plan (static)\n\
                    \x20 join order: x1, x0\n\
                    \x20 atom p0: (x0) -[p0]-> (x1) dir=forward pin=- states=5 est_pairs=- actual_pairs=6\n\
                    \x20 totals: candidates=6 verified=6 search_states=0 answers=6\n";
    assert_eq!(text, expected, "static golden drifted:\n{text}");
}
