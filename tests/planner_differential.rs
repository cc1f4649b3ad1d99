//! Differential suite for the cost-based query planner.
//!
//! The planner may reorder the join, flip per-atom BFS direction, and pin a
//! BFS to a bound constant — but it must never change *what* a query
//! answers. This suite enforces that guarantee three ways:
//!
//! 1. A seeded corpus of random queries over graph families chosen so the
//!    planner's choices matter (rare-label languages, chains with one
//!    selective atom). Every case is run against the classical reference
//!    engine; answer sets and `verified` counts must be identical, and the
//!    corpus must produce at least one plan that reverses a BFS or joins in
//!    another order than the variables are declared in, so it never
//!    silently degenerates into the plan a planner-less join would run.
//! 2. Handcrafted instances that force a concrete choice (a reverse-favored
//!    language, a pinnable bound constant, a selective chain), asserted via
//!    the `explain` surface: the direction, the pin and the join's first
//!    variable are pinned, and the answers match the reference engine.
//! 3. Pinned goldens of the `ExplainReport` rendering for two
//!    representative queries, so the EXPLAIN surface (join order,
//!    directions, pins, estimated vs actual cardinalities) stays stable.

use ecrpq::eval::{reference, Direction, ExplainReport, PreparedQuery};
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
    let mut db = GraphBuilder::new(alphabet());
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
    db.build()
}

/// Runs one (query, graph) case and checks answers + `verified` against
/// the reference engine. Returns the cost-based plan's EXPLAIN report, or
/// `None` when the reference engine blows the search budget (no ground
/// truth — the corpus skips such cases).
fn check_case(what: &str, query: &Ecrpq, g: &GraphDb, cfg: &EvalConfig) -> Option<ExplainReport> {
    let Ok((ref_nodes, ref_stats)) = reference::eval_nodes_with_stats(query, g, cfg) else {
        return None;
    };
    let pq = PreparedQuery::prepare(query).unwrap();
    let bound = pq.bind(g).unwrap();
    let (nodes, stats) = bound.run_nodes(cfg).unwrap();
    let report = bound.explain(cfg).unwrap();
    assert_eq!(report.answers, ref_nodes.len() as u64, "{what}: explain answer count diverged");
    assert_eq!(sorted(nodes), sorted(ref_nodes), "{what}: answer set diverged from reference");
    assert_eq!(stats.verified, ref_stats.verified, "{what}: verified count diverged");
    Some(report)
}

/// The cost-based plan of a query that leaves every node variable free.
fn explain(query: &str, g: &GraphDb) -> ExplainReport {
    let query = parse_query(query, g.alphabet()).unwrap();
    PreparedQuery::prepare(&query).unwrap().bind(g).unwrap().explain(&config()).unwrap()
}

#[test]
fn corpus_answers_identical_across_planners_and_reference() {
    let al = alphabet();
    let cfg = config();
    let mut gen = Gen::new(SEED);
    let mut reordered = 0usize;

    let graphs = vec![
        ("skewed", skewed_graph(&mut gen, 12)),
        ("random", {
            let mut db = GraphBuilder::new(alphabet());
            let ids = db.add_nodes(6);
            for _ in 0..14 {
                let from = ids[gen.index(6)];
                let label = Symbol(gen.index(3) as u32);
                let to = ids[gen.index(6)];
                db.add_edge(from, label, to);
            }
            db.build()
        }),
    ];

    for qi in 0..10 {
        let text = random_constant_free_query_text(&mut gen);
        let query = parse_query(&text, &al)
            .unwrap_or_else(|e| panic!("corpus query must parse: {text:?}: {e}"));
        for (family, g) in &graphs {
            let what = format!("query {qi} {text:?} on {family}");
            let declared: Vec<String> =
                query.node_vars().iter().map(|v| v.name().to_string()).collect();
            if check_case(&what, &query, g, &cfg).is_some_and(|r| {
                r.join_order != declared
                    || r.atoms.iter().any(|a| a.direction == Direction::Reverse)
            }) {
                reordered += 1;
            }
        }
    }
    assert!(
        reordered >= 1,
        "corpus never moved the join off the declaration order nor reversed a BFS — the \
         differential is vacuous"
    );
}

/// A reverse-favored instance: dense `a` edges, a single `b` edge, language
/// `a* b`. The target-side frontier (targets of `b`) is one node while the
/// source-side frontier is nearly the whole graph, so the cost planner must
/// run the BFS backwards.
#[test]
fn reverse_favored_language_flips_direction_but_not_answers() {
    let cfg = config();
    let mut gen = Gen::new(SEED ^ 0xB);
    let mut db = GraphBuilder::new(alphabet());
    let ids = db.add_nodes(40);
    for _ in 0..120 {
        let from = ids[gen.index(40)];
        let to = ids[gen.index(40)];
        db.add_edge(from, Symbol(0), to);
    }
    db.add_edge(ids[3], Symbol(1), ids[7]);
    let db = db.build();

    let query = parse_query("Ans(x0, x1) <- (x0, p0, x1), L(p0) = a* b", &alphabet()).unwrap();
    let report = check_case("reverse-favored a* b", &query, &db, &cfg)
        .expect("reference engine must stay within budget");
    assert_eq!(report.atoms[0].direction, Direction::Reverse, "the BFS must run backwards");
    assert_eq!(report.atoms[0].pinned, None);
}

/// A pinnable bound constant: with `x1 = :v1` the planner must anchor the
/// BFS at the constant (reverse from `v1`) instead of scanning every source,
/// and so materialize no more pairs than the same atom with `x1` free.
#[test]
fn bound_constant_pins_the_bfs_without_changing_answers() {
    let cfg = config();
    let db = generators::rei_gadget_graph(&["a", "b"]);
    let al = db.alphabet().clone();
    let query = parse_query("Ans(x0) <- (x0, p0, x1), L(p0) = a*, x1 = :v1", &al).unwrap();
    let report = check_case("pinned constant a* -> :v1", &query, &db, &cfg)
        .expect("reference engine must stay within budget");
    assert_eq!(report.atoms[0].pinned.as_deref(), Some("v1"), "BFS must be pinned to v1");
    assert_eq!(report.atoms[0].direction, Direction::Reverse);
    let unpinned = explain("Ans(x0) <- (x0, p0, x1), L(p0) = a*", &db);
    assert_eq!(unpinned.atoms[0].pinned, None);
    assert!(
        report.atoms[0].actual_pairs <= unpinned.atoms[0].actual_pairs,
        "pinning must not materialize more pairs than the full scan"
    );
}

/// A three-atom chain with one highly selective atom (`c`, a single edge):
/// the cost planner should start the join at the selective end, with
/// identical answers.
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
    let cost = check_case("selective chain a*/b/c", &query, &db, &cfg)
        .expect("reference engine must stay within budget");
    assert!(
        matches!(cost.join_order[0].as_str(), "x2" | "x3"),
        "the join must start at the selective `c` atom: {:?}",
        cost.join_order
    );
    // The selective `c` atom's estimate must be the smallest of the three.
    let est: Vec<f64> = cost.atoms.iter().map(|a| a.est_pairs).collect();
    assert!(est[2] <= est[0] && est[2] <= est[1], "c-atom must be estimated cheapest: {est:?}");
}

// ---------------------------------------------------------------------------
// Pinned EXPLAIN goldens
// ---------------------------------------------------------------------------

fn explain_text(query_text: &str, db: &GraphDb) -> String {
    explain(query_text, db).to_string()
}

#[test]
fn explain_golden_cycle_cost_based() {
    let db = generators::cycle_graph(6, "a");
    let text = explain_text("Ans(x0, x1) <- (x0, p0, x1), L(p0) = a a", &db);
    let expected = "plan (cost-based)\n\
                    \x20 join order: x0, x1\n\
                    \x20 atom p0: (x0) -[p0]-> (x1) dir=forward pin=- states=5 est_pairs=36.0 actual_pairs=6\n\
                    \x20 totals: candidates=6 verified=6 search_states=0 answers=6\n";
    assert_eq!(text, expected, "cycle golden drifted:\n{text}");
}

#[test]
fn explain_golden_pinned_constant() {
    let db = generators::rei_gadget_graph(&["a", "b"]);
    let text = explain_text("Ans(x0) <- (x0, p0, x1), L(p0) = a*, x1 = :v1", &db);
    let expected = "plan (cost-based)\n\
                    \x20 join order: x1, x0\n\
                    \x20 atom p0: (x0) -[p0]-> (x1) dir=reverse pin=v1 states=3 est_pairs=3.0 actual_pairs=3\n\
                    \x20 totals: candidates=3 verified=3 search_states=0 answers=3\n";
    assert_eq!(text, expected, "pinned-constant golden drifted:\n{text}");
}
