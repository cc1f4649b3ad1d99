//! Concurrency differential suite: N worker threads evaluate the seeded
//! parser-roundtrip query corpus against shared `Arc<GraphDb>`s and must
//! reproduce the single-threaded reference engine exactly — answer sets,
//! `verified` counts, and the `sim_cache` counters that prove compiled
//! artifacts are shared, not re-built, across threads.
//!
//! This is the differential guarantee behind the server crate: a prepared
//! statement bound once (`BoundStatement`) and hammered from a worker pool
//! behaves byte-for-byte like the one-shot single-threaded evaluator.

use ecrpq::eval::{reference, BoundStatement, EvalStats, PreparedQuery};
use ecrpq::prelude::*;
use ecrpq_integration::corpus::{alphabet, random_constant_free_query_text};
use ecrpq_integration::prop::Gen;
use std::sync::Arc;

const QUERIES: usize = 18;
const THREADS: usize = 4;
const SEED: u64 = 0xC0C0_0001;

/// A small seeded random graph over the corpus alphabet.
fn corpus_graph(gen: &mut Gen, nodes: usize, edges: usize) -> GraphDb {
    let mut db = GraphBuilder::new(alphabet());
    let ids = db.add_nodes(nodes);
    for _ in 0..edges {
        let from = ids[gen.index(nodes)];
        let label = Symbol(gen.index(3) as u32);
        let to = ids[gen.index(nodes)];
        db.add_edge(from, label, to);
    }
    db.build()
}

/// The single-threaded expectation for one (query, graph) pair.
struct Expected {
    /// Sorted answer set of the *reference* engine (the retained classical
    /// evaluator, ground truth of the differential suites).
    answers: Vec<Vec<NodeId>>,
    /// `verified` count of a warmed single-threaded prepared run.
    verified: u64,
    /// Full stats of that warmed run; concurrent runs must match its
    /// `sim_cache` counters exactly (misses = 0 once warm).
    warm_stats: EvalStats,
}

#[test]
fn threaded_corpus_matches_single_threaded_reference() {
    let al = alphabet();
    let cfg = EvalConfig { max_search_states: 100_000, ..EvalConfig::default() };
    let mut gen = Gen::new(SEED);

    let graphs: Vec<Arc<GraphDb>> =
        vec![Arc::new(corpus_graph(&mut gen, 4, 7)), Arc::new(corpus_graph(&mut gen, 5, 9))];

    // Prepare the corpus once (shared compiled automata), bind each query to
    // each graph, and record the single-threaded expectations.
    let mut cases: Vec<(String, Arc<BoundStatement>, Expected)> = Vec::new();
    for _ in 0..QUERIES {
        let text = random_constant_free_query_text(&mut gen);
        let query = parse_query(&text, &al)
            .unwrap_or_else(|e| panic!("corpus query must parse: {text:?}: {e}"));
        let pq = Arc::new(PreparedQuery::prepare(&query).unwrap());
        for graph in &graphs {
            let stmt = Arc::new(BoundStatement::bind(Arc::clone(&pq), Arc::clone(graph)).unwrap());
            let mut answers = reference::eval_nodes_with_stats(&query, graph, &cfg).unwrap().0;
            answers.sort();
            // Warm single-threaded run: compiles whatever the dense engine
            // needs, so the threaded runs below must be all cache hits.
            let (_, _) = stmt.run_nodes(&cfg).unwrap();
            let (mut prepared_answers, warm_stats) = stmt.run_nodes(&cfg).unwrap();
            prepared_answers.sort();
            assert_eq!(
                prepared_answers, answers,
                "single-threaded prepared run must match the reference engine for {text:?}"
            );
            assert_eq!(
                warm_stats.sim_cache_misses, 0,
                "warm single-threaded run must not compile for {text:?}"
            );
            let expected = Expected { answers, verified: warm_stats.verified, warm_stats };
            cases.push((text.clone(), Arc::clone(&stmt), expected));
        }
    }

    // Hammer every case from every thread simultaneously.
    let cases = Arc::new(cases);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cases = Arc::clone(&cases);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                // Interleave differently per thread so threads collide on
                // different cases at the same time.
                for i in 0..cases.len() {
                    let (text, stmt, expected) = &cases[(i + t * 7) % cases.len()];
                    let (mut answers, stats) = stmt.run_nodes(&cfg).unwrap();
                    answers.sort();
                    assert_eq!(
                        &answers, &expected.answers,
                        "thread {t}: answers diverged for {text:?}"
                    );
                    assert_eq!(
                        stats.verified, expected.verified,
                        "thread {t}: verified count diverged for {text:?}"
                    );
                    assert_eq!(
                        stats.sim_cache_misses, 0,
                        "thread {t}: concurrent run recompiled artifacts for {text:?}"
                    );
                    assert_eq!(
                        stats.sim_cache_hits, expected.warm_stats.sim_cache_hits,
                        "thread {t}: cache-hit count diverged for {text:?}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
}

/// Cold-start race: many threads force the first compilation of the same
/// shared prepared query at once; `OnceLock` must hand every thread the same
/// tables and the hit/miss counters must stay coherent (at most one miss per
/// artifact across the whole process).
#[test]
fn cold_prepared_query_races_compile_exactly_once() {
    let al = alphabet();
    let cfg = EvalConfig::default();
    let text = "Ans(x0, x1) <- (x0, p0, x1), (x1, p1, x2), L(p0) = a (a|b)*, R(p0, p1) = el";
    let query = parse_query(text, &al).unwrap();
    let pq = Arc::new(PreparedQuery::prepare(&query).unwrap());
    let mut gen = Gen::new(SEED ^ 0xDEAD);
    let graph = Arc::new(corpus_graph(&mut gen, 6, 12));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let pq = Arc::clone(&pq);
            let graph = Arc::clone(&graph);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let stmt = BoundStatement::bind(pq, graph).unwrap();
                let (mut answers, stats) = stmt.run_nodes(&cfg).unwrap();
                answers.sort();
                (answers, stats)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut expected = reference::eval_nodes_with_stats(&query, &graph, &cfg).unwrap().0;
    expected.sort();
    for (answers, _) in &results {
        assert_eq!(answers, &expected);
    }
    // After the race, every artifact is cached process-wide: a fresh bind of
    // the same prepared query reports hits only. (During the race itself two
    // threads may both *observe* a miss for the same artifact — the counters
    // are observational — but `OnceLock` guarantees one compilation, and the
    // per-run artifact count stays coherent in every thread.)
    let (_, solo) =
        BoundStatement::bind(Arc::clone(&pq), Arc::clone(&graph)).unwrap().run_nodes(&cfg).unwrap();
    assert_eq!(solo.sim_cache_misses, 0, "post-race run must be all cache hits");
    let per_run_artifacts = solo.sim_cache_hits;
    for (_, stats) in &results {
        assert_eq!(
            stats.sim_cache_hits + stats.sim_cache_misses,
            per_run_artifacts,
            "every run touches the same artifact set"
        );
    }
}
