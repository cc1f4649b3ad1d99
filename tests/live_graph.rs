//! Differential suite for live graphs: mutation ops + incremental (delta)
//! maintenance of prepared statements.
//!
//! The live-graph layer promises that a delta-maintained answer set is
//! *bit-identical* to a cold re-run of the same statement on the merged
//! graph — same sorted head tuples, same `verified` count — and that the
//! maintained path never recompiles a constraint table after its initial
//! build (`sim_cache_misses == 0` on every refresh). This suite enforces
//! that promise with seeded mutation scripts (interleaved adds, removes,
//! and query checkpoints), overlays that cross the merge threshold
//! mid-script, and concurrent readers pinned to old epochs, comparing
//! against cold re-runs.

use ecrpq::eval::{BoundStatement, EvalStats, MaintainedStatement, PreparedQuery};
use ecrpq::prelude::*;
use ecrpq_graph::delta::LiveGraph;
use ecrpq_integration::prop::Gen;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const READERS: usize = 4;
const SEED: u64 = 0x11FE_64A7;

/// The maintained statements the scripts run: plain CRPQs (exact
/// relaxation — the maintainable shape), one of them pinned
/// to a node constant.
const QUERIES: [&str; 3] = [
    "Ans(x, y) <- (x, p, y), L(p) = a b* a",
    "Ans(x, y) <- (x, p, y), L(p) = (a|b)* c",
    "Ans(y) <- (x, p, y), L(p) = a a*, x = :n0",
];

type Triple = (String, String, String);

/// A seeded random edge list over nodes `n0..n{nodes}` and labels
/// `{a, b, c}`. `n0` always exists (the pinned query needs it).
fn base_text(gen: &mut Gen, nodes: usize, edges: usize) -> String {
    let labels = ["a", "b", "c"];
    let mut text = String::from("n0 a n1\n");
    for _ in 0..edges {
        let f = gen.index(nodes);
        let l = labels[gen.index(labels.len())];
        let t = gen.index(nodes);
        text.push_str(&format!("n{f} {l} n{t}\n"));
    }
    text
}

/// One script step: up to three adds (occasionally introducing a new node
/// `m{k}` or a label `d` the base alphabet has never seen) and up to two
/// removes (aimed at plausible edges, so some hit pending adds, some
/// tombstone base instances, and some miss entirely).
fn script_step(gen: &mut Gen, nodes: usize) -> (Vec<Triple>, Vec<Triple>) {
    let labels = ["a", "b", "c"];
    let name = |gen: &mut Gen, fresh: bool| {
        if fresh && gen.index(4) == 0 {
            format!("m{}", gen.index(6))
        } else {
            format!("n{}", gen.index(nodes))
        }
    };
    let mut adds = Vec::new();
    for _ in 0..gen.index(4) {
        let label =
            if gen.index(8) == 0 { "d".to_string() } else { labels[gen.index(3)].to_string() };
        adds.push((name(gen, true), label, name(gen, true)));
    }
    let mut removes = Vec::new();
    for _ in 0..gen.index(3) {
        removes.push((name(gen, false), labels[gen.index(3)].to_string(), name(gen, false)));
    }
    (adds, removes)
}

fn prepared(text: &str, al: &Alphabet) -> Arc<PreparedQuery> {
    let q = parse_query(text, al).unwrap_or_else(|e| panic!("{text:?} must parse: {e}"));
    Arc::new(PreparedQuery::prepare(&q).unwrap())
}

fn maintained_set(
    base: &Arc<GraphDb>,
    live: &LiveGraph,
    cfg: &EvalConfig,
) -> Vec<(Arc<PreparedQuery>, MaintainedStatement)> {
    QUERIES
        .iter()
        .map(|q| {
            let pq = prepared(q, base.alphabet());
            let stmt = Arc::new(BoundStatement::bind(Arc::clone(&pq), Arc::clone(base)).unwrap());
            let m = MaintainedStatement::try_new(stmt, live.view(), cfg)
                .unwrap()
                .expect("suite queries are the maintainable shape");
            (pq, m)
        })
        .collect()
}

/// Sorted node-mode answers + stats of a cold run of `pq` on `graph`.
fn cold_run(
    pq: &Arc<PreparedQuery>,
    graph: &Arc<GraphDb>,
    cfg: &EvalConfig,
) -> (Vec<Vec<NodeId>>, EvalStats) {
    let stmt = BoundStatement::bind(Arc::clone(pq), Arc::clone(graph)).unwrap();
    let (mut nodes, stats) = stmt.run_nodes(cfg).unwrap();
    nodes.sort();
    (nodes, stats)
}

/// The core differential script: interleaved adds/removes applied to one
/// never-merging overlay with maintained statements, checkpointed every few
/// steps against cold re-runs on the merged graph.
#[test]
fn seeded_mutation_scripts_are_bit_identical_to_cold_reruns() {
    let mut gen = Gen::new(SEED);
    let nodes = 24;
    let base = Arc::new(GraphDb::from_edge_list(&base_text(&mut gen, nodes, 60)).unwrap());
    let cfg = EvalConfig::default();

    // `live` never merges; `oracle` replays the same script and is merged at
    // every checkpoint to produce the cold ground truth (the merged graph's
    // content is identical whether or not intermediate merges happened).
    let mut live = LiveGraph::new(Arc::clone(&base), usize::MAX / 2);
    let mut oracle = LiveGraph::new(Arc::clone(&base), usize::MAX / 2);
    let mut maintained = maintained_set(&base, &live, &cfg);

    let mut nonempty_checkpoints = 0;
    for step in 0..30 {
        let (adds, removes) = script_step(&mut gen, nodes);
        let out = live.apply(&adds, &removes);
        oracle.apply(&adds, &removes);
        for (_, m) in &mut maintained {
            m.apply(live.view(), &out.batch, &cfg).unwrap();
        }
        if step % 5 != 4 {
            continue;
        }
        let merged = oracle.force_merge();
        for (qi, (pq, m)) in maintained.iter().enumerate() {
            let (cold, stats) = cold_run(pq, &merged, &cfg);
            assert_eq!(
                m.answers(),
                &cold[..],
                "step {step} query {qi}: maintained answers diverged from the cold re-run"
            );
            assert_eq!(
                m.stats().verified,
                stats.verified,
                "step {step} query {qi}: verified count diverged"
            );
            assert_eq!(
                m.stats().sim_cache_misses,
                0,
                "step {step} query {qi}: the delta-maintained path recompiled a sim table"
            );
            if !m.answers().is_empty() {
                nonempty_checkpoints += 1;
            }
        }
    }
    assert!(nonempty_checkpoints > 0, "the script never produced answers — vacuous run");
}

/// The same contract across epoch merge boundaries: a small merge threshold
/// forces several merges mid-script; maintained statements are rebased onto
/// each fresh epoch (serve-path order: maintain first, then rebase) and must
/// stay bit-identical through every boundary.
#[test]
fn threshold_crossing_merges_preserve_the_differential_contract() {
    let mut gen = Gen::new(SEED ^ 0x77);
    let nodes = 16;
    let base = Arc::new(GraphDb::from_edge_list(&base_text(&mut gen, nodes, 40)).unwrap());
    let cfg = EvalConfig::default();

    let mut live = LiveGraph::new(Arc::clone(&base), 5);
    let mut oracle = LiveGraph::new(Arc::clone(&base), usize::MAX / 2);
    let mut maintained = maintained_set(&base, &live, &cfg);

    for step in 0..24 {
        let (adds, removes) = script_step(&mut gen, nodes);
        let out = live.apply(&adds, &removes);
        oracle.apply(&adds, &removes);
        for (_, m) in &mut maintained {
            m.apply(live.view(), &out.batch, &cfg).unwrap();
        }
        if let Some(epoch) = &out.merged {
            // The maintained rows already describe the merged graph; only
            // the statement handle is swapped, exactly as the serve path
            // does after publishing an epoch.
            for (pq, m) in &mut maintained {
                let stmt =
                    Arc::new(BoundStatement::bind(Arc::clone(pq), Arc::clone(epoch)).unwrap());
                m.rebase(stmt);
            }
        }
        let merged = oracle.force_merge();
        for (qi, (pq, m)) in maintained.iter().enumerate() {
            let (cold, stats) = cold_run(pq, &merged, &cfg);
            assert_eq!(
                m.answers(),
                &cold[..],
                "step {step} query {qi}: answers diverged (merges so far: {})",
                live.merges()
            );
            assert_eq!(m.stats().verified, stats.verified, "step {step} query {qi}: verified");
            assert_eq!(m.stats().sim_cache_misses, 0, "step {step} query {qi}: sim recompiled");
        }
    }
    assert!(live.merges() >= 3, "the script must cross the merge threshold several times");
}

/// Readers pinned to an old epoch keep seeing that epoch's answers, bit for
/// bit, while a writer applies batches and publishes merges underneath
/// them. Each of `READERS` readers re-runs its pinned statement in a loop
/// until the writer finishes.
#[test]
fn concurrent_readers_pinned_to_old_epochs_see_stable_answers() {
    let mut gen = Gen::new(SEED ^ 0xC0);
    let nodes = 16;
    let base = Arc::new(GraphDb::from_edge_list(&base_text(&mut gen, nodes, 40)).unwrap());
    let cfg = EvalConfig::default();
    let pq = prepared("Ans(x, y) <- (x, p, y), L(p) = a a*", base.alphabet());
    let (baseline, base_stats) = cold_run(&pq, &base, &cfg);
    let baseline = Arc::new(baseline);

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            // Each reader owns a statement bound to the *pre-mutation*
            // epoch; the Arc pin keeps that epoch alive across merges.
            let stmt = Arc::new(BoundStatement::bind(Arc::clone(&pq), Arc::clone(&base)).unwrap());
            let (stop, baseline, cfg) = (Arc::clone(&stop), Arc::clone(&baseline), cfg.clone());
            std::thread::spawn(move || {
                let mut runs = 0u32;
                while !stop.load(Ordering::Relaxed) || runs == 0 {
                    let (mut nodes, stats) = stmt.run_nodes(&cfg).unwrap();
                    nodes.sort();
                    assert_eq!(
                        nodes, *baseline,
                        "reader {r}, pinned to the old epoch, saw mutated answers"
                    );
                    assert_eq!(stats.verified, base_stats.verified, "reader {r}: verified drifted");
                    runs += 1;
                }
                runs
            })
        })
        .collect();

    // The writer: a low merge threshold so epochs are published while the
    // readers run, plus one add that introduces brand-new nodes — a pair no
    // old-epoch answer set can contain.
    let mut live = LiveGraph::new(Arc::clone(&base), 4);
    live.apply(&[("w0".to_string(), "a".to_string(), "w1".to_string())], &[]);
    for _ in 0..20 {
        let (adds, removes) = script_step(&mut gen, nodes);
        live.apply(&adds, &removes);
    }
    let epoch = live.force_merge();
    assert!(live.merges() >= 3, "the writer must publish several epochs");
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader panicked") > 0);
    }

    // The final epoch does reflect the mutations: the fresh-node pair is an
    // answer there but can't be in the pinned baseline.
    let (after, _) = cold_run(&pq, &epoch, &cfg);
    let w0 = epoch.node_by_name("w0").expect("merge must carry new nodes");
    let w1 = epoch.node_by_name("w1").unwrap();
    assert!(after.contains(&vec![w0, w1]), "the merged epoch must reflect the adds");
    assert!(!baseline.contains(&vec![w0, w1]));
}

/// A unary constraint far past 2,048 states — the 2,101-state chain
/// `a^2100` — is maintained like any other: the statement is maintainable,
/// and after an add batch (a chord across a 30-cycle and a detour through a
/// new node) its answers equal a cold run on the merged graph.
#[test]
fn large_unary_constraints_are_maintained() {
    const LEN: usize = 2100;
    let text: String = (0..30).map(|i| format!("n{i} a n{}\n", (i + 1) % 30)).collect();
    let base = Arc::new(GraphDb::from_edge_list(&text).unwrap());
    let a = base.alphabet().sym("a");
    let mut chain = ecrpq_automata::Nfa::new();
    let states = chain.add_states(LEN + 1);
    chain.add_initial(states[0]);
    chain.set_accepting(states[LEN], true);
    for i in 0..LEN {
        chain.add_transition(states[i], a, states[i + 1]);
    }
    let rel = RegularRelation::from_language(&chain);
    assert!(rel.num_states() > 2048, "the constraint must exceed the old 2,048-state bound");
    let q = Ecrpq::builder(base.alphabet())
        .head_nodes(&["x", "y"])
        .atom("x", "p", "y")
        .relation(rel, &["p"])
        .build()
        .unwrap();
    let pq = Arc::new(PreparedQuery::prepare(&q).unwrap());
    let cfg = EvalConfig::default();
    let mut live = LiveGraph::new(Arc::clone(&base), usize::MAX / 2);
    let stmt = Arc::new(BoundStatement::bind(Arc::clone(&pq), Arc::clone(&base)).unwrap());
    let mut m = MaintainedStatement::try_new(stmt, live.view(), &cfg)
        .unwrap()
        .expect("a large unary constraint is maintainable");
    let (before, _) = cold_run(&pq, &base, &cfg);
    assert_eq!(m.answers(), &before[..]);
    assert_eq!(before.len(), 30, "a^2100 goes once round the cycle 70 times");

    let edge = |f: &str, t: &str| (f.to_string(), "a".to_string(), t.to_string());
    let out = live.apply(&[edge("n0", "n7"), edge("n12", "m0"), edge("m0", "n13")], &[]);
    m.apply(live.view(), &out.batch, &cfg).unwrap();
    let merged = live.force_merge();
    let (cold, stats) = cold_run(&pq, &merged, &cfg);
    assert_ne!(cold, before, "the batch must change the answers");
    assert_eq!(m.answers(), &cold[..], "maintained answers diverged from the cold run");
    assert_eq!(m.stats().verified, stats.verified, "verified count diverged");
    assert_eq!(m.stats().sim_cache_misses, 0, "the maintained path recompiled a constraint");
}
