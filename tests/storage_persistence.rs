//! Workspace-level persistence suite: snapshot/sidecar round-trips, a
//! reopened-graph query differential, a seeded corruption fuzz (~220
//! truncated or bit-flipped files, every one of which must come back as a
//! structured [`StorageError`] — never a panic), and a service-level
//! save → open → warm-run differential through the wire protocol.

use ecrpq::eval::{BoundStatement, PreparedQuery};
use ecrpq::{parse_query, persist, EvalConfig};
use ecrpq_graph::prng::SplitMix64;
use ecrpq_graph::snapshot::{self, StorageError};
use ecrpq_graph::{generators, GraphDb, NodeId};
use ecrpq_server::protocol::{Control, Service};
use ecrpq_util::json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Statements persisted alongside the differential graphs: a plain
/// concatenation, and a shape with a length constraint so the reopen
/// rebuilds counter-augmented sim tables too.
const QUERIES: [&str; 2] =
    ["Ans(x, y) <- (x, p, y), L(p) = a b", "Ans(x, y) <- (x, p, y), L(p) = a b a b, len(p) <= 4"];

fn bind(query: &str, g: &Arc<GraphDb>) -> Arc<BoundStatement> {
    let q = parse_query(query, g.alphabet()).expect("test query must parse");
    let pq = Arc::new(PreparedQuery::prepare(&q).expect("test query must prepare"));
    pq.warm_full();
    Arc::new(BoundStatement::bind(pq, Arc::clone(g)).expect("bind must succeed"))
}

/// A snapshot plus a two-statement sidecar for a small random graph.
fn persisted_pair(nodes: usize, seed: u64) -> (Arc<GraphDb>, Vec<u8>, Vec<u8>) {
    let g = Arc::new(generators::random_graph(nodes, 3.0, &["a", "b"], seed));
    let bytes = snapshot::write_snapshot(&g).expect("snapshot must serialize");
    let id = snapshot::snapshot_id(&bytes);
    let bound: Vec<_> = QUERIES.iter().map(|q| bind(q, &g)).collect();
    const NAMES: [&str; 2] = ["q0", "q1"];
    let entries: Vec<_> = NAMES
        .iter()
        .zip(QUERIES.iter().zip(&bound))
        .map(|(name, (text, stmt))| persist::SidecarStatement { name, text, stmt })
        .collect();
    let art = persist::write_sidecar(id, &entries);
    (g, bytes, art)
}

/// Every observable of the graph survives a write → read round trip, and
/// re-serializing the reopened graph reproduces the file byte for byte.
#[test]
fn snapshot_roundtrip_preserves_every_observable() {
    for (nodes, seed) in [(1usize, 7u64), (17, 11), (400, 0x5EED)] {
        let g = generators::random_graph(nodes, 3.0, &["a", "b", "c"], seed);
        let bytes = snapshot::write_snapshot(&g).expect("snapshot must serialize");
        let r = snapshot::read_snapshot(&bytes).expect("snapshot must reopen");

        assert_eq!(r.num_nodes(), g.num_nodes());
        assert_eq!(r.num_edges(), g.num_edges());
        for v in 0..g.num_nodes() as u32 {
            let v = NodeId(v);
            assert_eq!(r.node_name(v), g.node_name(v), "name of node {v:?}");
            assert_eq!(r.out_edges(v), g.out_edges(v), "out-row of node {v:?}");
            assert_eq!(r.in_edges(v), g.in_edges(v), "in-row of node {v:?}");
            assert_eq!(r.out_degree(v), g.out_degree(v));
            if let Some(name) = g.node_name(v) {
                assert_eq!(r.node_by_name(name), Some(v), "lookup of `{name}`");
            }
        }
        assert_eq!(*r.stats(), *g.stats(), "cached statistics");
        let again = snapshot::write_snapshot(&r).expect("reopened graph must serialize");
        assert_eq!(again, bytes, "re-serialization must be byte-identical");
    }
}

/// Anonymous nodes (no name) interleave with named ones and survive intact.
#[test]
fn snapshot_roundtrip_keeps_anonymous_nodes() {
    let mut g = ecrpq::prelude::GraphBuilder::new(ecrpq::prelude::Alphabet::from_labels(["a"]));
    let a = g.add_named_node("alpha");
    let anon = g.add_node();
    let b = g.add_named_node("beta");
    g.add_edge_labeled(a, "a", anon);
    g.add_edge_labeled(anon, "a", b);
    let g = g.build();

    let bytes = snapshot::write_snapshot(&g).expect("snapshot must serialize");
    let r = snapshot::read_snapshot(&bytes).expect("snapshot must reopen");
    assert_eq!(r.node_name(a), Some("alpha"));
    assert_eq!(r.node_name(anon), None);
    assert_eq!(r.node_name(b), Some("beta"));
    assert_eq!(r.node_by_name("beta"), Some(b));
    assert_eq!(r.out_edges(anon), g.out_edges(anon));
}

/// Queries against a reopened snapshot answer bit-for-bit like the original
/// graph, and the sidecar-warmed statements compile nothing on first run.
#[test]
fn reopened_graph_answers_bit_for_bit() {
    let cfg = EvalConfig::default();
    let (g, bytes, art) = persisted_pair(600, 0xD1FF);
    let id = snapshot::snapshot_id(&bytes);

    let rg = Arc::new(snapshot::read_snapshot(&bytes).expect("snapshot must reopen"));
    let warm = persist::read_sidecar(&art, id, &rg).expect("sidecar must reopen");
    assert_eq!(warm.len(), QUERIES.len());

    for (query, w) in QUERIES.iter().zip(&warm) {
        let (cold_answers, _) = bind(query, &g).run_nodes(&cfg).expect("cold run");
        let (warm_answers, stats) = w.statement.run_nodes(&cfg).expect("warm run");
        assert_eq!(cold_answers, warm_answers, "answers diverged for `{query}`");
        assert_eq!(stats.sim_cache_misses, 0, "warm run recompiled a sim table for `{query}`");
    }
}

/// Runs `decode` over `cases` corrupted variants of `bytes` (half prefix
/// truncations, half single-bit flips, seeded) and asserts every one fails
/// with a structured error — no panic, no success.
fn corruption_fuzz<F>(what: &str, bytes: &[u8], cases: usize, seed: u64, decode: F)
where
    F: Fn(&[u8]) -> Result<(), StorageError>,
{
    let mut rng = SplitMix64::seed_from_u64(seed);
    for case in 0..cases {
        let mutated: Vec<u8> = if case % 2 == 0 {
            // Truncation: early cuts exercise the header/frame paths, the
            // prng spreads the rest across section payloads.
            let cut = if case < 32 { case / 2 } else { rng.gen_index(bytes.len()) };
            bytes[..cut].to_vec()
        } else {
            let mut m = bytes.to_vec();
            let pos = rng.gen_index(m.len());
            m[pos] ^= 1 << rng.gen_index(8);
            m
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&mutated)));
        match outcome {
            Ok(Err(_)) => {}
            Ok(Ok(())) => panic!("{what} fuzz case {case}: corrupted file decoded successfully"),
            Err(_) => panic!("{what} fuzz case {case}: decoder panicked instead of erroring"),
        }
    }
}

/// ~220 corrupted snapshot and sidecar files, every one a structured `Err`.
#[test]
fn corrupted_files_never_panic() {
    let (g, bytes, art) = persisted_pair(300, 0xFADE);
    let id = snapshot::snapshot_id(&bytes);
    corruption_fuzz("snapshot", &bytes, 120, 0xBEEF, |b| snapshot::read_snapshot(b).map(drop));
    corruption_fuzz("sidecar", &art, 100, 0xCAFE, |b| persist::read_sidecar(b, id, &g).map(drop));
}

/// A sidecar recorded against a different snapshot is rejected with a
/// structured error, and a future-versioned snapshot reports the version.
#[test]
fn mismatches_are_structured_errors() {
    let (g, bytes, art) = persisted_pair(60, 0x1D);
    let id = snapshot::snapshot_id(&bytes);
    let err = persist::read_sidecar(&art, id ^ 1, &g).expect_err("wrong graph id must fail");
    assert!(matches!(err, StorageError::Corrupt(_)), "got {err:?}");

    let mut future = bytes.clone();
    future[8] ^= 0x7F; // bump the format-version field past anything we read
    let err = snapshot::read_snapshot(&future).expect_err("future version must fail");
    match err {
        StorageError::VersionMismatch { found, expected } => {
            assert_ne!(found, expected);
            let msg = err.to_string();
            assert!(msg.contains("format version mismatch"), "unstable message: {msg}");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

fn reply(service: &Service, line: &str) -> json::Value {
    let (text, control) = service.dispatch(line);
    assert_eq!(control, Control::Continue, "unexpected control for {line}");
    json::parse(&text).unwrap_or_else(|e| panic!("unparseable reply for {line}: {e:?}"))
}

/// End-to-end through the wire protocol: a server saves a graph with a
/// prepared statement; a *fresh* server opens the snapshot and its first
/// `run` is a registry hit with zero sim-table compilations and the same
/// answers.
#[test]
fn service_save_open_warm_differential() {
    let dir = std::env::temp_dir().join(format!("ecrpq-it-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snap = dir.join("g.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");

    let s1 = Service::new(8);
    let r = reply(&s1, r#"{"op":"load","graph":"g","generator":"cycle:32:a"}"#);
    assert_eq!(r.get("ok").and_then(json::Value::as_bool), Some(true));
    reply(
        &s1,
        r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
    );
    let cold = reply(&s1, r#"{"op":"run","name":"q","graph":"g"}"#);
    let r = reply(&s1, &format!(r#"{{"op":"save","graph":"g","path":"{snap_str}"}}"#));
    assert_eq!(r.get("statements").and_then(json::Value::as_u64), Some(1));

    let s2 = Service::new(8);
    let r = reply(&s2, &format!(r#"{{"op":"open","name":"g2","path":"{snap_str}"}}"#));
    assert_eq!(r.get("ok").and_then(json::Value::as_bool), Some(true));
    assert_eq!(r.get("statements").and_then(json::Value::as_u64), Some(1));

    let warm = reply(&s2, r#"{"op":"run","name":"q","graph":"g2"}"#);
    assert_eq!(warm.get("registry").and_then(json::Value::as_str), Some("hit"));
    let misses =
        warm.get("stats").and_then(|s| s.get("sim_cache_misses")).and_then(json::Value::as_u64);
    assert_eq!(misses, Some(0), "first run after open compiled a sim table");
    assert_eq!(
        cold.get("answers"),
        warm.get("answers"),
        "answers diverged between the saving and the reopening server"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A sidecar written by an older format version (v1 carried the adjacency,
/// v2 the compiled tables) fails `open` — the request `ecrpq-serve --open`
/// sends — with the structured version mismatch naming the file, and
/// publishes nothing: never a panic, never a silent cold start.
#[test]
fn version_one_sidecar_fails_open_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("ecrpq-it-v1-sidecar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let snap = dir.join("g.snap");
    let snap_str = snap.to_str().expect("utf-8 temp path");

    let s1 = Service::new(8);
    reply(&s1, r#"{"op":"load","graph":"g","generator":"cycle:8:a"}"#);
    reply(
        &s1,
        r#"{"op":"prepare","name":"q","query":"Ans(x, y) <- (x, p, y), L(p) = a a","graph":"g"}"#,
    );
    let r = reply(&s1, &format!(r#"{{"op":"save","graph":"g","path":"{snap_str}"}}"#));
    assert_eq!(r.get("statements").and_then(json::Value::as_u64), Some(1));

    let art_path = persist::sidecar_path(&snap);
    let saved = std::fs::read(&art_path).expect("sidecar written");
    for (i, old) in [1u32, 2].into_iter().enumerate() {
        let mut art = saved.clone();
        art[8..12].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&art_path, &art).expect("rewrite sidecar");

        let s2 = Service::new(8);
        let name = format!("g{}", i + 2);
        let r = reply(&s2, &format!(r#"{{"op":"open","name":"{name}","path":"{snap_str}"}}"#));
        assert_eq!(r.get("ok").and_then(json::Value::as_bool), Some(false), "{r:?}");
        let msg = r.get("error").and_then(json::Value::as_str).expect("error message");
        let expected =
            StorageError::VersionMismatch { found: old, expected: persist::FORMAT_VERSION };
        assert!(msg.contains(&expected.to_string()), "unexpected error: {msg}");
        assert!(msg.contains(art_path.to_str().unwrap()), "error must name the file: {msg}");
        let r = reply(&s2, &format!(r#"{{"op":"run","name":"q","graph":"{name}"}}"#));
        assert_eq!(r.get("ok").and_then(json::Value::as_bool), Some(false), "graph was published");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
