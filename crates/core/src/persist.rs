//! Statement sidecars: warm prepared statements across restarts.
//!
//! A graph snapshot (see `ecrpq_graph::snapshot`) restores the data in
//! milliseconds, but a freshly reopened server would still meet its first
//! request with an empty statement registry. The *sidecar* file written
//! next to a snapshot (`<path>.art`, magic `ECRPQART`) carries the
//! registry across. For every prepared statement bound to the saved graph
//! it records:
//!
//! - the statement name and text, and an FNV-1a 64 hash of the text (a
//!   loader refuses an entry whose hash disagrees),
//! - the labels of the query alphabet, so the loader re-parses the text
//!   over identical symbols.
//!
//! Nothing compiled is stored: a statement's automata are a fixed function
//! of its text. Loading re-parses and re-prepares each statement, binds it
//! to the reopened graph, and compiles every table a run could touch
//! ([`warm_full`], which includes the reverse tables the planner may pick
//! on a first run). The first `run` after a warm open therefore reports
//! `sim_cache_misses: 0`; the compile cost moves from that run into the
//! open.
//!
//! The sidecar records the snapshot id of the graph it was written against,
//! and every entry must parse, prepare and bind against the reopened graph,
//! so a mismatched or corrupted sidecar is a structured [`StorageError`] —
//! never a panic.
//!
//! [`warm_full`]: PreparedQuery::warm_full

use crate::eval::{BoundStatement, PreparedQuery};
use crate::parse::parse_query;
use ecrpq_automata::alphabet::Alphabet;
use ecrpq_graph::graph::GraphDb;
use ecrpq_storage::{fnv1a64, Container, Decoder, Encoder, StorageError, Writer};
use std::sync::Arc;

/// Magic bytes identifying a statement sidecar file.
pub const MAGIC: [u8; 8] = *b"ECRPQART";
/// The sidecar format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 3;

const SEC_GRAPH_ID: u32 = 1;
const SEC_STATEMENTS: u32 = 2;

/// The conventional sidecar path for a snapshot at `path`: `<path>.art`.
pub fn sidecar_path(path: &std::path::Path) -> std::path::PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".art");
    std::path::PathBuf::from(s)
}

/// One statement to persist: its registry name, source text, and the bound
/// statement whose query alphabet the entry records.
#[derive(Debug)]
pub struct SidecarStatement<'a> {
    /// Registry name of the statement.
    pub name: &'a str,
    /// The statement's source text (re-parsed on load).
    pub text: &'a str,
    /// The statement bound to the graph being saved.
    pub stmt: &'a BoundStatement,
}

/// One statement rebuilt from a sidecar, fully warmed.
#[derive(Debug)]
pub struct WarmStatement {
    /// Registry name of the statement.
    pub name: String,
    /// The statement's source text.
    pub text: String,
    /// The statement, bound to the reopened graph with every simulation
    /// table compiled.
    pub statement: Arc<BoundStatement>,
}

/// One decoded sidecar entry, not yet prepared.
struct Entry {
    name: String,
    text: String,
    alphabet: Alphabet,
}

/// Serializes a sidecar for the graph snapshot identified by `graph_id`.
/// Writes names, texts and query alphabets only; compiles nothing.
pub fn write_sidecar(graph_id: u64, statements: &[SidecarStatement<'_>]) -> Vec<u8> {
    let mut w = Writer::new(MAGIC, FORMAT_VERSION);
    let mut e = Encoder::with_capacity(8);
    e.u64(graph_id);
    w.section(SEC_GRAPH_ID, e);

    let mut e = Encoder::new();
    e.u32(statements.len() as u32);
    for s in statements {
        e.str(s.name);
        e.str(s.text);
        e.u64(fnv1a64(s.text.as_bytes()));
        let alphabet = &s.stmt.prepared().query().alphabet;
        e.u32(alphabet.len() as u32);
        for (_, label) in alphabet.iter() {
            e.str(label);
        }
    }
    w.section(SEC_STATEMENTS, e);
    w.finish()
}

/// Parses a sidecar written for the snapshot identified by `graph_id` and
/// re-prepares, binds and warms every statement against `graph` (the
/// reopened snapshot). A sidecar recorded against a different snapshot id
/// is rejected.
pub fn read_sidecar(
    bytes: &[u8],
    graph_id: u64,
    graph: &Arc<GraphDb>,
) -> Result<Vec<WarmStatement>, StorageError> {
    let (recorded, entries) = decode(bytes)?;
    if recorded != graph_id {
        return Err(StorageError::Corrupt(format!(
            "sidecar was written for snapshot {recorded:#018x}, not {graph_id:#018x}"
        )));
    }
    entries.into_iter().map(|entry| warm(entry, graph)).collect()
}

/// Lists the `(name, text)` entries of a sidecar without preparing (or
/// binding against a graph) any of them. The save path uses this to
/// report `sidecar_gc`: how many entries of the previous sidecar a rewrite
/// drops because their statement was re-prepared or unregistered since.
pub fn sidecar_entries(bytes: &[u8]) -> Result<Vec<(String, String)>, StorageError> {
    Ok(decode(bytes)?.1.into_iter().map(|e| (e.name, e.text)).collect())
}

/// Decodes the recorded graph id and every statement entry, checking each
/// text against its recorded hash.
fn decode(bytes: &[u8]) -> Result<(u64, Vec<Entry>), StorageError> {
    let c = Container::open(bytes, MAGIC, FORMAT_VERSION)?;
    let mut d = Decoder::new(c.section(SEC_GRAPH_ID)?);
    let graph_id = d.u64("sidecar graph id")?;
    d.finish("graph id")?;

    let mut d = Decoder::new(c.section(SEC_STATEMENTS)?);
    let count = d.u32("statement count")? as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name = d.str("statement name")?;
        let text = d.str("statement text")?;
        if fnv1a64(text.as_bytes()) != d.u64("statement text hash")? {
            return Err(StorageError::Corrupt(format!(
                "statement `{name}`: text does not match its recorded hash"
            )));
        }
        let num_labels = d.u32("alphabet size")? as usize;
        let mut alphabet = Alphabet::new();
        for _ in 0..num_labels {
            alphabet.intern(&d.str("alphabet label")?);
        }
        if alphabet.len() != num_labels {
            return Err(StorageError::Corrupt(format!(
                "statement `{name}`: duplicate alphabet label"
            )));
        }
        entries.push(Entry { name, text, alphabet });
    }
    d.finish("statements")?;
    Ok((graph_id, entries))
}

/// Re-prepares one entry from its text, binds it to `graph`, and compiles
/// every table a run could touch.
fn warm(entry: Entry, graph: &Arc<GraphDb>) -> Result<WarmStatement, StorageError> {
    let Entry { name, text, alphabet } = entry;
    let corrupt = |what: String| StorageError::Corrupt(format!("statement `{name}`: {what}"));
    let query = parse_query(&text, &alphabet).map_err(|e| corrupt(e.message))?;
    let pq = PreparedQuery::prepare(&query).map_err(|e| corrupt(e.to_string()))?;
    // Bind before compiling, so an entry that cannot bind costs no compile.
    let statement = BoundStatement::bind(Arc::new(pq), Arc::clone(graph))
        .map_err(|e| corrupt(e.to_string()))?;
    statement.prepared().warm_full();
    Ok(WarmStatement { name, text, statement: Arc::new(statement) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalConfig;
    use ecrpq_graph::generators;
    use ecrpq_graph::snapshot;

    fn setup(text: &str) -> (Arc<GraphDb>, u64, BoundStatement) {
        let g = generators::random_graph(48, 3.0, &["a", "b"], 5);
        let bytes = snapshot::write_snapshot(&g).unwrap();
        let id = snapshot::snapshot_id(&bytes);
        let graph = Arc::new(snapshot::read_snapshot(&bytes).unwrap());
        let query = parse_query(text, graph.alphabet()).unwrap();
        let pq = Arc::new(PreparedQuery::prepare(&query).unwrap());
        let stmt = BoundStatement::bind(pq, Arc::clone(&graph)).unwrap();
        (graph, id, stmt)
    }

    const QUERIES: &[&str] = &[
        "Ans(x, y) <- (x, p, y), L(p) = a (a | b)*",
        "Ans(x, y) <- (x, p1, z), (z, p2, y), L(p1) = a*, L(p2) = b*, R(p1, p2) = el",
        "Ans(x) <- (x, p, y), L(p) = a a, len(p) <= 2",
    ];

    #[test]
    fn sidecar_roundtrip_warms_every_cache() {
        for text in QUERIES {
            let (graph, id, stmt) = setup(text);
            let entries = [SidecarStatement { name: "q", text, stmt: &stmt }];
            let bytes = write_sidecar(id, &entries);
            let warm = read_sidecar(&bytes, id, &graph).unwrap();
            assert_eq!(warm.len(), 1);
            assert_eq!(warm[0].name, "q");
            // First run on the reassembled statement: zero compilations.
            let config = EvalConfig::default();
            let (answers, stats) = warm[0].statement.run(&config).unwrap();
            assert_eq!(stats.sim_cache_misses, 0, "query `{text}` recompiled");
            let (expected, _) = stmt.run(&config).unwrap();
            assert_eq!(answers, expected, "query `{text}` answers diverged");
        }
    }

    /// Writing a sidecar compiles nothing: a bound statement that never ran
    /// keeps every relation and unary cache cold, and its sidecar is byte
    /// for byte the one written after a run.
    #[test]
    fn saving_compiles_nothing() {
        for text in QUERIES {
            let (_, id, stmt) = setup(text);
            let entries = [SidecarStatement { name: "q", text, stmt: &stmt }];
            let cold = write_sidecar(id, &entries);
            let pq = stmt.prepared();
            for r in &pq.relations {
                assert!(!r.rel.compiled_sim_is_cached(), "query `{text}`: relation compiled");
                for tape in 0..r.rel.arity() {
                    assert!(!r.rel.projection_sim_is_cached(tape), "query `{text}`: projection");
                }
            }
            for u in pq.unary.iter().flatten() {
                assert!(u.sim_cell.get().is_none(), "query `{text}`: unary table compiled");
                assert!(u.rev_sim_cell.get().is_none(), "query `{text}`: reverse table compiled");
            }
            stmt.run(&EvalConfig::default()).unwrap();
            assert_eq!(write_sidecar(id, &entries), cold, "query `{text}`: bytes changed");
        }
    }

    #[test]
    fn sidecar_rejects_wrong_graph_id() {
        let (graph, id, stmt) = setup(QUERIES[0]);
        let entries = [SidecarStatement { name: "q", text: QUERIES[0], stmt: &stmt }];
        let bytes = write_sidecar(id, &entries);
        let err = read_sidecar(&bytes, id ^ 1, &graph).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
        assert!(err.to_string().contains("written for snapshot"));
    }

    #[test]
    fn sidecar_corruption_never_panics() {
        let (graph, id, stmt) = setup(QUERIES[1]);
        let entries = [SidecarStatement { name: "q", text: QUERIES[1], stmt: &stmt }];
        let bytes = write_sidecar(id, &entries);
        for len in (0..bytes.len()).step_by(11) {
            assert!(read_sidecar(&bytes[..len], id, &graph).is_err());
        }
        for i in (0..bytes.len()).step_by(5) {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert!(read_sidecar(&flipped, id, &graph).is_err(), "flip at {i} decoded");
        }
    }

    #[test]
    fn sidecar_entries_lists_names_without_a_graph() {
        let (graph, id, stmt) = setup(QUERIES[0]);
        let query = parse_query(QUERIES[2], graph.alphabet()).unwrap();
        let pq = Arc::new(PreparedQuery::prepare(&query).unwrap());
        let stmt2 = BoundStatement::bind(pq, Arc::clone(&graph)).unwrap();
        let entries = [
            SidecarStatement { name: "first", text: QUERIES[0], stmt: &stmt },
            SidecarStatement { name: "second", text: QUERIES[2], stmt: &stmt2 },
        ];
        let bytes = write_sidecar(id, &entries);
        let listed = sidecar_entries(&bytes).unwrap();
        assert_eq!(
            listed,
            vec![
                ("first".to_string(), QUERIES[0].to_string()),
                ("second".to_string(), QUERIES[2].to_string()),
            ]
        );
        // Truncations surface as errors, never as a shorter listing.
        for len in (0..bytes.len()).step_by(7) {
            assert!(sidecar_entries(&bytes[..len]).is_err());
        }
    }

    /// The sidecar holds no adjacency: one statement bound to a 1k-edge and
    /// to a 20k-edge graph over the same alphabet writes the same number of
    /// bytes.
    #[test]
    fn sidecar_size_does_not_scale_with_edges() {
        let len = |edges: usize| {
            let g = Arc::new(generators::random_graph(edges / 4, 4.0, &["a", "b"], 9));
            assert_eq!(g.num_edges(), edges);
            let query = parse_query(QUERIES[1], g.alphabet()).unwrap();
            let pq = Arc::new(PreparedQuery::prepare(&query).unwrap());
            let stmt = BoundStatement::bind(pq, g).unwrap();
            write_sidecar(7, &[SidecarStatement { name: "q", text: QUERIES[1], stmt: &stmt }]).len()
        };
        assert_eq!(len(1_000), len(20_000));
    }

    /// A sidecar of an older format version (v1 carried the adjacency, v2
    /// the compiled tables) is a structured version mismatch, from both the
    /// reader and the entry lister.
    #[test]
    fn version_one_sidecar_is_a_version_mismatch() {
        let (graph, id, stmt) = setup(QUERIES[0]);
        for old in [1u32, 2] {
            let mut bytes =
                write_sidecar(id, &[SidecarStatement { name: "q", text: QUERIES[0], stmt: &stmt }]);
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let expected = StorageError::VersionMismatch { found: old, expected: FORMAT_VERSION };
            assert_eq!(read_sidecar(&bytes, id, &graph).unwrap_err(), expected);
            assert_eq!(sidecar_entries(&bytes).unwrap_err(), expected);
        }
    }
}
