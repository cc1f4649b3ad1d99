//! Compiled-artifact sidecars: warm prepared statements across restarts.
//!
//! A graph snapshot (see `ecrpq_graph::snapshot`) restores the data in
//! milliseconds, but a freshly reopened server would still pay the full
//! statement cost on first use: NFA compilation, dense simulation-table
//! construction, and graph binding. The *sidecar* file written next to a
//! snapshot (`<path>.art`, magic `ECRPQART`) closes that gap. For every
//! prepared statement bound to the saved graph it persists:
//!
//! - the statement name, text, and an FNV-1a 64 hash of the text (the key —
//!   a loader re-parses the text and refuses an entry whose hash disagrees),
//! - every compiled [`CompactNfa`] simulation table the statement could
//!   touch at run time: relation convolution tables, per-tape projection
//!   tables, and forward *and reverse* unary tables ([`warm_full`] forces
//!   the reverse tables before writing, because the planner may pick a
//!   reverse BFS on its very first run),
//! - the statement's [`BindArtifacts`] — the graph-to-query symbol map and
//!   the resolved constants/counters binding produces. No adjacency: a run
//!   reads the reopened graph's own, so a sidecar's size depends on the
//!   statements and the graph's alphabet, never on its edge count.
//!
//! Loading re-prepares the statement from its text (cheap — parsing and
//! plan numbering, no table compilation), seeds every memoized `OnceLock`
//! cache with the decoded tables, and reassembles the [`BoundStatement`]
//! from the decoded artifacts. The first `run` after a warm open therefore
//! reports `sim_cache_misses: 0`: nothing is compiled, everything is read.
//!
//! The sidecar records the snapshot id of the graph it was written against
//! and every decoded artifact is validated against the reopened graph
//! (shapes, node ids, label ids), so a mismatched or corrupted sidecar is a
//! structured [`StorageError`] — never a panic or an out-of-bounds run.
//!
//! [`warm_full`]: PreparedQuery::warm_full

use crate::eval::prepared::{BindArtifacts, CounterRow};
use crate::eval::{BoundStatement, PreparedQuery};
use crate::parse::parse_query;
use ecrpq_automata::alphabet::{Alphabet, Symbol};
use ecrpq_automata::persist as sim_codec;
use ecrpq_automata::semilinear::CmpOp;
use ecrpq_graph::graph::{GraphDb, NodeId};
use ecrpq_storage::{fnv1a64, Container, Decoder, Encoder, StorageError, Writer};
use std::sync::Arc;

/// Magic bytes identifying a compiled-artifact sidecar file.
pub const MAGIC: [u8; 8] = *b"ECRPQART";
/// The sidecar format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 2;

const SEC_GRAPH_ID: u32 = 1;
const SEC_STATEMENTS: u32 = 2;

/// The conventional sidecar path for a snapshot at `path`: `<path>.art`.
pub fn sidecar_path(path: &std::path::Path) -> std::path::PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(".art");
    std::path::PathBuf::from(s)
}

/// One statement to persist: its registry name, source text, and the bound
/// statement holding the compiled caches and bind artifacts.
#[derive(Debug)]
pub struct SidecarStatement<'a> {
    /// Registry name of the statement.
    pub name: &'a str,
    /// The statement's source text (re-parsed on load).
    pub text: &'a str,
    /// The statement bound to the graph being saved.
    pub stmt: &'a BoundStatement,
}

/// One statement reassembled from a sidecar, fully warmed.
#[derive(Debug)]
pub struct WarmStatement {
    /// Registry name of the statement.
    pub name: String,
    /// The statement's source text.
    pub text: String,
    /// The statement, bound to the reopened graph with every simulation
    /// cache seeded.
    pub statement: Arc<BoundStatement>,
}

/// Serializes a sidecar for the graph snapshot identified by `graph_id`.
/// Forces full compilation ([`PreparedQuery::warm_full`]) of every statement
/// first, so the file contains everything a run could touch.
pub fn write_sidecar(graph_id: u64, statements: &[SidecarStatement<'_>]) -> Vec<u8> {
    let mut w = Writer::new(MAGIC, FORMAT_VERSION);
    let mut e = Encoder::with_capacity(8);
    e.u64(graph_id);
    w.section(SEC_GRAPH_ID, e);

    let mut e = Encoder::new();
    e.u32(statements.len() as u32);
    for s in statements {
        encode_statement(s, &mut e);
    }
    w.section(SEC_STATEMENTS, e);
    w.finish()
}

/// Parses a sidecar written for the snapshot identified by `graph_id` and
/// reassembles every statement against `graph` (the reopened snapshot). A
/// sidecar recorded against a different snapshot id is rejected.
pub fn read_sidecar(
    bytes: &[u8],
    graph_id: u64,
    graph: &Arc<GraphDb>,
) -> Result<Vec<WarmStatement>, StorageError> {
    let c = Container::open(bytes, MAGIC, FORMAT_VERSION)?;
    let mut d = Decoder::new(c.section(SEC_GRAPH_ID)?);
    let recorded = d.u64("sidecar graph id")?;
    d.finish("graph id")?;
    if recorded != graph_id {
        return Err(StorageError::Corrupt(format!(
            "sidecar was written for snapshot {recorded:#018x}, not {graph_id:#018x}"
        )));
    }
    let mut d = Decoder::new(c.section(SEC_STATEMENTS)?);
    let count = d.u32("statement count")? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        out.push(decode_statement(&mut d, graph)?);
    }
    d.finish("statements")?;
    Ok(out)
}

/// Lists the `(name, text)` entries of a sidecar without reassembling (or
/// validating against a graph) any of them. The save path uses this to
/// report `sidecar_gc`: how many entries of the previous sidecar a rewrite
/// drops because their statement was re-prepared or unregistered since.
/// Tables and artifacts are decoded for framing only and discarded.
pub fn sidecar_entries(bytes: &[u8]) -> Result<Vec<(String, String)>, StorageError> {
    let c = Container::open(bytes, MAGIC, FORMAT_VERSION)?;
    let mut d = Decoder::new(c.section(SEC_GRAPH_ID)?);
    d.u64("sidecar graph id")?;
    d.finish("graph id")?;
    let mut d = Decoder::new(c.section(SEC_STATEMENTS)?);
    let count = d.u32("statement count")? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        out.push(skip_statement(&mut d)?);
    }
    d.finish("statements")?;
    Ok(out)
}

/// Consumes one statement entry structurally, returning its name and text.
fn skip_statement(d: &mut Decoder<'_>) -> Result<(String, String), StorageError> {
    let name = d.str("statement name")?;
    let text = d.str("statement text")?;
    let hash = d.u64("statement text hash")?;
    if fnv1a64(text.as_bytes()) != hash {
        return Err(StorageError::Corrupt(format!(
            "statement `{name}`: text does not match its recorded hash"
        )));
    }
    let num_labels = d.u32("alphabet size")? as usize;
    for _ in 0..num_labels {
        d.str("alphabet label")?;
    }
    let rel_count = d.u32("relation count")? as usize;
    for _ in 0..rel_count {
        if d.u8("relation sim flag")? != 0 {
            sim_codec::decode_tuple_sim(d)?;
        }
        let arity = d.u32("relation arity")? as usize;
        for _ in 0..arity {
            if d.u8("projection sim flag")? != 0 {
                sim_codec::decode_sym_sim(d)?;
            }
        }
    }
    let unary_count = d.u32("unary count")? as usize;
    for _ in 0..unary_count {
        let flags = d.u8("unary flags")?;
        if flags & 0b11 != flags {
            return Err(StorageError::Corrupt(format!(
                "statement `{name}`: unknown unary flag bits {flags:#04x}"
            )));
        }
        if flags & 1 != 0 {
            sim_codec::decode_sym_sim(d)?;
        }
        if flags & 2 != 0 {
            sim_codec::decode_sym_sim(d)?;
        }
    }
    skip_artifacts(d)?;
    Ok((name, text))
}

/// Consumes one [`BindArtifacts`] encoding without shape validation.
fn skip_artifacts(d: &mut Decoder<'_>) -> Result<(), StorageError> {
    d.u64("merged alphabet size")?;
    d.vec_u32("graph symbol map")?;
    let num_constants = d.u32("constant count")? as usize;
    for _ in 0..num_constants {
        d.u32("constant var")?;
        d.u32("constant node")?;
    }
    let num_counters = d.u32("counter count")? as usize;
    for _ in 0..num_counters {
        d.vec_i64("counter length coefficients")?;
        let width = d.u32("counter symbol width")? as usize;
        for _ in 0..width {
            d.vec_i64("counter symbol coefficients")?;
        }
        d.u8("counter op")?;
        d.i64("counter constant")?;
    }
    Ok(())
}

fn encode_statement(s: &SidecarStatement<'_>, e: &mut Encoder) {
    let pq = s.stmt.prepared();
    pq.warm_full();

    e.str(s.name);
    e.str(s.text);
    e.u64(fnv1a64(s.text.as_bytes()));

    // The query alphabet, so the loader re-parses over identical symbols.
    let alphabet = &pq.query().alphabet;
    e.u32(alphabet.len() as u32);
    for (_, label) in alphabet.iter() {
        e.str(label);
    }

    // Relation-level caches: the convolution tables and every per-tape
    // projection that compilation populated.
    e.u32(pq.relations.len() as u32);
    for r in &pq.relations {
        if r.rel.compiled_sim_is_cached() {
            e.u8(1);
            sim_codec::encode_tuple_sim(&r.rel.compiled_sim(), e);
        } else {
            e.u8(0);
        }
        e.u32(r.rel.arity() as u32);
        for tape in 0..r.rel.arity() {
            if r.rel.projection_sim_is_cached(tape) {
                e.u8(1);
                sim_codec::encode_sym_sim(&r.rel.projection_sim(tape), e);
            } else {
                e.u8(0);
            }
        }
    }

    // Query-owned unary caches: forward and reverse tables per path var.
    e.u32(pq.unary.len() as u32);
    for u in &pq.unary {
        let (fwd, rev) = match u {
            Some(u) => (u.sim_cell.get(), u.rev_sim_cell.get()),
            None => (None, None),
        };
        e.u8((fwd.is_some() as u8) | ((rev.is_some() as u8) << 1));
        if let Some(sim) = fwd {
            sim_codec::encode_sym_sim(sim, e);
        }
        if let Some(sim) = rev {
            sim_codec::encode_sym_sim(sim, e);
        }
    }

    encode_artifacts(s.stmt.artifacts(), e);
}

fn decode_statement(
    d: &mut Decoder<'_>,
    graph: &Arc<GraphDb>,
) -> Result<WarmStatement, StorageError> {
    let name = d.str("statement name")?;
    let text = d.str("statement text")?;
    let hash = d.u64("statement text hash")?;
    if fnv1a64(text.as_bytes()) != hash {
        return Err(StorageError::Corrupt(format!(
            "statement `{name}`: text does not match its recorded hash"
        )));
    }

    let num_labels = d.u32("alphabet size")? as usize;
    let mut alphabet = Alphabet::new();
    for _ in 0..num_labels {
        let label = d.str("alphabet label")?;
        alphabet.intern(&label);
    }
    if alphabet.len() != num_labels {
        return Err(StorageError::Corrupt(format!("statement `{name}`: duplicate alphabet label")));
    }

    // Re-prepare from text: parsing and plan numbering only — every table
    // compile below is replaced by seeding a decoded one.
    let query = parse_query(&text, &alphabet)
        .map_err(|e| StorageError::Corrupt(format!("statement `{name}`: {}", e.message)))?;
    let pq = PreparedQuery::prepare(&query)
        .map_err(|e| StorageError::Corrupt(format!("statement `{name}`: {e}")))?;

    let rel_count = d.u32("relation count")? as usize;
    if rel_count != pq.relations.len() {
        return Err(StorageError::Corrupt(format!(
            "statement `{name}`: sidecar has {rel_count} relations, the query compiles to {}",
            pq.relations.len()
        )));
    }
    for r in &pq.relations {
        if d.u8("relation sim flag")? != 0 {
            let sim = sim_codec::decode_tuple_sim(d)?;
            r.rel.seed_compiled_sim(Arc::new(sim));
        }
        let arity = d.u32("relation arity")? as usize;
        if arity != r.rel.arity() {
            return Err(StorageError::Corrupt(format!(
                "statement `{name}`: sidecar relation arity {arity} does not match {}",
                r.rel.arity()
            )));
        }
        for tape in 0..arity {
            if d.u8("projection sim flag")? != 0 {
                let sim = sim_codec::decode_sym_sim(d)?;
                r.rel.seed_projection_sim(tape, Arc::new(sim));
            }
        }
    }

    let unary_count = d.u32("unary count")? as usize;
    if unary_count != pq.unary.len() {
        return Err(StorageError::Corrupt(format!(
            "statement `{name}`: sidecar has {unary_count} unary plans, the query compiles to {}",
            pq.unary.len()
        )));
    }
    for u in &pq.unary {
        let flags = d.u8("unary flags")?;
        if flags & 0b11 != flags {
            return Err(StorageError::Corrupt(format!(
                "statement `{name}`: unknown unary flag bits {flags:#04x}"
            )));
        }
        if flags != 0 && u.is_none() {
            return Err(StorageError::Corrupt(format!(
                "statement `{name}`: sidecar seeds an unconstrained path variable"
            )));
        }
        if flags & 1 != 0 {
            let sim = sim_codec::decode_sym_sim(d)?;
            let _ = u.as_ref().expect("checked above").sim_cell.set(Arc::new(sim));
        }
        if flags & 2 != 0 {
            let sim = sim_codec::decode_sym_sim(d)?;
            let _ = u.as_ref().expect("checked above").rev_sim_cell.set(Arc::new(sim));
        }
    }

    let art = decode_artifacts(d, &name, &pq, graph)?;
    let statement = BoundStatement::from_parts(Arc::new(pq), Arc::clone(graph), art);
    Ok(WarmStatement { name, text, statement: Arc::new(statement) })
}

fn encode_artifacts(a: &BindArtifacts, e: &mut Encoder) {
    e.u64(a.merged_len as u64);
    let syms: Vec<u32> = a.graph_symbol_map.iter().map(|s| s.0).collect();
    e.slice_u32(&syms);
    e.u32(a.constants.len() as u32);
    for &(var, node) in &a.constants {
        e.u32(var as u32);
        e.u32(node.0);
    }
    e.u32(a.counters.len() as u32);
    for row in &a.counters {
        e.slice_i64(&row.length_coeff);
        e.u32(row.symbol_coeff.len() as u32);
        for per_sym in &row.symbol_coeff {
            e.slice_i64(per_sym);
        }
        e.u8(match row.op {
            CmpOp::Ge => 0,
            CmpOp::Eq => 1,
            CmpOp::Le => 2,
        });
        e.i64(row.constant);
    }
}

fn decode_artifacts(
    d: &mut Decoder<'_>,
    name: &str,
    pq: &PreparedQuery,
    graph: &GraphDb,
) -> Result<BindArtifacts, StorageError> {
    let corrupt =
        |what: &str| StorageError::Corrupt(format!("statement `{name}`: bind artifacts: {what}"));
    let n = graph.num_nodes();

    let merged_len = d.u64("merged alphabet size")? as usize;
    let graph_symbol_map: Vec<Symbol> =
        d.vec_u32("graph symbol map")?.into_iter().map(Symbol).collect();
    if graph_symbol_map.len() != graph.alphabet().len() {
        return Err(corrupt("symbol map does not match the graph alphabet"));
    }
    if graph_symbol_map.iter().any(|s| s.index() >= merged_len) {
        return Err(corrupt("symbol map exceeds the merged alphabet"));
    }

    let num_constants = d.u32("constant count")? as usize;
    let mut constants = Vec::with_capacity(num_constants.min(1024));
    for _ in 0..num_constants {
        let var = d.u32("constant var")? as usize;
        let node = d.u32("constant node")?;
        if var >= pq.node_vars.len() || node as usize >= n {
            return Err(corrupt("constant out of range"));
        }
        constants.push((var, NodeId(node)));
    }

    let num_counters = d.u32("counter count")? as usize;
    if num_counters != pq.counters.len() {
        return Err(corrupt("counter rows do not match the query"));
    }
    let num_paths = pq.path_vars.len();
    let mut counters = Vec::with_capacity(num_counters);
    for _ in 0..num_counters {
        let length_coeff = d.vec_i64("counter length coefficients")?;
        if length_coeff.len() != num_paths {
            return Err(corrupt("counter row width does not match the path variables"));
        }
        let width = d.u32("counter symbol width")? as usize;
        if width != num_paths {
            return Err(corrupt("counter symbol rows do not match the path variables"));
        }
        let mut symbol_coeff = Vec::with_capacity(width);
        for _ in 0..width {
            let per_sym = d.vec_i64("counter symbol coefficients")?;
            if per_sym.len() > merged_len {
                return Err(corrupt("counter symbol coefficients exceed the merged alphabet"));
            }
            symbol_coeff.push(per_sym);
        }
        let op = match d.u8("counter op")? {
            0 => CmpOp::Ge,
            1 => CmpOp::Eq,
            2 => CmpOp::Le,
            _ => return Err(corrupt("unknown counter comparison")),
        };
        let constant = d.i64("counter constant")?;
        counters.push(CounterRow { length_coeff, symbol_coeff, op, constant });
    }

    Ok(BindArtifacts { merged_len, graph_symbol_map, constants, counters })
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
    fn artifacts_are_validated_against_the_graph() {
        let (_, id, stmt) = setup(QUERIES[0]);
        let entries = [SidecarStatement { name: "q", text: QUERIES[0], stmt: &stmt }];
        let bytes = write_sidecar(id, &entries);
        // A *different* graph with the same snapshot id must be rejected by
        // the artifact validation (shapes no longer line up).
        let other = Arc::new(generators::cycle_graph(3, "a"));
        assert!(read_sidecar(&bytes, id, &other).is_err());
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

    /// A sidecar of an older format version is a structured version
    /// mismatch, from both the reader and the entry lister.
    #[test]
    fn version_one_sidecar_is_a_version_mismatch() {
        let (graph, id, stmt) = setup(QUERIES[0]);
        let mut bytes =
            write_sidecar(id, &[SidecarStatement { name: "q", text: QUERIES[0], stmt: &stmt }]);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let expected = StorageError::VersionMismatch { found: 1, expected: FORMAT_VERSION };
        assert_eq!(read_sidecar(&bytes, id, &graph).unwrap_err(), expected);
        assert_eq!(sidecar_entries(&bytes).unwrap_err(), expected);
    }
}
