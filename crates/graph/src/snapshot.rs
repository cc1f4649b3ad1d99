//! Persistent binary snapshots of a [`GraphDb`].
//!
//! A snapshot is an [`ecrpq_storage`] container (magic `ECRPQSNP`, format
//! version [`FORMAT_VERSION`]) holding everything a warm reopen needs, each
//! in its own checksummed section:
//!
//! | tag | section | contents |
//! |-----|---------|----------|
//! | 1 | header  | node / edge / label / named-node counts |
//! | 2 | labels  | the interned edge alphabet, in symbol order |
//! | 3 | names   | per-node optional name strings |
//! | 4 | forward | forward CSR: offsets, labels, targets |
//! | 5 | reverse | reverse CSR: offsets, labels, sources |
//! | 6 | degrees | out-/in-degree arrays (derived from the CSR offsets) |
//! | 7 | stats   | the planner's [`GraphStats`] |
//!
//! [`read_snapshot`] preallocates the name arena and adjacency arrays from
//! the header counts, so the warm path performs zero rehash or regrow work,
//! and it validates every offset, label, and target against the header
//! counts, and every CSR row against the degree section, before constructing
//! the graph — a corrupted snapshot is a structured [`StorageError`], never
//! a panic downstream. The graph keeps no degree arrays: the degree section
//! is only a cross-check of the offsets.

use crate::graph::{Csr, GraphDb, Names, NodeId, NodeNames, ANON_SPAN};
use crate::stats::{GraphStats, LabelStats};
use ecrpq_automata::alphabet::{Alphabet, Symbol};
use ecrpq_storage::{fnv1a64, Container, Decoder, Encoder, Writer};
use std::path::Path;

pub use ecrpq_storage::StorageError;
use std::sync::Arc;

/// Edge count above which [`read_snapshot`] decodes the names, forward-CSR,
/// and reverse-CSR sections on separate threads. Below this the sections are
/// small enough that spawn overhead would dominate.
const PARALLEL_DECODE_MIN_EDGES: usize = 65_536;

/// Magic bytes identifying a graph snapshot file.
pub const MAGIC: [u8; 8] = *b"ECRPQSNP";
/// The snapshot format version this build writes and reads. Bumped on any
/// incompatible layout change; older builds reject newer files with
/// [`StorageError::VersionMismatch`] instead of misreading them.
pub const FORMAT_VERSION: u32 = 1;

const SEC_HEADER: u32 = 1;
const SEC_LABELS: u32 = 2;
const SEC_NAMES: u32 = 3;
const SEC_FWD: u32 = 4;
const SEC_REV: u32 = 5;
const SEC_DEGREES: u32 = 6;
const SEC_STATS: u32 = 7;

/// Marker for an anonymous node in the names section.
const ANON: u32 = u32::MAX;

/// The identity of a snapshot: the FNV-1a 64 hash of its 16-byte container
/// header plus each section's `(tag, length, checksum)` triple. Payload bytes
/// are already summarized by the per-section checksums, so the id is
/// content-sensitive without rescanning multi-megabyte payloads on every
/// open. Statement sidecars record this to refuse pairing with a
/// different graph. Structurally malformed bytes fall back to hashing
/// everything — [`read_snapshot`] rejects such files anyway, so the fallback
/// only has to be deterministic.
pub fn snapshot_id(bytes: &[u8]) -> u64 {
    section_digest(bytes).unwrap_or_else(|| fnv1a64(bytes))
}

/// Walks the container layout without touching payloads, collecting the
/// header and every section's framing + checksum into one small buffer to
/// hash. Returns `None` on any structural inconsistency.
fn section_digest(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < 16 || bytes[..8] != MAGIC {
        return None;
    }
    let sections = u32::from_le_bytes(bytes[12..16].try_into().ok()?) as usize;
    let mut digest = Vec::with_capacity(16 + sections.min(64) * 20);
    digest.extend_from_slice(&bytes[..16]);
    let mut pos = 16usize;
    for _ in 0..sections {
        let frame_end = pos.checked_add(12)?;
        if frame_end > bytes.len() {
            return None;
        }
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().ok()?);
        let payload_end = frame_end.checked_add(usize::try_from(len).ok()?)?;
        let end = payload_end.checked_add(8)?;
        if end > bytes.len() {
            return None;
        }
        digest.extend_from_slice(&bytes[pos..frame_end]); // tag + length
        digest.extend_from_slice(&bytes[payload_end..end]); // checksum
        pos = end;
    }
    if pos != bytes.len() {
        return None;
    }
    Some(fnv1a64(&digest))
}

/// Serializes a graph into the snapshot byte format. Fails (structurally,
/// not by panicking) if the graph exceeds the format's `u32` node/edge id
/// space.
pub fn write_snapshot(g: &GraphDb) -> Result<Vec<u8>, StorageError> {
    let n = g.num_nodes();
    let m = g.num_edges();
    if n >= u32::MAX as usize || m >= u32::MAX as usize {
        return Err(StorageError::Corrupt(format!(
            "graph with {n} nodes / {m} edges exceeds the v{FORMAT_VERSION} id space"
        )));
    }
    let named = g.names.arena.iter().filter(|x| x.is_some()).count();

    let mut w = Writer::new(MAGIC, FORMAT_VERSION);

    let mut e = Encoder::with_capacity(32);
    e.u64(n as u64);
    e.u64(m as u64);
    e.u64(g.alphabet.len() as u64);
    e.u64(named as u64);
    w.section(SEC_HEADER, e);

    let mut e = Encoder::new();
    for (_, label) in g.alphabet.iter() {
        e.str(label);
    }
    w.section(SEC_LABELS, e);

    let mut e = Encoder::new();
    for name in g.names.arena.iter() {
        match name {
            Some(s) => e.str(s),
            None => e.u32(ANON),
        }
    }
    w.section(SEC_NAMES, e);

    w.section(SEC_FWD, encode_csr(&g.out_edges, n, m));
    w.section(SEC_REV, encode_csr(&g.in_edges, n, m));

    let degrees = |csr: &Csr| -> Vec<u32> { csr.off.windows(2).map(|w| w[1] - w[0]).collect() };
    let mut e = Encoder::with_capacity(8 * n + 32);
    e.slice_u32(&degrees(&g.out_edges));
    e.slice_u32(&degrees(&g.in_edges));
    w.section(SEC_DEGREES, e);

    let mut e = Encoder::new();
    encode_stats(&g.stats(), &mut e);
    w.section(SEC_STATS, e);

    Ok(w.finish())
}

/// Reconstructs a graph from snapshot bytes, validating shapes, offsets,
/// labels, targets and row lengths along the way. The returned graph is bit-identical
/// to the one that was saved: same node ids, same adjacency order, same
/// cached statistics.
pub fn read_snapshot(bytes: &[u8]) -> Result<GraphDb, StorageError> {
    let c = Container::open(bytes, MAGIC, FORMAT_VERSION)?;

    let mut d = Decoder::new(c.section(SEC_HEADER)?);
    let n = d.u64("header nodes")? as usize;
    let m = d.u64("header edges")? as usize;
    let num_labels = d.u64("header labels")? as usize;
    let named = d.u64("header named")? as usize;
    d.finish("header")?;
    if n >= u32::MAX as usize || m >= u32::MAX as usize || named > n {
        return Err(StorageError::Corrupt("header counts out of range".to_string()));
    }

    // Labels: each costs ≥ 4 bytes on the wire, so the header count is
    // validated against the section size before the alphabet allocates.
    let labels_payload = c.section(SEC_LABELS)?;
    if num_labels * 4 > labels_payload.len() {
        return Err(StorageError::Truncated(format!(
            "labels: {num_labels} labels exceed the {} bytes present",
            labels_payload.len()
        )));
    }
    let mut d = Decoder::new(labels_payload);
    let mut alphabet = Alphabet::new();
    for _ in 0..num_labels {
        let label = d.str("label")?;
        alphabet.intern(&label);
    }
    d.finish("labels")?;
    if alphabet.len() != num_labels {
        return Err(StorageError::Corrupt("duplicate label in alphabet section".to_string()));
    }

    // Degrees first: every CSR row is checked against them, then they are
    // dropped.
    let mut d = Decoder::new(c.section(SEC_DEGREES)?);
    let out_degree = d.vec_u32("out-degrees")?;
    let in_degree = d.vec_u32("in-degrees")?;
    d.finish("degrees")?;
    if out_degree.len() != n || in_degree.len() != n {
        return Err(StorageError::Corrupt("degree arrays do not match the node count".to_string()));
    }

    // The three bulky sections — names, forward CSR, reverse CSR — are
    // independent once the counts are known; above the threshold each gets
    // its own thread so a large reopen is bounded by the slowest section,
    // not the sum.
    let (node_names, out_edges, in_edges) = if m >= PARALLEL_DECODE_MIN_EDGES {
        let (fwd, rev, names) = std::thread::scope(|s| {
            let fwd = s.spawn(|| {
                c.section(SEC_FWD)
                    .and_then(|p| decode_csr(p, "forward", n, m, num_labels, &out_degree))
            });
            let rev = s.spawn(|| {
                c.section(SEC_REV)
                    .and_then(|p| decode_csr(p, "reverse", n, m, num_labels, &in_degree))
            });
            let names = c.section(SEC_NAMES).and_then(|p| decode_names(p, n, named));
            (
                fwd.join().expect("decoder must not panic"),
                rev.join().expect("decoder must not panic"),
                names,
            )
        });
        (names?, fwd?, rev?)
    } else {
        (
            decode_names(c.section(SEC_NAMES)?, n, named)?,
            decode_csr(c.section(SEC_FWD)?, "forward", n, m, num_labels, &out_degree)?,
            decode_csr(c.section(SEC_REV)?, "reverse", n, m, num_labels, &in_degree)?,
        )
    };

    let mut d = Decoder::new(c.section(SEC_STATS)?);
    let stats = decode_stats(&mut d)?;
    d.finish("stats")?;
    if stats.nodes != n as u64 || stats.edges != m as u64 {
        return Err(StorageError::Corrupt("stats do not match the header counts".to_string()));
    }

    // The name index stays unbuilt: `Names` derives it lazily from the
    // arena the first time a name is actually looked up, so opening never
    // pays for an index it may not need.
    let g = GraphDb::from_parts(alphabet, Arc::new(Names::new(node_names)), out_edges, in_edges);
    let _ = g.stats_cache.set(Arc::new(stats));
    Ok(g)
}

/// Decodes the names section: the per-node optional name strings, validated
/// against the header's named-node count and checked for duplicates — by
/// sorted name hash first (no allocation beyond the hash array), falling
/// back to a full string-set pass only if two hashes collide.
fn decode_names(payload: &[u8], n: usize, named: usize) -> Result<NodeNames, StorageError> {
    if payload.len() >= u32::MAX as usize {
        return Err(StorageError::Corrupt("names section exceeds the u32 arena space".to_string()));
    }
    let mut d = Decoder::new(payload);
    // Every name byte in the payload lands in the arena (markers do not), so
    // one reservation up front covers all names with zero reallocation.
    let mut text = String::with_capacity(payload.len().saturating_sub(4 * n));
    let mut spans: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut hashes: Vec<u64> = Vec::with_capacity(named);
    for _ in 0..n {
        let marker = d.u32("node name")?;
        if marker == ANON {
            spans.push(ANON_SPAN);
        } else {
            let name = d.str_slice(marker as usize, "node name")?;
            hashes.push(fnv1a64(name.as_bytes()));
            spans.push((text.len() as u32, marker));
            text.push_str(name);
        }
    }
    d.finish("names")?;
    if hashes.len() != named {
        return Err(StorageError::Corrupt(format!(
            "header declares {named} named nodes, names section has {}",
            hashes.len()
        )));
    }
    // Duplicate detection without a string map: sort the 64-bit name hashes
    // and only fall back to an exact string-set pass if two hashes collide.
    hashes.sort_unstable();
    if hashes.windows(2).any(|w| w[0] == w[1]) {
        let mut seen: std::collections::HashSet<&str> =
            std::collections::HashSet::with_capacity(named);
        for &(off, len) in &spans {
            if (off, len) == ANON_SPAN {
                continue;
            }
            let name = &text[off as usize..(off + len) as usize];
            if !seen.insert(name) {
                return Err(StorageError::Corrupt(format!("duplicate node name `{name}`")));
            }
        }
    }
    Ok(NodeNames { text, spans })
}

/// Writes a snapshot of `g` to `path`, returning the snapshot id.
pub fn save(g: &GraphDb, path: &Path) -> Result<u64, StorageError> {
    let bytes = write_snapshot(g)?;
    ecrpq_storage::write_file(path, &bytes)?;
    Ok(snapshot_id(&bytes))
}

/// Opens a snapshot file, returning the graph and the snapshot id.
pub fn open(path: &Path) -> Result<(GraphDb, u64), StorageError> {
    let bytes = ecrpq_storage::read_file(path)?;
    let g = read_snapshot(&bytes)?;
    Ok((g, snapshot_id(&bytes)))
}

fn encode_csr(csr: &Csr, n: usize, m: usize) -> Encoder {
    let mut e = Encoder::with_capacity(4 * (n + 1) + 8 * m + 32);
    e.slice_u32(&csr.off);
    let labels: Vec<u32> = csr.edges.iter().map(|&(label, _)| label.0).collect();
    let targets: Vec<u32> = csr.edges.iter().map(|&(_, to)| to.0).collect();
    e.slice_u32(&labels);
    e.slice_u32(&targets);
    e
}

fn decode_csr(
    payload: &[u8],
    what: &str,
    n: usize,
    m: usize,
    num_labels: usize,
    degrees: &[u32],
) -> Result<Csr, StorageError> {
    let mut d = Decoder::new(payload);
    let offsets = d.vec_u32(&format!("{what} offsets"))?;
    let labels = d.vec_u32(&format!("{what} labels"))?;
    let targets = d.vec_u32(&format!("{what} targets"))?;
    d.finish(what)?;
    if offsets.len() != n + 1 || offsets[0] != 0 || offsets[n] as usize != m {
        return Err(StorageError::Corrupt(format!("{what} CSR offsets have the wrong shape")));
    }
    if labels.len() != m || targets.len() != m {
        return Err(StorageError::Corrupt(format!(
            "{what} CSR arrays do not match the edge count"
        )));
    }
    // Validate each flat array in one pass, then every row boundary against
    // the degree section; the graph keeps the CSR arrays as its adjacency,
    // so there is no per-row build at all.
    if let Some(&label) = labels.iter().find(|&&l| l as usize >= num_labels) {
        return Err(StorageError::Corrupt(format!(
            "{what} CSR references label {label} beyond the alphabet"
        )));
    }
    if let Some(&to) = targets.iter().find(|&&t| t as usize >= n) {
        return Err(StorageError::Corrupt(format!(
            "{what} CSR references node {to} beyond the node count"
        )));
    }
    for v in 0..n {
        let (lo, hi) = (offsets[v], offsets[v + 1]);
        if hi < lo || hi as usize > m || hi - lo != degrees[v] {
            return Err(StorageError::Corrupt(format!(
                "{what} CSR row {v} disagrees with the degree section"
            )));
        }
    }
    let edges: Vec<(Symbol, NodeId)> =
        labels.iter().zip(&targets).map(|(&l, &t)| (Symbol(l), NodeId(t))).collect();
    Ok(Csr { off: offsets, edges })
}

fn encode_stats(s: &GraphStats, e: &mut Encoder) {
    e.u64(s.nodes);
    e.u64(s.edges);
    e.u64(s.labels.len() as u64);
    for l in &s.labels {
        e.u64(l.edges);
        e.u64(l.sources);
        e.u64(l.targets);
    }
    e.slice_u64(&s.out_degree_hist);
    e.slice_u64(&s.in_degree_hist);
    e.u64(s.max_out_degree);
    e.u64(s.max_in_degree);
    e.f64(s.reach_fraction);
}

fn decode_stats(d: &mut Decoder<'_>) -> Result<GraphStats, StorageError> {
    let nodes = d.u64("stats nodes")?;
    let edges = d.u64("stats edges")?;
    let num_labels = d.u64("stats labels")? as usize;
    if num_labels * 24 > d.remaining() {
        return Err(StorageError::Truncated(format!(
            "stats: {num_labels} label rows exceed the {} bytes present",
            d.remaining()
        )));
    }
    let mut labels = Vec::with_capacity(num_labels);
    for _ in 0..num_labels {
        labels.push(LabelStats {
            edges: d.u64("label edges")?,
            sources: d.u64("label sources")?,
            targets: d.u64("label targets")?,
        });
    }
    let out_degree_hist = d.vec_u64("stats out hist")?;
    let in_degree_hist = d.vec_u64("stats in hist")?;
    let max_out_degree = d.u64("stats max out")?;
    let max_in_degree = d.u64("stats max in")?;
    let reach_fraction = d.f64("stats reach fraction")?;
    Ok(GraphStats {
        nodes,
        edges,
        labels,
        out_degree_hist,
        in_degree_hist,
        max_out_degree,
        max_in_degree,
        reach_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn graphs() -> Vec<GraphDb> {
        vec![
            GraphDb::empty(),
            generators::cycle_graph(6, "a"),
            generators::random_graph(64, 3.0, &["a", "b", "c"], 7),
            {
                // Mixed named and anonymous nodes.
                let mut g = crate::GraphBuilder::default();
                let a = g.add_named_node("start");
                let anon = g.add_node();
                let b = g.add_named_node("end");
                g.add_edge_labeled(a, "x", anon);
                g.add_edge_labeled(anon, "y", b);
                g.build()
            },
        ]
    }

    fn assert_graphs_equal(a: &GraphDb, b: &GraphDb) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        let labels_a: Vec<&str> = a.alphabet().iter().map(|(_, l)| l).collect();
        let labels_b: Vec<&str> = b.alphabet().iter().map(|(_, l)| l).collect();
        assert_eq!(labels_a, labels_b);
        for v in a.nodes() {
            assert_eq!(a.node_name(v), b.node_name(v));
            assert_eq!(a.out_edges(v), b.out_edges(v));
            assert_eq!(a.in_edges(v), b.in_edges(v));
            assert_eq!(a.out_degree(v), b.out_degree(v));
            assert_eq!(a.in_degree(v), b.in_degree(v));
        }
        assert_eq!(*a.stats(), *b.stats());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for g in graphs() {
            let bytes = write_snapshot(&g).unwrap();
            let back = read_snapshot(&bytes).unwrap();
            assert_graphs_equal(&g, &back);
        }
    }

    #[test]
    fn reopened_graph_has_cached_stats() {
        let g = generators::cycle_graph(5, "a");
        let bytes = write_snapshot(&g).unwrap();
        let back = read_snapshot(&bytes).unwrap();
        // The cache was seeded by the decoder: reading stats must not
        // recompute (observable here only as pointer identity stability).
        let s1 = back.stats();
        let s2 = back.stats();
        assert!(Arc::ptr_eq(&s1, &s2));
        assert_eq!(s1.edges, 5);
    }

    #[test]
    fn version_mismatch_is_stable() {
        let g = generators::cycle_graph(3, "a");
        let mut bytes = write_snapshot(&g).unwrap();
        bytes[8] = 99; // bump the format version field
        let err = read_snapshot(&bytes).unwrap_err();
        assert_eq!(err, StorageError::VersionMismatch { found: 99, expected: FORMAT_VERSION });
        assert_eq!(err.to_string(), "format version mismatch: file is v99, this build reads v1");
    }

    #[test]
    fn truncations_and_flips_never_panic() {
        let g = generators::random_graph(24, 2.5, &["a", "b"], 11);
        let bytes = write_snapshot(&g).unwrap();
        for len in (0..bytes.len()).step_by(7) {
            assert!(read_snapshot(&bytes[..len]).is_err(), "truncation to {len} decoded");
        }
        for i in (0..bytes.len()).step_by(3) {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x10;
            assert!(read_snapshot(&flipped).is_err(), "flip at byte {i} decoded");
        }
    }

    /// The degree section only cross-checks the CSR offsets, but the check
    /// stays: a degree section with a valid checksum that moves one edge
    /// from node 1's row to node 0's (out- or in-degrees) is `Corrupt`.
    /// Checksums stop the flip fuzz above before this check is reached.
    #[test]
    fn degree_section_disagreeing_with_the_csr_is_corrupt() {
        let g = generators::random_graph(8, 2.0, &["a", "b"], 3);
        let bytes = write_snapshot(&g).unwrap();
        let c = Container::open(&bytes, MAGIC, FORMAT_VERSION).unwrap();
        for tamper in [None, Some(0), Some(1)] {
            let mut d = Decoder::new(c.section(SEC_DEGREES).unwrap());
            let mut degrees = [d.vec_u32("out").unwrap(), d.vec_u32("in").unwrap()];
            if let Some(which) = tamper {
                let row = degrees[which].iter().position(|&d| d > 0).unwrap();
                degrees[which][row] -= 1;
                degrees[which][(row + 1) % 8] += 1;
            }
            let mut w = Writer::new(MAGIC, FORMAT_VERSION);
            for tag in SEC_HEADER..=SEC_STATS {
                let mut e = Encoder::new();
                if tag == SEC_DEGREES {
                    e.slice_u32(&degrees[0]);
                    e.slice_u32(&degrees[1]);
                } else {
                    e.raw(c.section(tag).unwrap());
                }
                w.section(tag, e);
            }
            let rebuilt = w.finish();
            match tamper {
                None => assert_eq!(rebuilt, bytes, "re-encoding is faithful"),
                Some(which) => match read_snapshot(&rebuilt) {
                    Err(StorageError::Corrupt(msg)) => {
                        assert!(msg.contains("degree section"), "{msg}")
                    }
                    other => panic!("tampered degrees {which}: {other:?}"),
                },
            }
        }
    }

    #[test]
    fn save_and_open_files() {
        let dir = std::env::temp_dir().join(format!("ecrpq-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.snap");
        let g = generators::cycle_graph(8, "a");
        let id = save(&g, &path).unwrap();
        let (back, id2) = open(&path).unwrap();
        assert_eq!(id, id2);
        assert_graphs_equal(&g, &back);
        assert!(matches!(open(&dir.join("missing.snap")).unwrap_err(), StorageError::Io(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
