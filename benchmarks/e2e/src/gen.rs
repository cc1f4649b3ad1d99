//! Seeded input generation: every graph, statement and request line a
//! workload sends is made here from `--seed`, and the server sees nothing
//! else.
//!
//! The seed decides node names, edge order, which nodes are pinned and
//! where the random edges fall; the *amount* of work is fixed by structure
//! (a ring through every node, regular layers, an exact row count), so that
//! two seeds time the same system and not two different problems.

use ecrpq_graph::prng::SplitMix64;
use ecrpq_util::json::Value;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServePoint,
    ServeEval,
    ServeRw,
    ColdStart,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ServePoint, Workload::ServeEval, Workload::ServeRw, Workload::ColdStart];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServePoint => "serve_point",
            Workload::ServeEval => "serve_eval",
            Workload::ServeRw => "serve_rw",
            Workload::ColdStart => "cold_start",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// Sizes are constants, not flags: a size is part of a workload's definition.
const POINT_NODES: usize = 1_000;
const POINT_EDGES: usize = 3_000;
const POINT_STMTS_PER_CLASS: usize = 16;
const REACH_NODES: usize = 20_000;
const REACH_CHORDS: [usize; 2] = [7_919, 12_347];
const SEARCH_LAYERS: usize = 5;
const SEARCH_WIDTH: usize = 10;
const WIDE_SIDE: usize = 256;
const RW_NODES: usize = 50_000;
const RW_AB_EDGES: usize = 100_000;
const RW_Z_EDGES: usize = 1_000;
pub const RW_BATCHES: usize = 16;
pub const RW_BATCH_EDGES: usize = 32;
/// Sent with the first write: 4 cycles of 32 adds + 32 removes fill it.
pub const RW_MERGE_THRESHOLD: u64 = 256;
const COLD_NODES: usize = 25_000;
const COLD_EDGES: usize = 100_000;
const READ_LEN: usize = 12;
/// Edges of a complete binary tree of depth 3.
const TREE_EDGES: usize = 14;

pub struct Graph {
    pub name: &'static str,
    /// Edge-list text, one `source label target` per line.
    pub edges: String,
    pub num_edges: usize,
}

pub struct Stmt {
    pub name: String,
    pub graph: &'static str,
    pub query: String,
    pub mode: &'static str,
    /// Whether `run` asks for `threads: nproc`.
    pub parallel: bool,
    /// The latency class this statement's replies are filed under.
    pub class: &'static str,
}

pub struct Inputs {
    pub graphs: Vec<Graph>,
    pub stmts: Vec<Stmt>,
    /// Seeded round-robin order over `stmts` (indices).
    pub order: Vec<usize>,
    /// `serve_rw` only: the edge batches the writer cycles through.
    pub batches: Vec<Vec<[String; 3]>>,
}

fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_index(i + 1));
    }
    v
}

fn pick<'a>(labels: &[&'a str], rng: &mut SplitMix64) -> &'a str {
    labels[rng.gen_index(labels.len())]
}

/// A ring labelled `ring` through all `n` nodes in seeded order (so every
/// node exists and reaches every other), then random edges over `labels`
/// up to `edges` in all.
fn ring_plus_random(
    n: usize,
    edges: usize,
    ring: &str,
    labels: &[&str],
    rng: &mut SplitMix64,
) -> Vec<String> {
    let perm = shuffled(n, rng);
    let mut out: Vec<String> =
        (0..n).map(|i| format!("n{} {ring} n{}", perm[i], perm[(i + 1) % n])).collect();
    while out.len() < edges {
        out.push(format!("n{} {} n{}", rng.gen_index(n), pick(labels, rng), rng.gen_index(n)));
    }
    out
}

fn graph(name: &'static str, lines: Vec<String>) -> Graph {
    let num_edges = lines.len();
    let mut edges = lines.join("\n");
    edges.push('\n');
    Graph { name, edges, num_edges }
}

fn stmt(
    name: String,
    graph: &'static str,
    query: String,
    mode: &'static str,
    class: &'static str,
) -> Stmt {
    Stmt { name, graph, query, mode, parallel: false, class }
}

pub fn generate(workload: Workload, seed: u64) -> Inputs {
    // Each workload draws from its own stream, so that adding a draw to one
    // does not change the inputs of another.
    let mut rng = SplitMix64::seed_from_u64(seed ^ (workload as u64 + 1).wrapping_mul(0xE2E));
    let rng = &mut rng;
    let mut inputs = match workload {
        Workload::ServePoint => serve_point(rng),
        Workload::ServeEval => serve_eval(rng),
        Workload::ServeRw => serve_rw(rng),
        Workload::ColdStart => cold_start(rng),
    };
    inputs.order = shuffled(inputs.stmts.len(), rng);
    inputs
}

fn serve_point(rng: &mut SplitMix64) -> Inputs {
    let g = graph("pt", ring_plus_random(POINT_NODES, POINT_EDGES, "a", &["a", "b", "c"], rng));
    let mut stmts = Vec::new();
    for i in 0..POINT_STMTS_PER_CLASS {
        let x = rng.gen_index(POINT_NODES);
        let query = format!("Ans(y) <- (x, p, y), L(p) = a b c, x = :n{x}");
        stmts.push(stmt(format!("s{i}"), "pt", query, "nodes", "nodes"));
    }
    for i in 0..POINT_STMTS_PER_CLASS {
        let (x, y) = (rng.gen_index(POINT_NODES), rng.gen_index(POINT_NODES));
        let query = format!("Ans() <- (x, p, y), L(p) = (a|b)* c, x = :n{x}, y = :n{y}");
        stmts.push(stmt(format!("b{i}"), "pt", query, "boolean", "bool"));
    }
    Inputs { graphs: vec![g], stmts, order: Vec::new(), batches: Vec::new() }
}

fn serve_eval(rng: &mut SplitMix64) -> Inputs {
    // A circulant graph: node i points at i+1 (a), i+REACH_CHORDS[0] (a) and
    // i+REACH_CHORDS[1] (b). Every rotation is an automorphism and edges are
    // listed in node order, so a pinned BFS does the same work in the same
    // memory order from any node; the seed names the nodes and picks the
    // pins. (Over random edges the same query's time moved ±10 % with the
    // seed at equal pair counts.)
    let perm = shuffled(REACH_NODES, rng);
    let mut lines = Vec::new();
    for (offset, label) in [(1, "a"), (REACH_CHORDS[0], "a"), (REACH_CHORDS[1], "b")] {
        for i in 0..REACH_NODES {
            lines.push(format!("n{} {label} n{}", perm[i], perm[(i + offset) % REACH_NODES]));
        }
    }
    let reach = graph("re", lines);

    // Same generation (the paper's introduction): regular layers, node
    // (l, i) pointing at (l+1, i) and (l+1, i+1). The seed only names the
    // nodes and orders the edges.
    let perm = shuffled(SEARCH_LAYERS * SEARCH_WIDTH, rng);
    let mut lines = Vec::new();
    for l in 0..SEARCH_LAYERS - 1 {
        for i in 0..SEARCH_WIDTH {
            for d in 0..2 {
                let from = perm[l * SEARCH_WIDTH + i];
                let to = perm[(l + 1) * SEARCH_WIDTH + (i + d) % SEARCH_WIDTH];
                lines.push(format!("n{from} a n{to}"));
            }
        }
    }
    let order = shuffled(lines.len(), rng);
    let search = graph("se", order.iter().map(|&i| lines[i].clone()).collect());

    // `(a b)+` over a two-sided graph: u -a-> v -b-> u'. The ring makes
    // every u reach every u, so the answer has exactly WIDE_SIDE² rows
    // whatever the seed adds.
    let (pu, pv) = (shuffled(WIDE_SIDE, rng), shuffled(WIDE_SIDE, rng));
    let mut lines = Vec::new();
    for i in 0..WIDE_SIDE {
        lines.push(format!("u{} a v{}", pu[i], pv[i]));
        lines.push(format!("v{} b u{}", pv[i], pu[(i + 1) % WIDE_SIDE]));
        lines.push(format!("u{} a v{}", rng.gen_index(WIDE_SIDE), rng.gen_index(WIDE_SIDE)));
        lines.push(format!("v{} b u{}", rng.gen_index(WIDE_SIDE), rng.gen_index(WIDE_SIDE)));
    }
    let wide = graph("wi", lines);

    let (x, y) = (rng.gen_index(REACH_NODES), rng.gen_index(REACH_NODES));
    let mut search_stmt = stmt(
        "search".into(),
        "se",
        "Ans(x, y) <- (x, p1, z), (y, p2, z), L(p1) = a+, L(p2) = a+, R(p1, p2) = el".into(),
        "nodes",
        "search",
    );
    search_stmt.parallel = true;
    let stmts = vec![
        stmt(
            "reach".into(),
            "re",
            format!("Ans() <- (x, p, y), L(p) = (a|b)* a b a, x = :n{x}, y = :n{y}"),
            "boolean",
            "reach",
        ),
        search_stmt,
        stmt("wide".into(), "wi", "Ans(x, y) <- (x, p, y), L(p) = (a b)+".into(), "nodes", "wide"),
    ];
    Inputs { graphs: vec![reach, search, wide], stmts, order: Vec::new(), batches: Vec::new() }
}

fn serve_rw(rng: &mut SplitMix64) -> Inputs {
    let mut lines = ring_plus_random(RW_NODES, RW_AB_EDGES, "a", &["a", "b"], rng);
    // Base `z` edges leave the lower half of the nodes and batch edges the
    // upper half: a batch can then never name a base edge, which
    // `remove_edges` (it removes every instance of a triple) would delete.
    let half = RW_NODES / 2;
    for _ in 0..RW_Z_EDGES {
        lines.push(format!("n{} z n{}", rng.gen_index(half), rng.gen_index(RW_NODES)));
    }
    let batches = (0..RW_BATCHES)
        .map(|_| {
            (0..RW_BATCH_EDGES)
                .map(|_| {
                    let from = format!("n{}", half + rng.gen_index(half));
                    [from, "z".to_string(), format!("n{}", rng.gen_index(RW_NODES))]
                })
                .collect()
        })
        .collect();
    let q = stmt("q".into(), "rw", "Ans(x, y) <- (x, p, y), L(p) = z z*".into(), "nodes", "read");
    Inputs { graphs: vec![graph("rw", lines)], stmts: vec![q], order: Vec::new(), batches }
}

fn cold_start(rng: &mut SplitMix64) -> Inputs {
    // Four labels in all: the edit-distance relation's automaton grows
    // steeply with the alphabet (0.2 s to compile at four labels, 2 s at six).
    let letters = ["a", "c", "g", "t"];
    let embedded = 2 * READ_LEN - 1 + 2 * TREE_EDGES;
    let mut lines = ring_plus_random(COLD_NODES, COLD_EDGES - embedded, "a", &["a", "c"], rng);
    // Two complete binary trees of depth 3 for the pinned `el` statement:
    // pinned at arbitrary graph nodes its cost ranged from 6 ms to 470 ms
    // with the seed, pinned at the roots it pairs 8 leaves with 8 leaves.
    for i in 0..TREE_EDGES {
        let (parent, child) = (i / 2, i + 1);
        lines.push(format!("k{parent} a k{child}"));
        lines.push(format!("m{parent} {} m{child}", if i % 2 == 0 { "a" } else { "c" }));
    }
    // A DNA read pair at edit distance 2: one substitution, one deletion.
    let read1: Vec<&str> = (0..READ_LEN).map(|_| pick(&letters, rng)).collect();
    let mut read2 = read1.clone();
    read2[3] = letters[(letters.iter().position(|l| *l == read1[3]).unwrap_or(0) + 1) % 4];
    read2.remove(7);
    for (i, l) in read1.iter().enumerate() {
        lines.push(format!("s{i} {l} s{}", i + 1));
    }
    for (i, l) in read2.iter().enumerate() {
        lines.push(format!("t{i} {l} t{}", i + 1));
    }
    let x = rng.gen_index(COLD_NODES);
    let (n1, n2) = (read1.len(), read2.len());
    let stmts = vec![
        stmt(
            "crpq".into(),
            "cs",
            format!("Ans(y) <- (x, p, y), L(p) = a c a, x = :n{x}"),
            "nodes",
            "run",
        ),
        stmt(
            "len".into(),
            "cs",
            format!("Ans(x, y) <- (x, p, y), L(p) = a c a c, len(p) <= 4, x = :n{x}"),
            "nodes",
            "run",
        ),
        stmt(
            "el".into(),
            "cs",
            "Ans(y1, y2) <- (x1, p1, y1), (x2, p2, y2), L(p1) = a a a, \
             L(p2) = (a|c) (a|c) (a|c), R(p1, p2) = el, x1 = :k0, x2 = :m0"
                .into(),
            "nodes",
            "run",
        ),
        stmt(
            "edit".into(),
            "cs",
            format!(
                "Ans() <- (x1, p1, y1), (x2, p2, y2), R(p1, p2) = edit_le_2, \
                 x1 = :s0, y1 = :s{n1}, x2 = :t0, y2 = :t{n2}"
            ),
            "boolean",
            "run",
        ),
    ];
    Inputs { graphs: vec![graph("cs", lines)], stmts, order: Vec::new(), batches: Vec::new() }
}

fn request(op: &str, fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![("op", Value::str(op))];
    pairs.extend(fields);
    Value::obj(pairs).to_string()
}

impl Graph {
    pub fn load_inline(&self) -> String {
        request(
            "load",
            vec![("graph", Value::str(self.name)), ("edges", Value::str(self.edges.as_str()))],
        )
    }

    pub fn load_path(&self, path: &str) -> String {
        request("load", vec![("graph", Value::str(self.name)), ("path", Value::str(path))])
    }
}

impl Stmt {
    pub fn prepare_line(&self) -> String {
        request(
            "prepare",
            vec![
                ("name", Value::str(self.name.as_str())),
                ("query", Value::str(self.query.as_str())),
                ("graph", Value::str(self.graph)),
            ],
        )
    }

    /// The `run` (or, with `op = "trace"`, the traced) request line.
    pub fn request_line(&self, op: &str, nproc: usize) -> String {
        let mut fields = vec![
            ("name", Value::str(self.name.as_str())),
            ("graph", Value::str(self.graph)),
            ("mode", Value::str(self.mode)),
        ];
        if self.parallel {
            fields.push(("threads", Value::int(nproc as u64)));
        }
        request(op, fields)
    }
}

/// An `add_edges` / `remove_edges` line for one batch; the first write of a
/// server's life also sets the merge threshold.
pub fn mutate_line(add: bool, batch: &[[String; 3]], first: bool) -> String {
    let edges = batch
        .iter()
        .map(|t| Value::Arr(t.iter().map(|s| Value::str(s.as_str())).collect()))
        .collect();
    let mut fields = vec![("graph", Value::str("rw")), ("edges", Value::Arr(edges))];
    if first {
        fields.push(("merge_threshold", Value::int(RW_MERGE_THRESHOLD)));
    }
    request(if add { "add_edges" } else { "remove_edges" }, fields)
}

pub fn save_line(graph: &str, path: &str) -> String {
    request("save", vec![("graph", Value::str(graph)), ("path", Value::str(path))])
}

pub fn simple_line(op: &str) -> String {
    request(op, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a workload sends that depends on the seed, as one string.
    fn script(w: Workload, seed: u64) -> String {
        let inputs = generate(w, seed);
        let mut s = String::new();
        for g in &inputs.graphs {
            s.push_str(&g.load_inline());
        }
        for &i in &inputs.order {
            s.push_str(&inputs.stmts[i].prepare_line());
            s.push_str(&inputs.stmts[i].request_line("run", 2));
        }
        for (i, b) in inputs.batches.iter().enumerate() {
            s.push_str(&mutate_line(true, b, i == 0));
        }
        s
    }

    #[test]
    fn same_seed_same_bytes_and_other_seed_other_bytes() {
        for w in Workload::ALL {
            assert_eq!(script(w, 42), script(w, 42), "{} is not deterministic", w.name());
            assert_ne!(script(w, 42), script(w, 43), "{} ignores its seed", w.name());
        }
    }

    #[test]
    fn sizes_are_what_the_readme_states() {
        let edges = |w| generate(w, 1).graphs.iter().map(|g| g.num_edges).collect::<Vec<_>>();
        assert_eq!(edges(Workload::ServePoint), [POINT_EDGES]);
        assert_eq!(edges(Workload::ServeEval), [3 * REACH_NODES, 80, 4 * WIDE_SIDE]);
        assert_eq!(edges(Workload::ServeRw), [RW_AB_EDGES + RW_Z_EDGES]);
        assert_eq!(edges(Workload::ColdStart), [COLD_EDGES]);
        assert_eq!(generate(Workload::ServePoint, 1).stmts.len(), 32);
        assert_eq!(generate(Workload::ServeRw, 1).batches.len(), RW_BATCHES);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
