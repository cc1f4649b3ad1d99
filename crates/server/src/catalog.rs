//! The graph catalog: named graphs loaded once, shared as `Arc<GraphDb>`.
//!
//! Graphs come from three kinds of sources:
//!
//! * **edge-list text** (inline or from a file): one `source label target`
//!   triple per line, the format of [`GraphDb::from_edge_list`];
//! * **JSON** (inline value or from a file): `{"edges": [["a","x","b"],
//!   …], "nodes": ["lonely", …]}` — `nodes` is optional and only needed for
//!   isolated nodes;
//! * **generator specs**: `cycle:<n>:<label>`,
//!   `random:<n>:<avg_degree>:<label|label|…>:<seed>`, `string:<l l l …>`,
//!   and `rei:<label|label|…>` — the workload generators of `ecrpq_graph`.
//!
//! Reloading a name replaces the stored handle; plans bound against the old
//! graph keep their (still valid) `Arc` but the registry will rebind on the
//! next request because the handle identity changed.

use crate::ServerError;
use ecrpq_graph::{generators, GraphBuilder, GraphDb};
use ecrpq_util::json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Where a cataloged graph comes from.
#[derive(Clone, Debug)]
pub enum GraphSource {
    /// Inline edge-list text (`source label target` per line).
    EdgeListText(String),
    /// A file in edge-list format.
    EdgeListFile(String),
    /// An inline JSON value (`{"edges": [...], "nodes": [...]}`).
    Json(Value),
    /// A file containing that JSON format.
    JsonFile(String),
    /// A built-in generator spec such as `cycle:8:a`.
    Generator(String),
}

/// A thread-safe registry of named graphs, with lock-free lookup counters
/// (a catalog "hit" is a [`GraphCatalog::get`] that found the name, a
/// "miss" one that did not — the read path that every request pays).
#[derive(Debug, Default)]
pub struct GraphCatalog {
    graphs: RwLock<HashMap<String, Arc<GraphDb>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl GraphCatalog {
    /// An empty catalog.
    pub fn new() -> GraphCatalog {
        GraphCatalog::default()
    }

    /// Stores `graph` under `name`, replacing any previous graph.
    pub fn insert(&self, name: &str, graph: Arc<GraphDb>) {
        self.graphs.write().unwrap().insert(name.to_string(), graph);
    }

    /// The graph stored under `name`, counting the lookup.
    pub fn get(&self, name: &str) -> Option<Arc<GraphDb>> {
        let found = self.graphs.read().unwrap().get(name).cloned();
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Number of cataloged graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().unwrap().len()
    }

    /// True if no graph is cataloged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookup hits and misses.
    pub fn lookup_counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }

    /// Sorted `(name, nodes, edges)` summaries of every cataloged graph.
    pub fn summaries(&self) -> Vec<(String, usize, usize)> {
        let graphs = self.graphs.read().unwrap();
        let mut out: Vec<(String, usize, usize)> =
            graphs.iter().map(|(n, g)| (n.clone(), g.num_nodes(), g.num_edges())).collect();
        out.sort();
        out
    }

    /// Builds a graph from `source` and stores it under `name`. Returns the
    /// stored handle.
    pub fn load(&self, name: &str, source: &GraphSource) -> Result<Arc<GraphDb>, ServerError> {
        let graph = Arc::new(build_graph(source)?);
        self.insert(name, Arc::clone(&graph));
        Ok(graph)
    }
}

/// Materializes a graph from a source description.
pub fn build_graph(source: &GraphSource) -> Result<GraphDb, ServerError> {
    match source {
        GraphSource::EdgeListText(text) => GraphDb::from_edge_list(text).map_err(ServerError),
        GraphSource::EdgeListFile(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ServerError(format!("cannot read `{path}`: {e}")))?;
            GraphDb::from_edge_list(&text).map_err(ServerError)
        }
        GraphSource::Json(v) => graph_from_json(v),
        GraphSource::JsonFile(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ServerError(format!("cannot read `{path}`: {e}")))?;
            let v = ecrpq_util::json::parse(&text)
                .map_err(|e| ServerError(format!("bad JSON in `{path}`: {e}")))?;
            graph_from_json(&v)
        }
        GraphSource::Generator(spec) => generate(spec),
    }
}

/// Parses the `{"edges": [[src, label, dst], …], "nodes": [name, …]}` graph
/// format into a sealed graph (see [`GraphBuilder`]).
fn graph_from_json(v: &Value) -> Result<GraphDb, ServerError> {
    let mut g = GraphBuilder::default();
    for n in v.get("nodes").and_then(Value::as_arr).unwrap_or(&[]) {
        let name =
            n.as_str().ok_or_else(|| ServerError("`nodes` entries must be strings".into()))?;
        g.add_named_node(name);
    }
    let edges = v
        .get("edges")
        .and_then(Value::as_arr)
        .ok_or_else(|| ServerError("graph JSON needs an `edges` array".into()))?;
    for e in edges {
        let triple = e.as_arr().filter(|t| t.len() == 3).ok_or_else(|| {
            ServerError("each edge must be a [source, label, target] triple".into())
        })?;
        let (src, label, dst) = match (triple[0].as_str(), triple[1].as_str(), triple[2].as_str()) {
            (Some(s), Some(l), Some(d)) => (s, l, d),
            _ => return Err(ServerError("edge triple components must be strings".into())),
        };
        let from = g.add_named_node(src);
        let to = g.add_named_node(dst);
        g.add_edge_labeled(from, label, to);
    }
    Ok(g.build())
}

/// Builds a graph from a generator spec (colon-separated fields).
fn generate(spec: &str) -> Result<GraphDb, ServerError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let bad = |what: &str| ServerError(format!("bad generator spec `{spec}`: {what}"));
    let int = |s: &str, what: &str| s.parse::<usize>().map_err(|_| bad(what));
    match parts.as_slice() {
        ["cycle", n, label] => Ok(generators::cycle_graph(int(n, "n")?, label)),
        ["random", n, deg, labels, seed] => {
            let deg: f64 = deg.parse().map_err(|_| bad("avg_degree"))?;
            let labels: Vec<&str> = labels.split('|').collect();
            Ok(generators::random_graph(int(n, "n")?, deg, &labels, int(seed, "seed")? as u64))
        }
        ["string", word] => {
            let letters: Vec<&str> = word.split_whitespace().collect();
            if letters.is_empty() {
                return Err(bad("empty word"));
            }
            Ok(generators::string_graph(&letters).0)
        }
        ["rei", labels] => Ok(generators::rei_gadget_graph(&labels.split('|').collect::<Vec<_>>())),
        _ => Err(bad("expected cycle:<n>:<label>, random:<n>:<deg>:<l|l>:<seed>, string:<word>, or rei:<l|l>")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_generator_and_replace() {
        let cat = GraphCatalog::new();
        let g1 = cat.load("g", &GraphSource::Generator("cycle:4:a".into())).unwrap();
        assert_eq!(g1.num_nodes(), 4);
        assert_eq!(cat.summaries(), vec![("g".to_string(), 4, 4)]);
        // reload replaces the handle
        let g2 = cat.load("g", &GraphSource::Generator("cycle:5:a".into())).unwrap();
        assert!(!Arc::ptr_eq(&g1, &g2));
        assert_eq!(cat.get("g").unwrap().num_nodes(), 5);
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn lookups_count_hits_and_misses() {
        let cat = GraphCatalog::new();
        for i in 0..10 {
            cat.load(&format!("g{i}"), &GraphSource::Generator("cycle:3:a".into())).unwrap();
        }
        assert_eq!(cat.len(), 10);
        for i in 0..10 {
            assert!(cat.get(&format!("g{i}")).is_some());
        }
        assert!(cat.get("absent").is_none());
        let (hits, misses) = cat.lookup_counters();
        assert_eq!((hits, misses), (10, 1));
    }

    #[test]
    fn generator_specs() {
        assert_eq!(
            build_graph(&GraphSource::Generator("string:a b a".into())).unwrap().num_edges(),
            3
        );
        let r = build_graph(&GraphSource::Generator("random:20:2.0:a|b:7".into())).unwrap();
        assert_eq!(r.num_nodes(), 20);
        assert!(build_graph(&GraphSource::Generator("rei:a|b".into())).is_ok());
        assert!(build_graph(&GraphSource::Generator("nope".into())).is_err());
        assert!(build_graph(&GraphSource::Generator("cycle:x:a".into())).is_err());
    }

    #[test]
    fn edge_list_and_json_sources() {
        let g = build_graph(&GraphSource::EdgeListText("a x b\nb y c\n".into())).unwrap();
        assert_eq!(g.num_edges(), 2);
        let v = ecrpq_util::json::parse(
            r#"{"nodes": ["lonely"], "edges": [["a", "x", "b"], ["b", "y", "a"]]}"#,
        )
        .unwrap();
        let g = build_graph(&GraphSource::Json(v)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.node_by_name("lonely").is_some());
        let bad = ecrpq_util::json::parse(r#"{"edges": [["a", "x"]]}"#).unwrap();
        assert!(build_graph(&GraphSource::Json(bad)).is_err());
    }

    /// The JSON source declares the `nodes` first, then each edge's
    /// endpoints and label in order: ids and labels are first-seen and rows
    /// keep insertion order, so it builds exactly the graph of the same
    /// calls made one by one — same rows and the same snapshot bytes (which
    /// also encode ids, names, labels and degrees).
    #[test]
    fn json_graph_equals_the_incrementally_built_graph() {
        use ecrpq_graph::prng::SplitMix64;
        use ecrpq_graph::snapshot::write_snapshot;

        for seed in 0..32u64 {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let nodes = 1 + rng.gen_index(10);
            let isolated: Vec<String> =
                (0..rng.gen_index(3)).map(|i| format!("\"lonely{i}\"")).collect();
            // Parallel edges, self-loops, labels first seen in seeded order.
            let mut edges = Vec::new();
            for _ in 0..rng.gen_index(4 * nodes + 1) {
                let from = format!("v{}", rng.gen_index(nodes));
                let to = match rng.gen_index(4) {
                    0 => from.clone(),
                    _ => format!("v{}", rng.gen_index(nodes)),
                };
                let label = ["y", "x", "z"][rng.gen_index(3)];
                if rng.gen_index(5) == 0 {
                    edges.push((from.clone(), label, to.clone()));
                }
                edges.push((from, label, to));
            }
            let triples: Vec<String> =
                edges.iter().map(|(f, l, t)| format!(r#"["{f}","{l}","{t}"]"#)).collect();
            let text =
                format!(r#"{{"nodes":[{}],"edges":[{}]}}"#, isolated.join(","), triples.join(","));
            let json = ecrpq_util::json::parse(&text).unwrap();
            let built = build_graph(&GraphSource::Json(json)).unwrap();
            let mut twin = GraphBuilder::default();
            for name in &isolated {
                twin.add_named_node(name.trim_matches('"'));
            }
            for (f, l, t) in &edges {
                let (from, to) = (twin.add_named_node(f), twin.add_named_node(t));
                twin.add_edge_labeled(from, l, to);
            }
            let (twin, ctx) = (twin.build(), format!("seed {seed}"));
            assert_eq!(built.num_nodes(), twin.num_nodes(), "{ctx}");
            for v in built.nodes() {
                assert_eq!(built.out_edges(v), twin.out_edges(v), "{ctx}, out-row of {v:?}");
                assert_eq!(built.in_edges(v), twin.in_edges(v), "{ctx}, in-row of {v:?}");
            }
            assert_eq!(write_snapshot(&built).unwrap(), write_snapshot(&twin).unwrap(), "{ctx}");
        }
    }
}
