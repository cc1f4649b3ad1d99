//! # ecrpq-graph
//!
//! Σ-labeled graph databases, paths, convolution products, and workload
//! generators for the ECRPQ query engine — the data-model substrate of
//! Barceló, Libkin, Lin & Wood, *Expressive Languages for Path Queries over
//! Graph-Structured Data* (Section 2 and the workloads of Sections 1, 4
//! and 8.2).
//!
//! ```
//! use ecrpq_graph::graph::GraphBuilder;
//!
//! let mut g = GraphBuilder::default();
//! let alice = g.add_named_node("alice");
//! let bob = g.add_named_node("bob");
//! g.add_edge_labeled(alice, "knows", bob);
//! let g = g.build();
//! assert_eq!(g.num_edges(), 1);
//!
//! // The graph is an NFA over its alphabet once endpoints are fixed.
//! let nfa = g.as_nfa(&[alice], &[bob]);
//! assert!(nfa.accepts(&[g.alphabet().sym("knows")]));
//! ```

#![warn(missing_docs)]

pub mod delta;
pub mod generators;
pub mod graph;
pub mod path;
pub mod prng;
pub mod product;
pub mod snapshot;
pub mod stats;

pub use delta::{EdgeDelta, GraphView, LiveGraph};
pub use graph::{Edge, GraphBuilder, GraphDb, NodeId};
pub use path::Path;
pub use stats::GraphStats;

/// Compile-time guarantee that the data model can be shared across threads
/// (`Arc<GraphDb>` in a server's graph catalog, paths in worker responses).
/// If a future change introduces non-`Send`/`Sync` interior state (an `Rc`,
/// a `Cell`), this fails to build instead of failing at a distant use site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GraphDb>();
    assert_send_sync::<Path>();
    assert_send_sync::<Edge>();
};
