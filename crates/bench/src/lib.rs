//! The `serve` benchmark family, run by the `harness` binary: throughput and
//! latency of the query service over loopback TCP ([`serve`]) and its
//! high-concurrency load sweep ([`load`]). Both serve the data-complexity
//! ECRPQ of [`ecrpq_integration::fig1`].
//!
//! The paper's Figure 1 rows are not timed here: `tests/fig1_shapes.rs`
//! pins each row as exact counts, and `benchmarks/e2e` is the one source of
//! end-to-end timings.

pub mod load;
pub mod serve;
