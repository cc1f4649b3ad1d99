//! Shared std-only utilities for the ECRPQ workspace.
//!
//! This crate owns the pieces that more than one workspace crate needs but
//! that belong to no single domain crate:
//!
//! * [`json`] — the hand-rolled JSON writer/parser (the build environment is
//!   fully offline, so no `serde`). The benchmark harness serializes its
//!   measurement documents with it and the query server uses it for its
//!   line-delimited request/response protocol.
//! * [`Measurement`] — one measured point of a benchmark experiment series,
//!   the record the harness's JSON documents are built from.
//! * [`metrics`] — atomic counters, gauges, log-scale latency histograms,
//!   and a Prometheus-text-format renderer; the server's scrapeable
//!   telemetry is built on this.
//! * [`trace`] — a wall-clock span collector for per-query phase timing
//!   (the engine's `run_mode(.., Some(&mut trace))` and the server's `trace`
//!   op).

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

/// One measured point of an experiment series.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Series name (e.g. `crpq`, `ecrpq`, `qlen`).
    pub series: String,
    /// The swept parameter (graph size, query size, …).
    pub param: u64,
    /// Wall-clock seconds of one evaluation.
    pub seconds: f64,
    /// Extra information (answer count, witness, …).
    pub note: String,
}
