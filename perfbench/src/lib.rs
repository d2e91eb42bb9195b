//! The repository's benchmark: five seeded workloads against the
//! engine's public API, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See README.md for what each
//! workload and metric means and `../BENCHMARK.json` for the contract
//! the driver runs it under.

pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod pacing;
pub mod probes;
pub mod runner;
pub mod spans;
pub mod staged;
pub mod stats;
pub mod workloads;
