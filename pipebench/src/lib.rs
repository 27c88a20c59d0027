//! # dbs-pipebench
//!
//! The repository's end-to-end benchmark. The `pipeline` binary times the
//! real `dbs` CLI on four seeded workloads (tracing off) and, in a separate
//! traced pass, runs an in-process mirror of each command whose stage spans
//! split the time by layer. `bench-diff` compares two results files.
//! See `README.md` for the workloads, the metrics and how to run them.

pub mod child;
pub mod json;
pub mod mirror;
pub mod stats;
pub mod workload;
