//! eum-e2e-bench: one benchmark for the query path (client → ldns →
//! authd) and the control plane (rebuild → publish → observe).
//!
//! Everything is measured from outside the crates: by timing calls into
//! their public functions and by wrapping their public transport traits.
//! See `bench/README.md` for the workloads, the metric tables and how
//! the per-layer numbers are meant to explain the end-to-end ones.

pub mod alloc;
pub mod compare;
pub mod harness;
pub mod json;
pub mod oracle;
pub mod procfs;
pub mod replay;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod udpgen;
pub mod workloads;
pub mod world;
pub mod wrap;
