//! hypersweep's benchmark: four user-facing workloads plus the scenario
//! campaigns, measured end to end, and a traced run that times calls into
//! each workspace crate from outside. `main.rs` drives it; see
//! `README.md` for the workloads and metrics.

pub mod campaign;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
