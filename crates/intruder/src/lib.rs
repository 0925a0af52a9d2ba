//! Contamination semantics, monitors, and the evading intruder.
//!
//! The paper argues correctness (Theorems 1 and 6) on paper; this crate
//! *checks* it mechanically on every run. It consumes the linearized event
//! stream produced by the `hypersweep-sim` executors (or synthesized by the
//! fast strategy paths) and maintains the true contamination state of §2:
//!
//! * a node is **guarded** while an agent occupies it;
//! * a node is **clean** if it has been visited and no contaminated path
//!   reaches it;
//! * contamination **spreads**: whenever a node is vacated, contamination
//!   flows into it from any contaminated neighbour and cascades through
//!   unguarded nodes (the intruder is arbitrarily fast).
//!
//! On top of the state it verifies the three defining properties of the
//! paper's problem — *monotonicity* (a clean node is never recontaminated),
//! *contiguity* (the decontaminated region stays connected and contains the
//! homebase) and *coverage* (everything ends clean) — and embodies the
//! intruder as an explicit worst-case evader whose capture concludes a
//! successful search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod contamination;
pub mod evader;
pub mod film;
pub mod monitor;
pub mod wellformed;

pub use connectivity::SafeForest;
pub use contamination::{ContaminationField, FieldScratch};
pub use evader::{CaptureStatus, EvaderPolicy, Intruder};
pub use film::{render_film, render_state, Frame};
pub use monitor::{verify_trace, Monitor, MonitorConfig, Verdict, Violation};
pub use wellformed::{check_trace, TraceError, TraceProblem};
