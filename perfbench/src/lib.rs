//! The MoVR benchmark: four single-threaded, fixed-work, seed-driven
//! workloads over the simulator's public API, their end-to-end metrics,
//! output checks, and a traced per-layer ledger. See `README.md` beside
//! this crate for what each workload is for and how to run it.

pub mod calibrate;
pub mod host;
pub mod ledger;
pub mod run;
pub mod stats;
pub mod workload;
