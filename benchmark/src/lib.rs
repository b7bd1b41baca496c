//! The CrowdWeb benchmark: four workloads driven open loop over TCP
//! against the real server, an end-to-end metric set gated per run, a
//! correctness gate, and a traced in-process replay for the per-layer
//! breakdown. See `README.md` for the metrics, workloads and how to run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod exposition;
pub mod gate;
pub mod generator;
pub mod proc_stat;
pub mod repeat;
pub mod report;
pub mod run;
pub mod traced;
pub mod workload;
