//! Fault traces and fault models.
//!
//! The paper's fault-resilience evaluation (§6.2) replays a **348-day
//! production fault trace** collected from a ~3K-GPU cluster of 8-GPU nodes:
//! on average 2.33 % of nodes are faulty at any instant, with a p50 of 1.67 %
//! and a p99 of 7.22 % (Appendix A). The trace itself is distributed separately
//! by the authors; this crate provides:
//!
//! * [`event`] / [`trace`] — the fault-event data model and trace container,
//!   with the instantaneous fault-set query the cluster simulator needs,
//! * [`generator`] — a statistical generator that produces traces matching the
//!   published statistics (per-node independent failure/repair renewal
//!   process), so every experiment that the paper runs on the production trace
//!   can be reproduced on a synthetic trace with the same macro behaviour,
//! * [`convert`] — the Appendix-A Bayesian conversion of an 8-GPU-node trace
//!   into a 4-GPU-node trace,
//! * [`stats`] — the macro statistics of Fig 18 (fault-ratio time series, CDF,
//!   p50/p99),
//! * [`model`] — the i.i.d. node-fault model used for the "waste ratio vs fault
//!   ratio" sweeps (Figs 14 and 22),
//! * [`montecarlo`] — the parallel Monte-Carlo fan-out over (ratio, trial)
//!   shards with one deterministic RNG stream per shard,
//! * [`sim_events`] — trace → fault/repair edge-stream adapters for the
//!   control-plane discrete-event simulator (`control::sim`),
//! * [`storm`] — correlated fault storms: seeded blast-radius bursts keyed to
//!   ToR / aggregation domains, for overload- and recovery-robustness
//!   experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod event;
pub mod generator;
pub mod io;
pub mod model;
pub mod montecarlo;
pub mod sim_events;
pub mod stats;
pub mod storm;
pub mod trace;

pub use convert::convert_8gpu_to_4gpu;
pub use event::FaultEvent;
pub use generator::{GeneratorConfig, TraceGenerator};
pub use io::{from_csv, from_json, to_csv, to_json};
pub use model::IidFaultModel;
pub use montecarlo::{shards, sweep_means, Shard};
pub use sim_events::{generate_events, trace_events, NodeEvent, NodeEventKind};
pub use stats::{TraceStats, DAY_SECONDS};
pub use storm::{generate_storms, StormBurst, StormConfig, StormSchedule};
pub use trace::FaultTrace;
