#![warn(missing_docs)]

//! # sies-bench
//!
//! The benchmark harness for the SIES reproduction:
//!
//! * [`calibrate`] — measures the paper's Table II primitive costs on the
//!   current host with this repository's own implementations;
//! * [`cost_model`] — the analytic models of paper §V (Equations 1–11),
//!   regenerating Table III and the model rows of Table V;
//! * [`experiments`] — measured per-party costs regenerating Figures 4,
//!   5, 6(a), 6(b) and Table V;
//! * [`throughput`] — parallel epoch-pipeline throughput vs thread
//!   count, with a digest-based determinism oracle;
//! * [`micro`] — the modular-exponentiation kernel suite (windowed
//!   Montgomery, Montgomery batches) and the lane-batched PRFs
//!   measured against the generic oracles, with a CI regression gate;
//! * [`observability`] — structured per-epoch traces from the telemetry
//!   stack (journal events, metric diff and the span timeline) and the
//!   telemetry-on vs -off overhead benchmark, with a CI regression gate;
//! * [`forensics`] — per-epoch incident reports correlating the
//!   telemetry event journal with the replayed signed receipt journal;
//! * [`recovery`] — crash-restart recovery from the durable receipt
//!   journal: kill-restart digest identity at 1/2/8 threads plus cold
//!   replay throughput;
//! * [`report`] — ASCII tables and JSON export;
//! * the `repro` binary ties it all together (`repro --help`).

pub mod calibrate;
pub mod chart;
pub mod cost_model;
pub mod experiments;
pub mod forensics;
pub mod micro;
pub mod observability;
pub mod recovery;
pub mod report;
pub mod throughput;
pub mod timing;

pub use calibrate::{PrimitiveCosts, WireSizes};
pub use cost_model::{CostModel, ModelParams, Range};
pub use experiments::{Options, SeriesPoint};
pub use forensics::{forensic_timeline, ForensicsReport};
pub use micro::{micro_suite, MicroReport};
pub use observability::{capture_trace, overhead_suite, ObservabilityReport};
pub use recovery::{recovery_suite, RecoveryReport};
pub use throughput::{throughput_suite, ThroughputPoint};
