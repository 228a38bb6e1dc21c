#![warn(missing_docs)]

//! # sies-net
//!
//! The sensor-network substrate for the SIES reproduction: aggregation
//! trees (paper §III-A) held in one struct-of-arrays arena, an
//! epoch-driven engine that plays all roles in-process with
//! CPU/byte/energy accounting, honest node-failure handling, and a
//! covert-attack harness.
//!
//! The [`scheme::AggregationScheme`] trait captures the three in-network
//! phases, so SIES ([`deploy::SiesDeployment`]) and the baselines from
//! `sies-baselines` all run under the same engine and are measured
//! identically — the setup the paper's §VI experiments need.
//!
//! Every epoch runs through one sharded post-order walk over a
//! [`topology::Topology`], which the caller builds once and the one
//! executor, [`engine::Engine`], borrows. Its shards are cut at
//! source-count quantiles anywhere in the tree, and the few ancestors
//! that straddle a cut are merged by a serial join. The engine drives it
//! over runs of clean epochs with precompute-ahead
//! ([`engine::Engine::run_epochs`]), one epoch at a time with failures,
//! attacks and a receipt journal ([`engine::Engine::run_epoch_with`]),
//! and under the recovery protocol, with crashed nodes forwarding to
//! their adopters and every uplink on its own random stream
//! ([`engine::Engine::run_epoch_recovering`]).
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sies_core::SystemParams;
//! use sies_net::deploy::SiesDeployment;
//! use sies_net::engine::Engine;
//! use sies_net::topology::Topology;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let deployment = SiesDeployment::new(&mut rng, SystemParams::new(16).unwrap());
//! let topology = Topology::complete_tree(16, 4);
//! // 16 sources, 4 aggregators and the sink.
//! assert_eq!(topology.num_nodes(), 21);
//! let mut engine = Engine::new(&deployment, &topology);
//! let outcome = engine.run_epoch(0, &[3; 16]);
//! assert_eq!(outcome.result.unwrap().sum, 48.0);
//! ```

pub mod chaos;
pub mod deploy;
pub mod energy;
pub mod engine;
pub mod journal;
pub mod pipeline;
pub mod prewarm;
pub mod query_engine;
pub mod radio;
pub mod recovery;
pub mod scheme;
pub mod topology;

pub use chaos::{
    absorb, run_chaos, run_chaos_with_restarts, ChaosConfig, ChaosMetrics, RestartConfig,
    RestartOutcome,
};
pub use deploy::SiesDeployment;
pub use energy::RadioModel;
pub use engine::{
    Attack, EdgeBytes, Engine, EpochOutcome, EpochReport, EpochStats, RecoveredEpoch,
};
pub use journal::{fold_receipt, replay, JournalConfig, ReceiptJournal, ReplayedState};
pub use prewarm::{PrewarmPolicy, PrewarmPool, PrewarmStats};
pub use query_engine::{QueryEngine, QueryOutcome};
pub use recovery::{BackoffConfig, RecoveryConfig, RecoveryReport, UplinkOutcome};
pub use scheme::{AggregationScheme, EvaluatedSum, SchemeError};
pub use sies_core::Threads;
pub use topology::{NodeId, RepairPlan, Topology};

/// The arena's former name. Kept only for `benchmark/src/sut.rs`; the
/// next benchmark change drops it together with
/// [`Topology::from_topology`] and the benchmark's `System::topo`.
pub type FlatTopology = Topology;
