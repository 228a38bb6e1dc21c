#![warn(missing_docs)]

//! # sies-core
//!
//! The SIES scheme from *Secure and Efficient In-Network Processing of
//! Exact SUM Queries* (Papadopoulos, Kiayias, Papadias — ICDE 2011).
//!
//! SIES computes **exact** SUM aggregates (and derivatives: COUNT, AVG,
//! VARIANCE, STDDEV) in-network while providing data confidentiality,
//! integrity, authentication, and freshness. It combines:
//!
//! * an additively homomorphic one-time cipher `c = K_t·m + k_{i,t} mod p`
//!   ([`hom`]) so aggregators fuse ciphertexts without keys, and
//! * additive secret sharing ([`codec`]): every plaintext embeds a
//!   per-epoch share `ss_{i,t}`; the decrypted aggregate must carry the
//!   exact sum `Σ ss_{i,t}`, which the querier can recompute — any
//!   tampering, dropping, injection, or replay breaks the match.
//!
//! ## Quick start
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use sies_core::params::SystemParams;
//! use sies_core::scheme::{setup, Source};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let params = SystemParams::new(4).unwrap();
//! let (querier, creds, aggregator) = setup(&mut rng, params);
//! let sources: Vec<Source> = creds.into_iter().map(Source::new).collect();
//!
//! // One epoch: each source encrypts its reading into a PSR…
//! let epoch = 1;
//! let psrs: Vec<_> = sources
//!     .iter()
//!     .zip([10u64, 20, 30, 40])
//!     .map(|(s, v)| s.initialize(epoch, v).unwrap())
//!     .collect();
//! // …aggregators merge them in-network…
//! let final_psr = aggregator.merge(&psrs).unwrap();
//! // …and the querier decrypts, verifies, and extracts the exact SUM.
//! let verified = querier.evaluate(&final_psr, epoch).unwrap();
//! assert_eq!(verified.sum, 100);
//! ```

pub mod codec;
pub mod error;
pub mod hom;
pub mod mutesla;
pub mod parallel;
pub mod params;
pub mod query;
pub mod scheme;

pub use error::{Epoch, SiesError, SourceId};
pub use parallel::Threads;
pub use params::{ResultWidth, SystemParams};
pub use query::{Aggregate, Attribute, Predicate, Query, QueryPlan, QueryResult, SensorReading};
pub use scheme::{
    setup, Aggregator, KeyTable, Psr, Querier, Source, SourceCredentials, VerifiedSum,
};
