#![warn(missing_docs)]

//! # sies-baselines
//!
//! The two benchmark schemes the SIES paper compares against (§II-D):
//!
//! * [`cmt::CmtDeployment`] — **CMT** (Castelluccia–Mykletun–Tsudik):
//!   additively homomorphic one-time pads mod `2^160`. Confidential,
//!   cheap, exact — but offers *no integrity*: tampering and replay go
//!   undetected (demonstrated by tests).
//! * [`secoa::SecoaSum`] — **SECOA_S** (Nath–Yu–Chan): integrity via HMAC
//!   inflation certificates and one-way RSA SEAL chains over `J`
//!   Flajolet–Martin sketches. Verifiable but *approximate* and with no
//!   confidentiality (values travel in clear), at orders-of-magnitude
//!   higher CPU and bandwidth cost.
//!
//! All deployments implement [`sies_net::scheme::AggregationScheme`], so
//! the same epoch engine drives them and the paper's §VI comparisons fall
//! out of identical instrumentation.

pub mod cmt;
pub mod paillier_agg;
pub mod plain;
pub mod seal;
pub mod secoa;
pub mod sketch;

pub use cmt::{CmtDeployment, CmtPsr};
pub use paillier_agg::{PaillierDeployment, PaillierPsr};
pub use plain::{PlainAggregation, PlainPsr};
pub use seal::Seal;
pub use secoa::{SecoaPsr, SecoaSum};
pub use sketch::FmSketch;
