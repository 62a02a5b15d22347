//! # fnp-adversary — attacker models and deanonymisation estimators
//!
//! The point of the flexible broadcast protocol is to survive an
//! honest-but-curious adversary that controls a sizeable fraction of the
//! overlay (§I, §IV-A of the paper). This crate provides everything the
//! experiments need to *measure* that:
//!
//! * [`observer`] — selecting the colluding node set (the botnet model of
//!   Biryukov et al.) and looking up what those nodes could actually
//!   observe in the simulator's first-receipt table.
//! * [`estimators`] — the first-spy and Jordan-centre/rumour-centrality
//!   estimators that turn observations into a posterior over originators.
//! * [`metrics`] — aggregation of detection probability, anonymity-set
//!   size and posterior entropy over many attacked broadcasts (the rows of
//!   experiments E1, E2, E3 and E7).
//!
//! # Example
//!
//! ```
//! use fnp_adversary::{first_spy, AdversarySet, AdversaryView};
//! use fnp_gossip::run_flood;
//! use fnp_netsim::{topology, NodeId, SimConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = topology::random_regular(100, 8, &mut rng)?;
//! let origin = NodeId::new(0);
//!
//! let metrics = run_flood(
//!     graph,
//!     origin,
//!     1,
//!     SimConfig { record_receipts: true, ..SimConfig::default() },
//! );
//!
//! // A botnet controlling 20 % of the network watches the broadcast.
//! let adversaries = AdversarySet::random_fraction(100, 0.2, &[origin], &mut rng);
//! let view = AdversaryView::from_metrics(&metrics, &adversaries);
//! let estimate = first_spy(&view);
//! println!("suspect: {:?}", estimate.best_guess);
//! # Ok::<(), fnp_netsim::GenerateTopologyError>(())
//! ```
//!
//! (The example depends on `fnp-gossip` only for illustration; the library
//! itself is independent of any particular dissemination protocol.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod estimators;
pub mod metrics;
pub mod observer;

pub use estimators::{first_spy, jordan_center, Estimate};
pub use metrics::{AttackOutcome, PrivacyExperiment, PrivacySummary};
pub use observer::{AdversarySet, AdversaryView, Observation};
