//! # fnp-shuffle — the cost of a Dissent-style accountable group shuffle
//!
//! The paper's related-work discussion (§III-B) positions the flexible
//! three-phase protocol against *Dissent* (Corrigan-Gibbs & Ford, CCS 2010):
//! an anonymity system in which every round starts with an **anonymous
//! announcement phase** — a verifiable onion-encrypted shuffle of per-member
//! announcements — followed by a DC-net **bulk phase** sized according to the
//! shuffled announcements. The paper's key quantitative claim about Dissent
//! is that the announcement phase "causes a startup phase scaling linearly in
//! the number of group members and becoming noticeably slow, e.g., 30
//! seconds, for group sizes of 8 to 12", which it argues is unacceptable for
//! blockchain transaction dissemination.
//!
//! Every quantity that claim needs is a closed form of the group size, so
//! this crate is the cost model alone ([`cost`]): [`round_traffic`] counts a
//! round's messages, bytes and serial steps, and [`StartupCostModel`]
//! estimates its startup latency (experiment E11,
//! `fnp-bench tab5_dissent_startup`).
//!
//! # Example
//!
//! ```
//! use fnp_shuffle::{round_traffic, StartupCostModel};
//!
//! // A group of 10 in which one member broadcasts a 250-byte transaction.
//! let traffic = round_traffic(10, 250);
//! assert_eq!((traffic.messages, traffic.bytes), (208, 39_800));
//! assert_eq!(traffic.serial_steps, 10);
//! // The serial announcement shuffle takes tens of seconds at k = 10.
//! let seconds = StartupCostModel::default().estimate(10).latency_seconds();
//! assert!((20.0..45.0).contains(&seconds));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;

pub use cost::{round_traffic, RoundTraffic, StartupCostModel, StartupEstimate};
