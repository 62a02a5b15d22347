//! # fnp-shuffle — a Dissent-style accountable group shuffle baseline
//!
//! The paper's related-work discussion (§III-B) positions the flexible
//! three-phase protocol against *Dissent* (Corrigan-Gibbs & Ford, CCS 2010):
//! an anonymity system in which every round starts with an **anonymous
//! announcement phase** — a verifiable group shuffle of per-member
//! announcements — followed by a DC-net **bulk phase** sized according to the
//! shuffled announcements. The paper's key quantitative claim about Dissent
//! is that the announcement phase "causes a startup phase scaling linearly in
//! the number of group members and becoming noticeably slow, e.g., 30
//! seconds, for group sizes of 8 to 12", which it argues is unacceptable for
//! blockchain transaction dissemination.
//!
//! This crate implements that baseline from scratch so that the claim can be
//! reproduced and the flexible protocol can be compared against a second
//! cryptographic mechanism besides the plain DC-net of `fnp-dcnet`:
//!
//! * [`onion`] — layered (onion) hybrid encryption over the DH + ChaCha20 +
//!   HMAC primitives of `fnp-crypto`; every shuffle member can strip exactly
//!   one verifiable layer.
//! * [`shuffle`] — the sequential verifiable shuffle: every member submits a
//!   fixed-size onion-encrypted item, members take turns permuting the batch
//!   and stripping their layer, and the last member publishes the unlinkable
//!   plaintext list. Includes the go/no-go check (every member verifies its
//!   own plaintext survived).
//! * [`announce`] — the full Dissent-style round: a shuffle of
//!   length-announcements followed by one DC-net bulk slot per announced
//!   message, with per-message recognition tags so senders can locate their
//!   slot without revealing themselves.
//! * [`cost`] — the startup latency and traffic cost model reproducing the
//!   "30 seconds for 8–12 members" observation (experiment E11,
//!   `fnp-bench tab5_dissent_startup`).
//!
//! The attacker model matches the paper's honest-but-curious setting: members
//! follow the protocol but try to link published plaintexts to their
//! senders. One honest shuffler suffices to break that link, which the
//! property tests in [`shuffle`] exercise.
//!
//! # Example
//!
//! ```
//! use fnp_shuffle::{DissentSession, SessionConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut session = DissentSession::new(6, SessionConfig::default(), &mut rng).unwrap();
//! // Member 2 wants to broadcast a transaction anonymously.
//! let report = session
//!     .run_round(&[None, None, Some(b"tx: a -> b, 5 coins".to_vec()), None, None, None], &mut rng)
//!     .unwrap();
//! assert!(report.published.iter().any(|m| m == b"tx: a -> b, 5 coins"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod announce;
pub mod cost;
pub mod onion;
pub mod shuffle;

pub use announce::{DissentReport, DissentSession, SessionConfig, SessionError};
pub use cost::{startup_latency_ms, StartupCostModel, StartupEstimate};
pub use onion::{LayerError, LayerKeyPair, OnionItem};
pub use shuffle::{run_shuffle, ShuffleError, ShuffleMember, ShuffleReport};
