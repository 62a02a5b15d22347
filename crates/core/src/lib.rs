//! # fnp-core — the flexible privacy-preserving broadcast protocol
//!
//! This crate implements the primary contribution of *"A Flexible Network
//! Approach to Privacy of Blockchain Transactions"* (Mödinger, Kopp, Kargl,
//! Hauck — ICDCS 2018): a three-phase transaction broadcast with an
//! adjustable, quantifiable privacy floor.
//!
//! 1. **DC-net phase** (`fnp-dcnet`): the transaction is shared inside a
//!    group of `k` nodes using dining-cryptographers rounds, giving the
//!    originator cryptographic anonymity among the group's honest members —
//!    no matter how much of the network an adversary observes.
//! 2. **Adaptive diffusion phase** (`fnp-diffusion`): the group member whose
//!    hashed identity is closest to the hash of the transaction becomes the
//!    initial virtual source (a verifiable, message-free transition) and
//!    spreads the transaction for `d` rounds so that the infected subgraph
//!    is never centred on the group.
//! 3. **Flood-and-prune phase** (`fnp-gossip`): the final virtual source
//!    triggers an ordinary broadcast, guaranteeing delivery to every node.
//!
//! The crate is organised as:
//!
//! * [`config`] — the `k`/`d` knobs of the privacy–efficiency trade-off.
//! * [`message`] — the protocol messages with per-phase kind labels.
//! * [`node`] — the [`FlexNode`] per-node state machine, pacing phase 1's
//!   `fnp_dcnet::RoundEngine` with its timer.
//! * [`harness`] — group formation, key setup, one-call experiment runners
//!   and the [`ProtocolKind`] abstraction for baseline comparisons.
//! * [`keycache`] — [`group_memberships`], the symmetric derivation of one
//!   group's pairwise DC-net pad keys (a pure function of seed and members).
//!
//! # Example: an anonymous broadcast over a 200-node overlay
//!
//! ```
//! use fnp_core::{run_flexible_broadcast, FlexConfig};
//! use fnp_netsim::{topology, NodeId, SimConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = topology::random_regular(200, 8, &mut rng)?;
//! let report = run_flexible_broadcast(
//!     graph,
//!     NodeId::new(42),
//!     b"alice pays bob 3 tokens".to_vec(),
//!     FlexConfig::default(),       // k = 5, d = 4
//!     SimConfig::default(),
//! )?;
//! assert_eq!(report.coverage(), 1.0);
//! println!(
//!     "phase messages: dc={} diffusion={} flood={}",
//!     report.phase1_messages, report.phase2_messages, report.phase3_messages,
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod harness;
pub mod keycache;
pub mod message;
pub mod node;

pub use config::{ConfigError, ElectionStrategy, FlexConfig};
pub use harness::{
    flex_steady_prototypes_in, node_key_pair, run_flexible_broadcast, run_flexible_broadcast_in,
    run_protocol, run_protocol_in, FlexReport, HarnessError, ProtocolKind,
};
pub use keycache::{group_memberships, GroupKeyCache};
pub use message::{FlexMessage, PHASE1_KINDS, PHASE2_KINDS, PHASE3_KINDS};
pub use node::{FlexNode, GroupMembership};
