//! # flexnet-privacy — facade crate
//!
//! A from-scratch Rust reproduction of *"A Flexible Network Approach to
//! Privacy of Blockchain Transactions"* (Mödinger, Kopp, Kargl, Hauck —
//! ICDCS 2018): an adjustable privacy-preserving broadcast for blockchain
//! transactions that combines a dining-cryptographers phase (cryptographic
//! k-anonymity floor), an adaptive-diffusion phase (statistical anonymity
//! against botnet-scale observers) and a flood-and-prune phase (guaranteed
//! delivery).
//!
//! This crate simply re-exports the workspace members under stable names;
//! see the individual crates for the full APIs:
//!
//! * [`core`] (`fnp-core`) — the three-phase protocol and experiment harness.
//! * [`dcnet`] (`fnp-dcnet`) — dining-cryptographers rounds.
//! * [`diffusion`] (`fnp-diffusion`) — adaptive diffusion.
//! * [`gossip`] (`fnp-gossip`) — flood-and-prune and Dandelion baselines.
//! * [`groups`] (`fnp-groups`) — DC-net group management.
//! * [`adversary`] (`fnp-adversary`) — attacker models and estimators.
//! * [`shuffle`] (`fnp-shuffle`) — the cost model of the Dissent-style shuffle
//!   baseline.
//! * [`blockchain`] (`fnp-blockchain`) — transactions, mempools, miners and
//!   fee-fairness metrics behind the paper's scenario section.
//! * [`netsim`] (`fnp-netsim`) — the discrete-event network simulator.
//! * [`crypto`] (`fnp-crypto`) — the cryptographic substrate.
//!
//! The runnable examples live in `examples/` and the experiment binaries
//! that regenerate every figure of the paper live in `crates/bench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fnp_adversary as adversary;
pub use fnp_blockchain as blockchain;
pub use fnp_core as core;
pub use fnp_crypto as crypto;
pub use fnp_dcnet as dcnet;
pub use fnp_diffusion as diffusion;
pub use fnp_gossip as gossip;
pub use fnp_groups as groups;
pub use fnp_netsim as netsim;
pub use fnp_shuffle as shuffle;

/// The most common entry points, re-exported for convenience.
pub mod prelude {
    pub use fnp_adversary::{first_spy, AdversarySet, AdversaryView, PrivacyExperiment};
    pub use fnp_core::{
        run_flexible_broadcast, run_protocol, FlexConfig, FlexReport, ProtocolKind,
    };
    pub use fnp_netsim::{topology, Graph, NodeId, SimConfig, Topology};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let config = FlexConfig::default();
        assert_eq!(config.k, 5);
        let _ = NodeId::new(1);
    }
}
