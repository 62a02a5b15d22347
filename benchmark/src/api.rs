//! Every repo symbol the benchmark names, in one place.
//!
//! The workloads import from here and nowhere else, so when the crates'
//! API changes (the ROADMAP's "collapse the variant lattice" item renames
//! most `_in`/`_with` entry points) the benchmark needs a change to this
//! file only.

pub use fnp_adversary::{first_spy, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment};
pub use fnp_bench::json::Json;
pub use fnp_bench::{
    landscape_with, protocol_suite, standard_overlay_in, steady_state_with, LandscapeRow,
};
pub use fnp_blockchain::{
    replay_steady_mempool, Mempool, MinerDelivery, MinerSet, SteadyMempoolConfig, Transaction,
};
pub use fnp_core::harness::node_key_pair;
pub use fnp_core::{
    flex_steady_prototypes_in, run_protocol_in, FlexConfig, GroupKeyCache, ProtocolKind,
};
pub use fnp_crypto::{pairwise_pad_key, ChaCha20, Hkdf, KeyPair, PublicKey, Sha256};
pub use fnp_dcnet::slot::capacity as slot_capacity;
pub use fnp_dcnet::{
    combine_contributions, combine_contributions_into, KeyedDcGroup, KeyedParticipant,
    RoundScratch, SlotOutcome,
};
pub use fnp_diffusion::{AdParams, AdaptiveDiffusionNode};
pub use fnp_gossip::{
    run_flood_in, DandelionNode, DandelionParams, FloodMessage, FloodNode, StemLine,
};
pub use fnp_groups::{form_groups, Group};
pub use fnp_netsim::{
    as_millis, derive_seed, percentile, poisson_arrivals, summarize, Context, Graph, GridPlan,
    LanePool, Metrics, NodeId, ProtocolNode, SimConfig, SimTime, Simulator, TrialArena,
    TrialRunner, SECOND,
};
pub use fnp_node::wire::{parse_event, send_line};
pub use fnp_node::NodeRuntime;
pub use fnp_proto::steady::run_steady_in;
pub use fnp_proto::{Arrival, Mailbox, SimDriver, SteadyReport};
pub use rand::rngs::StdRng;
pub use rand::{Rng, SeedableRng};
