//! # fnp-groups — DC-net group management (§IV-C)
//!
//! Phase 1 of the flexible broadcast runs inside small DC-net groups, so
//! somebody has to create those groups, keep their size inside the
//! `k ≤ |G| ≤ 2k − 1` window as nodes join and leave, deal with overlapping
//! memberships without skewing origin probabilities, and agree on
//! membership changes even with some malicious members. This crate covers
//! those concerns:
//!
//! * [`membership`] — the [`Group`] type with join/leave, the size
//!   invariant, splitting at `2k` and merging after churn.
//! * [`overlap`] — overlapping groups and the origin-probability smoothing
//!   of the paper's A/B/C example (experiment E8).
//! * [`formation`] — partitioning a whole network into random groups and
//!   the Reiter-style manager-based membership agreement tolerating up to
//!   one third of malicious members.
//!
//! # Example
//!
//! ```
//! use fnp_groups::{form_groups, Group};
//! use fnp_netsim::NodeId;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let nodes: Vec<NodeId> = (0..100).map(NodeId::new).collect();
//! let mut rng = StdRng::seed_from_u64(1);
//! let groups = form_groups(&nodes, 5, &mut rng)?;
//! assert!(groups.iter().all(Group::provides_privacy));
//! # Ok::<(), fnp_groups::FormationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod formation;
pub mod membership;
pub mod overlap;

pub use formation::{form_groups, FormationError, ManagedGroup, MembershipDecision};
pub use membership::{Group, GroupError};
pub use overlap::{GroupSelectionPolicy, OverlappingGroups};
