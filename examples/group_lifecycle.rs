//! DC-net group lifecycle: formation, churn, splitting, overlapping-group
//! probability smoothing and manager-based membership votes (§IV-C).
//!
//! Run with:
//!
//! ```text
//! cargo run --example group_lifecycle
//! ```

use fnp_groups::{
    form_groups, Group, GroupSelectionPolicy, ManagedGroup, MembershipDecision, OverlappingGroups,
};
use fnp_netsim::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(3);
    let nodes: Vec<NodeId> = (0..100).map(NodeId::new).collect();

    println!("== forming groups of k = 5 over a 100-node network ==");
    let groups = form_groups(&nodes, 5, &mut rng)?;
    let sizes: Vec<usize> = groups.iter().map(Group::len).collect();
    println!("{} groups, sizes {:?}", groups.len(), sizes);
    assert!(groups.iter().all(Group::provides_privacy));

    println!("\n== churn: members leave, the group recruits, then splits at 2k ==");
    let mut group = groups[0].clone();
    println!("initial size {}", group.len());
    let leaving = group.member_vec()[0];
    group.leave(leaving)?;
    println!(
        "after {leaving} left: size {} (provides privacy: {})",
        group.len(),
        group.provides_privacy()
    );
    let mut next_recruit = 200;
    while group.len() < group.max_size() {
        group.join(NodeId::new(next_recruit))?;
        next_recruit += 1;
    }
    println!("recruited up to the ceiling: size {}", group.len());
    if let Some(e) = group.join(NodeId::new(999)).err() {
        println!("join at ceiling rejected: {e}")
    }
    group.join(NodeId::new(998)).ok(); // ignored, full

    // Grow past the ceiling by merging with a sibling, then split.
    let sibling = Group::new(5, (300..305).map(NodeId::new))?;
    group.merge(sibling);
    println!("after merging a sibling: size {}", group.len());
    let (left, right) = group.split()?;
    println!("split into {} + {} members", left.len(), right.len());

    println!("\n== overlapping groups: the A/B/C probability-skew example ==");
    let mut overlapping = OverlappingGroups::new();
    overlapping.insert_group(0, [NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    overlapping.insert_group(1, [NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
    for policy in [
        GroupSelectionPolicy::UniformPerNode,
        GroupSelectionPolicy::Smoothed,
    ] {
        println!(
            "policy {policy:<18}: worst-case origin probability {:.2} (ideal 0.33), skew {:.2}",
            overlapping.worst_case_origin_probability(0, policy),
            overlapping.skew(0, policy)
        );
    }

    println!("\n== manager-based membership votes (Reiter-style, > 2/3 quorum) ==");
    let base = Group::new(4, (0..6).map(NodeId::new))?;
    let mut managed = ManagedGroup::new(base, NodeId::new(0))?;
    println!(
        "quorum needed: {} of {}",
        managed.required_quorum(),
        managed.group().len()
    );
    let votes: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    match managed.propose_join(NodeId::new(50), &votes)? {
        MembershipDecision::Rejected {
            acknowledgements,
            required,
        } => {
            println!("join with {acknowledgements} acks rejected (needs {required})");
        }
        MembershipDecision::Accepted => println!("join accepted"),
    }
    let votes: Vec<NodeId> = (0..5).map(NodeId::new).collect();
    match managed.propose_join(NodeId::new(50), &votes)? {
        MembershipDecision::Accepted => println!("join with 5 acks accepted"),
        MembershipDecision::Rejected { .. } => println!("unexpected rejection"),
    }
    println!("final group size: {}", managed.group().len());
    Ok(())
}
