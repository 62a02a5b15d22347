//! Messages of the flexible three-phase broadcast.
//!
//! Each message type belongs to exactly one phase, and the kind labels keep
//! that attribution visible in the experiment output: the per-phase message
//! and byte breakdown of experiments E5 and E6 is simply the simulator's
//! per-kind counters.

use fnp_netsim::Payload;
use std::sync::Arc;

/// Fixed framing overhead added to payload-carrying messages when reporting
/// wire sizes (headers, transaction id, signatures).
const HEADER_BYTES: usize = 40;
/// Reported size of the small control messages of phase 2.
const CONTROL_BYTES: usize = 48;

/// A message of the flexible broadcast protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlexMessage {
    /// Phase 1: a keyed DC-net contribution for one round, sent to every
    /// other group member.
    DcContribution {
        /// DC-net round number (group-local).
        round: u64,
        /// Group-internal index of the contributing member.
        member_index: usize,
        /// The padded contribution (exactly the group's slot length),
        /// shared by the copies sent to every other member.
        data: Arc<[u8]>,
    },
    /// Phase 2: infects a node with the transaction (adaptive diffusion).
    AdInfect {
        /// Diffusion round in which the infection happened.
        round: u32,
        /// The transaction payload.
        payload: Vec<u8>,
    },
    /// Phase 2: a spread wave instructing the infected subtree to grow.
    AdSpread {
        /// Diffusion round of the wave.
        round: u32,
    },
    /// Phase 2: transfers the virtual-source token.
    AdToken {
        /// Even timestep of the diffusion protocol.
        t: u32,
        /// Hop distance of the new virtual source from the initial one.
        h: u32,
        /// Diffusion rounds executed so far.
        round: u32,
    },
    /// Transition 2 → 3: the final virtual source's "last spread" request,
    /// which also instructs receivers to switch to flood-and-prune.
    FinalSpread {
        /// The transaction payload (so nodes that missed an infection can
        /// still deliver and flood it).
        payload: Vec<u8>,
    },
    /// Phase 3: ordinary flood-and-prune relay of the transaction.
    Flood {
        /// The transaction payload.
        payload: Vec<u8>,
    },
}

impl FlexMessage {
    /// The protocol phase this message belongs to (1, 2 or 3; the final
    /// spread request counts as phase 2 since the last virtual source sends
    /// it as its concluding diffusion action).
    pub fn phase(&self) -> u8 {
        match self {
            FlexMessage::DcContribution { .. } => 1,
            FlexMessage::AdInfect { .. }
            | FlexMessage::AdSpread { .. }
            | FlexMessage::AdToken { .. }
            | FlexMessage::FinalSpread { .. } => 2,
            FlexMessage::Flood { .. } => 3,
        }
    }
}

impl Payload for FlexMessage {
    fn kind(&self) -> &'static str {
        match self {
            FlexMessage::DcContribution { .. } => "flex-dc",
            FlexMessage::AdInfect { .. } => "flex-ad-infect",
            FlexMessage::AdSpread { .. } => "flex-ad-spread",
            FlexMessage::AdToken { .. } => "flex-ad-token",
            FlexMessage::FinalSpread { .. } => "flex-final",
            FlexMessage::Flood { .. } => "flex-flood",
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            FlexMessage::DcContribution { data, .. } => data.len() + HEADER_BYTES,
            FlexMessage::AdInfect { payload, .. } => payload.len() + HEADER_BYTES,
            FlexMessage::AdSpread { .. } => CONTROL_BYTES,
            FlexMessage::AdToken { .. } => CONTROL_BYTES,
            FlexMessage::FinalSpread { payload } => payload.len() + HEADER_BYTES,
            FlexMessage::Flood { payload } => payload.len() + HEADER_BYTES,
        }
    }
}

/// Message kinds belonging to each phase, used by reports to aggregate the
/// per-phase breakdown.
pub const PHASE1_KINDS: &[&str] = &["flex-dc"];
/// Phase-2 message kinds.
pub const PHASE2_KINDS: &[&str] = &[
    "flex-ad-infect",
    "flex-ad-spread",
    "flex-ad-token",
    "flex-final",
];
/// Phase-3 message kinds.
pub const PHASE3_KINDS: &[&str] = &["flex-flood"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_phases_are_consistent() {
        let samples = [
            FlexMessage::DcContribution {
                round: 0,
                member_index: 1,
                data: vec![0; 10].into(),
            },
            FlexMessage::AdInfect {
                round: 1,
                payload: vec![0; 10],
            },
            FlexMessage::AdSpread { round: 1 },
            FlexMessage::AdToken {
                t: 2,
                h: 1,
                round: 1,
            },
            FlexMessage::FinalSpread {
                payload: vec![0; 10],
            },
            FlexMessage::Flood {
                payload: vec![0; 10],
            },
        ];
        for message in &samples {
            let kind = message.kind();
            let phase = message.phase();
            let in_phase_list = match phase {
                1 => PHASE1_KINDS.contains(&kind),
                2 => PHASE2_KINDS.contains(&kind),
                3 => PHASE3_KINDS.contains(&kind),
                _ => false,
            };
            assert!(in_phase_list, "{kind} not listed for phase {phase}");
        }
    }

    #[test]
    fn payload_carrying_messages_report_payload_plus_header() {
        let message = FlexMessage::Flood {
            payload: vec![0; 200],
        };
        assert_eq!(message.size_bytes(), 240);
        let message = FlexMessage::DcContribution {
            round: 0,
            member_index: 0,
            data: vec![0; 300].into(),
        };
        assert_eq!(message.size_bytes(), 340);
    }

    #[test]
    fn control_messages_are_small() {
        assert!(FlexMessage::AdSpread { round: 1 }.size_bytes() < 100);
        assert!(
            FlexMessage::AdToken {
                t: 2,
                h: 1,
                round: 0
            }
            .size_bytes()
                < 100
        );
    }

    #[test]
    fn every_phase_is_covered_by_kind_lists() {
        assert_eq!(
            PHASE1_KINDS.len() + PHASE2_KINDS.len() + PHASE3_KINDS.len(),
            6
        );
    }
}
