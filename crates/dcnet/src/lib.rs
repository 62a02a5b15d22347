//! # fnp-dcnet — dining-cryptographers networks for phase 1
//!
//! Phase 1 of the flexible privacy-preserving broadcast (*"A Flexible
//! Network Approach to Privacy of Blockchain Transactions"*, ICDCS 2018)
//! spreads a transaction within a small group of `k` nodes using a
//! dining-cryptographers network, giving the originator cryptographic
//! `ℓ`-anonymity among the group's `ℓ` honest members regardless of how
//! much of the surrounding network an adversary observes.
//!
//! This crate implements that phase's constructions:
//!
//! * [`slot`] — checksummed slot framing, so collisions (two or more members
//!   transmitting in the same round) are detected, as required by Fig. 4.
//! * [`explicit`] — the nine-step share-splitting round of Fig. 4, with the
//!   exact `3·k·(k−1)` message cost the paper's §V-A discusses (step 8's
//!   audit exchange is counted, not built); the experiments only price it,
//!   the protocol runs the keyed variant.
//! * [`keyed`] — the pad-based variant over pre-established pairwise keys
//!   (one contribution per member per round), used by the simulator-scale
//!   protocol in `fnp-core`.
//! * [`round`] — [`RoundEngine`], one member's keyed rounds as `fnp-core`'s
//!   `FlexNode` runs and paces them, refusing with a typed [`ReceiveError`]
//!   what no honest peer sends.
//! * [`reservation`] — the §V-A length-announcement optimisation: a 32-bit
//!   reservation round followed by an exactly-sized payload round, plus the
//!   byte-cost model of experiment E9.
//! * [`scratch`] — a buffer pool ([`RoundScratch`]) [`KeyedDcGroup`] draws
//!   its contribution and accumulator buffers from, so experiments running
//!   millions of keyed rounds reuse a bounded set of them.
//!
//! Disruption is not handled: a member that XORs garbage into its
//! contribution makes every round of its group decode as
//! [`SlotOutcome::Collision`], exactly as an honest collision does, and
//! nothing here identifies it.
//!
//! # Example: one anonymous transmission within a group of five
//!
//! ```
//! use fnp_dcnet::keyed::KeyedDcGroup;
//! use fnp_dcnet::slot::SlotOutcome;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut group = KeyedDcGroup::new(5, 128, &mut rng)?;
//!
//! // Member 2 wants to broadcast a transaction; everyone else stays silent.
//! let mut payloads = vec![None; 5];
//! payloads[2] = Some(b"alice pays bob 3 tokens".to_vec());
//!
//! let report = group.run_round(0, &payloads)?;
//! assert_eq!(report.outcome, SlotOutcome::Message(b"alice pays bob 3 tokens".to_vec()));
//! // No member other than 2 can tell who of the five transmitted.
//! # Ok::<(), fnp_dcnet::keyed::KeyedDcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// The round drivers cast slot lengths and message counts between integer
// widths; every remaining cast site must either be provably lossless or
// carry an explicit allow with the reason.
#![warn(clippy::cast_possible_truncation)]
#![warn(clippy::cast_sign_loss)]

pub mod explicit;
pub mod keyed;
pub mod reservation;
pub mod round;
pub mod scratch;
pub mod slot;

pub use explicit::{run_explicit_round, ExplicitRoundReport};
pub use keyed::{
    combine_contributions, combine_contributions_into, KeyedDcGroup, KeyedParticipant,
    KeyedRoundReport,
};
pub use reservation::{
    encode_announcement, interpret_reservation, payload_slot_len, ReservationCostModel,
    ReservationOutcome, RESERVATION_SLOT_LEN,
};
pub use round::{ReceiveError, RoundEngine};
pub use scratch::RoundScratch;
pub use slot::SlotOutcome;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The two DC-net variants agree on outcomes: whatever a single sender
    /// submits, both the explicit (Fig. 4) and the keyed construction
    /// recover it, and both detect the same collisions.
    #[test]
    fn explicit_and_keyed_variants_agree() {
        let mut rng = StdRng::seed_from_u64(11);
        let size = 6;
        let slot_len = 96;

        for scenario in 0..3 {
            let mut payloads: Vec<Option<Vec<u8>>> = vec![None; size];
            match scenario {
                0 => {}
                1 => payloads[4] = Some(b"single sender".to_vec()),
                _ => {
                    payloads[0] = Some(b"first".to_vec());
                    payloads[5] = Some(b"second".to_vec());
                }
            }

            let explicit_report = run_explicit_round(&payloads, slot_len, &mut rng).unwrap();
            let mut keyed_group = KeyedDcGroup::new(size, slot_len, &mut rng).unwrap();
            let keyed_report = keyed_group.run_round(0, &payloads).unwrap();

            // Compare the view of a silent member (index 2 is always silent).
            assert_eq!(
                explicit_report.outcomes[2], keyed_report.outcome,
                "scenario {scenario}"
            );
            // The keyed variant costs a third of the explicit one in messages.
            assert_eq!(
                explicit_report.messages_sent,
                3 * keyed_report.messages_sent
            );
        }
    }

    /// The fused keyed contribute path and the explicit construction still
    /// agree at the larger group sizes the benchmarks exercise.
    #[test]
    fn explicit_and_keyed_agree_at_bench_group_sizes() {
        for (seed, size) in [(21u64, 16usize), (22, 32)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let slot_len = 512;
            for scenario in 0..3 {
                let mut payloads: Vec<Option<Vec<u8>>> = vec![None; size];
                match scenario {
                    0 => {}
                    1 => payloads[size / 2] = Some(b"single sender at scale".to_vec()),
                    _ => {
                        payloads[0] = Some(b"first".to_vec());
                        payloads[size - 1] = Some(b"second".to_vec());
                    }
                }
                let explicit_report = run_explicit_round(&payloads, slot_len, &mut rng).unwrap();
                let mut keyed_group = KeyedDcGroup::new(size, slot_len, &mut rng).unwrap();
                let keyed_report = keyed_group.run_round(0, &payloads).unwrap();
                // Member 1 is silent in every scenario.
                assert_eq!(
                    explicit_report.outcomes[1], keyed_report.outcome,
                    "k={size} scenario {scenario}"
                );
                assert_eq!(
                    explicit_report.messages_sent,
                    3 * keyed_report.messages_sent
                );
            }
        }
    }

    #[test]
    fn message_complexity_is_quadratic_in_group_size() {
        // Experiment E4's shape: doubling k roughly quadruples the messages.
        let k1 = explicit::expected_message_count(5);
        let k2 = explicit::expected_message_count(10);
        assert!(k2 > 3 * k1 && k2 < 5 * k1, "k1={k1} k2={k2}");
    }
}
