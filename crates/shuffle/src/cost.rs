//! Startup latency and traffic of one Dissent-style round (experiment E11).
//!
//! The paper's argument against Dissent-style systems for blockchain
//! transaction dissemination is quantitative: "The announcement round causes
//! a startup phase scaling linearly in the number of group members and
//! becoming noticeably slow, e.g., 30 seconds, for group sizes of 8 to 12.
//! This latency might not be acceptable in real world blockchain
//! applications." (§III-B).
//!
//! A round of `k` members runs these steps:
//!
//! 1. *key set-up* — every member sends its 8-byte ephemeral layer key to
//!    every other member;
//! 2. *submission* — every member pads a [`ANNOUNCEMENT_LEN`]-byte
//!    announcement (payload length and recognition tag; silent members
//!    announce length 0) to an [`ANNOUNCEMENT_SLOT`]-byte slot, wraps it in
//!    one onion layer per member, and sends it to member 0;
//! 3. *hand-offs* — member `p` permutes the batch of `k` items, strips its
//!    layer from each ([`LAYER_OVERHEAD`] bytes per item) and passes the
//!    batch to member `p + 1`; these `k` steps are **serial**;
//! 4. *final broadcast* — the last member sends the `k` plaintext
//!    announcements to the other `k − 1`;
//! 5. *bulk* — one keyed DC-net round per non-zero announcement, its slot
//!    sized to the announced payload.
//!
//! [`round_traffic`] counts the messages and bytes of these steps in closed
//! form, one term per step. The forms were checked against an executed
//! onion-encrypted session for every `k` in 2..=64 and payload length in
//! 0..=512 (`CHANGES.md` records the check).
//!
//! The original Dissent implementation (closed testbed, 2010-era hardware)
//! cannot be run, so [`StartupCostModel`] substitutes an analytic latency
//! model whose constants are calibrated to reproduce the reported behaviour
//! — tens of seconds for groups of 8–12 members — while keeping the
//! *structure* of the cost faithful to the steps above:
//!
//! * the shuffle is inherently **serial**: member `i+1` cannot start before
//!   member `i` finished permuting and stripping its layer, so latency is the
//!   sum of `k` per-member terms, each of which processes `k` items — the
//!   public-key work per member is therefore `Θ(k)` and the wall-clock of the
//!   whole announcement phase `Θ(k²)` with a large constant (asymmetric
//!   decryptions), which over the 8–12 member range reported in the paper is
//!   well approximated by (and was reported as) "scaling linearly";
//! * every hand-off additionally pays one network round trip.
//!
//! The default constants model 2010-era public-key layer processing (250 ms
//! per item), a 100 ms WAN round trip per hand-off and 500 ms of set-up,
//! which lands the k = 8…12 range at 17.3–37.7 seconds and k = 10 at
//! 26.5 s, matching the paper's "e.g., 30 seconds" anchor.
//! `fnp-bench tab5_dissent_startup` prints the sweep, pinned by its golden
//! output `crates/bench/tests/golden/tab5_dissent_startup.txt`.

use fnp_dcnet::keyed::expected_message_count;
use fnp_dcnet::slot::SLOT_OVERHEAD;

/// Length of one announcement: 4-byte payload length plus 8-byte
/// recognition tag.
pub const ANNOUNCEMENT_LEN: usize = 12;

/// Announcement slot: the announcement behind its 2-byte padding header.
pub const ANNOUNCEMENT_SLOT: usize = ANNOUNCEMENT_LEN + 2;

/// Bytes one onion layer adds: an 8-byte ephemeral public key plus a 16-byte
/// truncated HMAC tag.
pub const LAYER_OVERHEAD: usize = 8 + 16;

/// Messages, bytes and serial steps of one Dissent-style round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundTraffic {
    /// Point-to-point messages across the announcement and bulk phases.
    pub messages: u64,
    /// Bytes carried by those messages.
    pub bytes: u64,
    /// Serial hand-off steps of the announcement shuffle (one per member).
    pub serial_steps: usize,
}

/// Traffic of one round in a group of `k` members in which one member sends
/// a `payload_len`-byte message and the others stay silent. A
/// `payload_len` of 0 announces nothing, so no bulk round runs.
///
/// # Panics
///
/// Panics if `k < 2`: a group of one has no anonymity to offer.
pub fn round_traffic(k: usize, payload_len: usize) -> RoundTraffic {
    assert!(k >= 2, "a Dissent group needs two members, got {k}");
    let (k, s, l) = (k as u64, ANNOUNCEMENT_SLOT as u64, LAYER_OVERHEAD as u64);
    let key_setup = (k * (k - 1), k * (k - 1) * 8);
    let submission = (k, k * (s + k * l));
    let handoffs = (k - 1, (0..k - 1).map(|p| k * (s + (k - p - 1) * l)).sum());
    let broadcast = (k - 1, (k - 1) * k * s);
    let bulk = if payload_len == 0 {
        (0, 0)
    } else {
        let messages = expected_message_count(k as usize);
        (messages, messages * (payload_len + SLOT_OVERHEAD) as u64)
    };
    let steps = [key_setup, submission, handoffs, broadcast, bulk];
    RoundTraffic {
        messages: steps.iter().map(|step| step.0).sum(),
        bytes: steps.iter().map(|step| step.1).sum(),
        serial_steps: k as usize,
    }
}

/// Latency model for the serial announcement shuffle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StartupCostModel {
    /// Wall-clock cost, in milliseconds, of processing a single onion item at
    /// one member (public-key decryption plus integrity verification).
    pub per_item_crypto_ms: f64,
    /// Network round-trip time, in milliseconds, paid once per serial
    /// hand-off between consecutive shuffle members.
    pub handoff_rtt_ms: f64,
    /// Fixed per-round setup cost in milliseconds (ephemeral key generation
    /// and distribution, performed in parallel by all members).
    pub setup_ms: f64,
}

impl Default for StartupCostModel {
    fn default() -> Self {
        Self {
            per_item_crypto_ms: 250.0,
            handoff_rtt_ms: 100.0,
            setup_ms: 500.0,
        }
    }
}

impl StartupCostModel {
    /// A model for modern hardware (hardware-accelerated public-key
    /// operations), used by the `dissent_vs_dcnet` example to show that the
    /// *shape* of the scaling — not the 2010 constants — is what rules the
    /// approach out for latency-sensitive broadcast.
    pub fn modern() -> Self {
        Self {
            per_item_crypto_ms: 5.0,
            handoff_rtt_ms: 50.0,
            setup_ms: 100.0,
        }
    }

    /// Estimates the startup latency of the announcement phase for a group of
    /// `k` members.
    pub fn estimate(&self, k: usize) -> StartupEstimate {
        let k_f = k as f64;
        // Each of the k serial steps decrypts k items and pays one hand-off.
        let serial_ms = k_f * (k_f * self.per_item_crypto_ms + self.handoff_rtt_ms);
        let latency_ms = self.setup_ms + serial_ms;
        StartupEstimate {
            group_size: k,
            latency_ms,
            serial_steps: k,
            crypto_operations: (k * k) as u64,
        }
    }
}

/// Estimated startup cost of one announcement phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StartupEstimate {
    /// Group size the estimate refers to.
    pub group_size: usize,
    /// Estimated wall-clock latency in milliseconds.
    pub latency_ms: f64,
    /// Number of serial hand-off steps (equals the group size).
    pub serial_steps: usize,
    /// Total public-key operations across the group (k² layer strips).
    pub crypto_operations: u64,
}

impl StartupEstimate {
    /// Latency in seconds, the unit the paper quotes.
    pub fn latency_seconds(&self) -> f64 {
        self.latency_ms / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_rows_at_a_250_byte_payload() {
        // (k, messages, bytes) of `fnp-bench tab5_dissent_startup`.
        let golden = [
            (4, 34, 4_544),
            (6, 76, 11_928),
            (8, 134, 23_488),
            (10, 208, 39_800),
            (12, 298, 61_440),
            (16, 526, 123_008),
        ];
        for (k, messages, bytes) in golden {
            let traffic = round_traffic(k, 250);
            assert_eq!(
                (traffic.messages, traffic.bytes),
                (messages, bytes),
                "k = {k}"
            );
            assert_eq!(traffic.messages, 2 * (k * k) as u64 + k as u64 - 2);
            assert_eq!(traffic.serial_steps, k);
        }
    }

    #[test]
    fn an_empty_payload_schedules_no_bulk_round() {
        for k in 2..=64 {
            let idle = round_traffic(k, 0);
            assert_eq!(idle.messages, (k * k + 2 * k - 2) as u64, "k = {k}");
            assert_eq!(idle.serial_steps, k);
        }
        // k = 4: 96 B of keys, 440 B of submissions, 744 B of hand-offs
        // and a 168 B final broadcast.
        assert_eq!(round_traffic(4, 0).bytes, 1_448);
        // Doubling the group more than doubles the idle round's messages:
        // key set-up alone is k·(k−1).
        let messages = [4, 8, 16].map(|k| round_traffic(k, 0).messages);
        assert!(messages[1] > 2 * messages[0]);
        assert!(messages[2] > 2 * messages[1]);
    }

    #[test]
    fn the_bulk_round_is_one_keyed_dcnet_round_of_the_payload() {
        for k in [2, 5, 9, 16] {
            let idle = round_traffic(k, 0);
            for payload_len in [1, 23, 250, 512] {
                let busy = round_traffic(k, payload_len);
                let messages = expected_message_count(k);
                assert_eq!(busy.messages - idle.messages, messages);
                assert_eq!(
                    busy.bytes - idle.bytes,
                    messages * (payload_len + SLOT_OVERHEAD) as u64
                );
            }
        }
    }

    #[test]
    fn paper_anchor_group_sizes_take_tens_of_seconds() {
        // §III-B: "noticeably slow, e.g., 30 seconds, for group sizes of 8 to 12".
        let model = StartupCostModel::default();
        let at_8 = model.estimate(8).latency_seconds();
        let at_10 = model.estimate(10).latency_seconds();
        let at_12 = model.estimate(12).latency_seconds();
        assert!(
            at_8 > 10.0,
            "k=8 should already be noticeably slow, got {at_8}"
        );
        assert!(
            (20.0..45.0).contains(&at_10),
            "k=10 should be ≈30 s, got {at_10}"
        );
        assert!(at_12 > at_10 && at_10 > at_8, "latency must grow with k");
        assert!(
            at_12 < 90.0,
            "k=12 stays within the same order of magnitude, got {at_12}"
        );
    }

    #[test]
    fn small_groups_are_fast() {
        let model = StartupCostModel::default();
        assert!(model.estimate(3).latency_seconds() < 10.0);
    }

    #[test]
    fn modern_hardware_is_faster_but_still_grows_superlinearly() {
        let model = StartupCostModel::modern();
        let at_8 = model.estimate(8).latency_ms;
        let at_16 = model.estimate(16).latency_ms;
        assert!(at_8 < StartupCostModel::default().estimate(8).latency_ms);
        // Doubling the group size more than doubles the latency.
        assert!(at_16 > 2.0 * at_8);
    }

    #[test]
    fn crypto_operation_count_is_quadratic() {
        let model = StartupCostModel::default();
        assert_eq!(model.estimate(4).crypto_operations, 16);
        assert_eq!(model.estimate(8).crypto_operations, 64);
    }
}
