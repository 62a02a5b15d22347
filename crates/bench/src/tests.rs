//! Unit tests of the experiment drivers at reduced sizes, and the keyed
//! DC-net lane comparison: `fnp-dcnet`'s fused round (pads XORed straight
//! into pooled slot buffers) against an unfused single-block reference
//! that lives only here.

use crate::*;
use fnp_core::run_protocol_in;
use fnp_dcnet::KeyedParticipant;
use fnp_netsim::{Metrics, NodeId};

/// Deterministic pad key for the unordered bench pair `{a, b}` under
/// `seed` (SplitMix64 expansion; symmetric in `a` and `b`, like the
/// DH-derived keys of the real harness).
fn bench_pad_key(seed: u64, a: usize, b: usize) -> [u8; 32] {
    let mut state = seed ^ ((a.min(b) as u64) << 32) ^ (a.max(b) as u64 + 1);
    let mut key = [0u8; 32];
    for chunk in key.chunks_exact_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    key
}

/// Builds the pairwise pad-key table of a deterministic `k`-member bench
/// group: entry `i` holds `(peer, key)` for every peer of member `i`,
/// ascending — the same shape `KeyedParticipant::from_pad_keys` consumes.
fn bench_pad_key_table(k: usize, seed: u64) -> Vec<Vec<(usize, [u8; 32])>> {
    (0..k)
        .map(|i| {
            (0..k)
                .filter(|&j| j != i)
                .map(|j| (j, bench_pad_key(seed, i, j)))
                .collect()
        })
        .collect()
}

/// Builds the keyed participants of a bench group from its pad-key table
/// (no DH — key agreement is outside the scope of the round microbench).
fn bench_keyed_participants(table: &[Vec<(usize, [u8; 32])>]) -> Vec<KeyedParticipant> {
    let k = table.len();
    table
        .iter()
        .enumerate()
        .map(|(i, peers)| {
            KeyedParticipant::from_pad_keys(i, k, peers.iter().copied())
                .expect("bench groups have at least two members")
        })
        .collect()
}

/// FNV-1a 64-bit fold over a byte slice, seeded with the running hash.
fn fnv1a64_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis (the running-hash seed for [`fnv1a64_bytes`]).
const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs `rounds` silent keyed DC-net rounds through the fused hot path —
/// pads XORed straight into pooled slot buffers, contributions combined
/// by borrowing — and returns an FNV-1a digest over every member's
/// contribution and the combined slot. (The combined slot alone is all
/// zeros on a silent round whatever the keystream was: any pads both
/// endpoints agree on cancel.)
///
/// The digest must equal [`run_unfused_keyed_rounds`]' for the same
/// group: the keystream bytes are identical, only the allocation and
/// traversal pattern differs.
fn run_fused_keyed_rounds(participants: &[KeyedParticipant], slot_len: usize, rounds: u64) -> u64 {
    let mut slots: Vec<Vec<u8>> = vec![Vec::new(); participants.len()];
    let mut combined: Vec<u8> = Vec::new();
    let mut digest = FNV1A64_OFFSET;
    for round in 0..rounds {
        for (participant, slot) in participants.iter().zip(slots.iter_mut()) {
            participant
                .contribute_into(round, slot_len, None, slot)
                .expect("bench slot length is valid");
            digest = fnv1a64_bytes(digest, slot);
        }
        let outcome =
            fnp_dcnet::combine_contributions_into(slots.iter().map(Vec::as_slice), &mut combined)
                .expect("bench rounds are complete");
        assert_eq!(outcome, fnp_dcnet::SlotOutcome::Silence);
        digest = fnv1a64_bytes(digest, &combined);
    }
    digest
}

/// Runs the same silent rounds the way the pre-optimisation code did: a
/// freshly allocated contribution slot per member, a freshly allocated
/// pad per pair produced by a **single-block** reference keystream, a
/// separate XOR pass per pad, and a separate XOR pass per contribution —
/// the reference the fused lane is checked against, independent of
/// `fnp-crypto`'s engine.
fn run_unfused_keyed_rounds(table: &[Vec<(usize, [u8; 32])>], slot_len: usize, rounds: u64) -> u64 {
    let mut digest = FNV1A64_OFFSET;
    for round in 0..rounds {
        let contributions: Vec<Vec<u8>> = table
            .iter()
            .map(|peers| {
                let mut slot = fnp_dcnet::slot::silence(slot_len);
                for (_, key) in peers {
                    let pad = reference_single_block_pad(key, round, slot_len);
                    fnp_crypto::prg::xor_into(&mut slot, &pad);
                }
                slot
            })
            .collect();
        let mut combined = fnp_dcnet::slot::silence(slot_len);
        for contribution in &contributions {
            digest = fnv1a64_bytes(digest, contribution);
            fnp_crypto::prg::xor_into(&mut combined, contribution);
        }
        assert_eq!(
            fnp_dcnet::slot::decode(&combined),
            fnp_dcnet::SlotOutcome::Silence
        );
        digest = fnv1a64_bytes(digest, &combined);
    }
    digest
}

/// Reference ChaCha20 pad: RFC 7539 block function evaluated one block at
/// a time, with `ChaCha20::for_round`'s nonce layout (round id in the
/// final eight nonce bytes, counter starting at 0). Byte-identical to
/// `PadGenerator::pad`, but at the pre-optimisation single-block cost.
fn reference_single_block_pad(key: &[u8; 32], round: u64, len: usize) -> Vec<u8> {
    let mut init = [0u32; 16];
    init[0] = 0x6170_7865;
    init[1] = 0x3320_646e;
    init[2] = 0x7962_2d32;
    init[3] = 0x6b20_6574;
    for (word, chunk) in init[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let round_bytes = round.to_le_bytes();
    init[14] = u32::from_le_bytes(round_bytes[..4].try_into().expect("4-byte chunk"));
    init[15] = u32::from_le_bytes(round_bytes[4..].try_into().expect("4-byte chunk"));

    let mut out = vec![0u8; len];
    for (block_index, block) in out.chunks_mut(64).enumerate() {
        init[12] = u32::try_from(block_index).expect("bench pads stay far below 2^32 blocks");
        let mut state = init;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (i, byte) in block.iter_mut().enumerate() {
            let word = state[i / 4].wrapping_add(init[i / 4]);
            *byte = word.to_le_bytes()[i % 4];
        }
    }
    out
}

/// The ChaCha20 quarter round (reference lane of the microbench).
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] ^= state[a];
    state[d] = state[d].rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] ^= state[c];
    state[b] = state[b].rotate_left(7);
}

/// One broadcast of each protocol over a small overlay; returns the
/// metrics keyed by label.
fn smoke_suite(n: usize, seed: u64) -> Vec<(&'static str, Metrics)> {
    let mut arena = TrialArena::new();
    protocol_suite()
        .into_iter()
        .map(|(label, kind)| {
            let graph = standard_overlay_in(&mut arena, n, seed);
            let metrics =
                run_protocol_in(&mut arena, kind, graph, NodeId::new(0), sim_config(seed))
                    .expect("protocol run");
            (label, metrics)
        })
        .collect()
}

#[test]
fn smoke_suite_delivers_everywhere() {
    for (label, metrics) in smoke_suite(100, 1) {
        assert_eq!(metrics.coverage(), 1.0, "{label}");
    }
}

#[test]
fn reference_pad_matches_the_crypto_engine() {
    let key = bench_pad_key(3, 0, 1);
    let generator = fnp_crypto::prg::PadGenerator::new(key);
    for (round, len) in [(0u64, 512usize), (1, 64), (7, 1), (9, 130)] {
        assert_eq!(
            reference_single_block_pad(&key, round, len),
            generator.pad(round, len),
            "round {round} len {len}"
        );
    }
}

#[test]
fn fused_and_unfused_microbench_lanes_agree() {
    // The paper's k = 5 and an eight-plus-one tail (k = 10) beside the
    // powers of two; a whole number of blocks and a partial last one.
    for (k, slot_len) in [
        (2usize, 512usize),
        (5, 300),
        (8, 512),
        (10, 300),
        (16, 512),
        (32, 512),
        (64, 512),
    ] {
        let table = bench_pad_key_table(k, 42);
        let participants = bench_keyed_participants(&table);
        assert_eq!(
            run_fused_keyed_rounds(&participants, slot_len, 5),
            run_unfused_keyed_rounds(&table, slot_len, 5),
            "k={k}, slot of {slot_len} B"
        );
    }
}

#[test]
fn bench_pad_keys_are_symmetric_and_distinct() {
    assert_eq!(bench_pad_key(1, 2, 5), bench_pad_key(1, 5, 2));
    assert_ne!(bench_pad_key(1, 2, 5), bench_pad_key(1, 2, 6));
    assert_ne!(bench_pad_key(1, 2, 5), bench_pad_key(2, 2, 5));
}

#[test]
fn dissent_startup_reproduces_the_paper_anchor() {
    let rows = dissent_startup_with(&TrialRunner::auto(), &[4, 8, 10, 12], 5);
    assert_eq!(rows.len(), 4);
    // Latency grows with k and hits the tens-of-seconds range at 8–12.
    assert!(rows
        .windows(2)
        .all(|w| w[1].startup_seconds > w[0].startup_seconds));
    assert!(rows[2].startup_seconds > 15.0 && rows[2].startup_seconds < 60.0);
    // Message and byte counts also grow with the group size.
    assert!(rows[3].messages > rows[0].messages);
    assert!(rows[3].bytes > rows[0].bytes);
    assert_eq!(rows[1].serial_steps, 8);
}

#[test]
fn small_fee_fairness_has_the_right_shape() {
    let rows = fee_fairness_with(&TrialRunner::auto(), 80, 20, 2, 200, 9);
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert!(
            row.jain_index > 0.0 && row.jain_index <= 1.0 + 1e-9,
            "{row:?}"
        );
        assert!(row.gini >= 0.0 && row.gini <= 1.0, "{row:?}");
        assert!(row.orphaned_fraction <= 1.0);
    }
    // Flooding is the latency reference point: it should not be the
    // slowest to get transactions included.
    let flood = rows.iter().find(|r| r.protocol == "flood").unwrap();
    let flexible = rows.iter().find(|r| r.protocol == "flexible").unwrap();
    assert!(flexible.mean_inclusion_delay_ms >= flood.mean_inclusion_delay_ms * 0.5);
}

#[test]
fn election_ablation_never_favours_the_ablated_variant() {
    let rows = election_ablation_with(&TrialRunner::auto(), 100, 0.2, 6, 21);
    assert_eq!(rows.len(), 2);
    let hash_based = &rows[0];
    let ablated = &rows[1];
    assert_eq!(hash_based.strategy, "hash-based");
    // The hash-based election must not be easier to deanonymise than
    // keeping the originator as the virtual source (small-sample runs
    // allow equality).
    assert!(
        hash_based.summary.detection_probability <= ablated.summary.detection_probability + 1e-9,
        "hash {:?} vs ablated {:?}",
        hash_based.summary.detection_probability,
        ablated.summary.detection_probability
    );
}

#[test]
fn dcnet_cost_rows_follow_the_quadratic_shape() {
    let rows = dcnet_cost_with(&TrialRunner::auto(), &[4, 8, 16], 256, 1);
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].explicit_messages, 3 * 4 * 3);
    assert_eq!(rows[1].keyed_messages, 8 * 7);
    // Doubling k roughly quadruples both variants.
    assert!(rows[2].explicit_messages > 3 * rows[1].explicit_messages);
    assert!(rows[2].idle_bytes_with_reservation < rows[2].idle_bytes_without_reservation);
}

#[test]
fn group_overlap_reproduces_the_paper_example() {
    let rows = group_overlap_with(&TrialRunner::auto(), &[3], &[1]);
    assert_eq!(rows.len(), 1);
    assert!((rows[0].naive_worst_case - 0.5).abs() < 1e-9);
    assert!((rows[0].smoothed_worst_case - 1.0 / 3.0).abs() < 1e-9);
}

#[test]
fn small_flood_deanonymization_shows_high_detection() {
    let rows = flood_deanonymization_with(&TrialRunner::auto(), &[100], &[0.2], 5, 1);
    assert_eq!(rows.len(), 1);
    // Flooding is easy to deanonymise: the first-spy attack should catch
    // a good fraction of the broadcasts even with few runs.
    assert!(
        rows[0].first_spy.detection_probability >= 0.2,
        "{:?}",
        rows[0]
    );
}

#[test]
fn small_privacy_bounds_are_below_flooding() {
    let flood = flood_deanonymization_with(&TrialRunner::auto(), &[100], &[0.2], 5, 2)[0]
        .first_spy
        .detection_probability;
    let flexible = privacy_bounds_with(&TrialRunner::auto(), 100, &[5], &[4], &[0.2], 5, 2)[0]
        .summary
        .detection_probability;
    assert!(
        flexible <= flood,
        "flexible ({flexible}) should not be easier to deanonymise than flooding ({flood})"
    );
}

#[test]
fn small_message_overhead_has_the_right_shape() {
    // On very small overlays adaptive diffusion can be cheaper than
    // flooding (tree-shaped spread vs. per-edge redundancy); the paper's
    // 12 500-vs-7 000 gap is a 1,000-peer figure exercised by
    // `fnp-bench tab1_message_overhead`. This smoke test checks the
    // quantities that hold at every size: all counters are populated and
    // the flexible protocol costs more than plain flooding because it
    // adds the periodic DC-net rounds on top of the final broadcast.
    let result = message_overhead_with(&TrialRunner::auto(), 100, 2, 3);
    assert!(result.adaptive_diffusion_messages > 0.0);
    assert!(result.flood_messages > 0.0);
    assert!(result.flexible_messages > 0.0);
    assert!(
        result.flexible_messages > result.flood_messages,
        "flexible ({}) should cost more than flooding ({})",
        result.flexible_messages,
        result.flood_messages
    );
    assert!(
        result.overhead_ratio > 0.4,
        "ratio {}",
        result.overhead_ratio
    );
}
