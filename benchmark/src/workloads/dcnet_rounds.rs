//! `dcnet_rounds` — fused keyed DC-net rounds, no simulator.
//!
//! One unit runs k = 8 × 1024 rounds and k = 32 × 64 rounds at the paper's
//! 512 B slot, plus k = 8 × 1024 rounds at a 64 B slot (the smallest size,
//! where per-round cost dominates over keystream), through
//! `KeyedParticipant::contribute_into` and `combine_contributions_into`
//! with `RoundScratch` pooling. The crypto pad pipeline does all the work,
//! so a simulator change must read "no change" here. Pairwise key
//! derivation is set-up: work moved from rounds into set-up shows in
//! `setup_s`. One op is one pad folded into a slot.

use crate::alloc;
use crate::api::{
    combine_contributions, combine_contributions_into, node_key_pair, pairwise_pad_key,
    slot_capacity, ChaCha20, Hkdf, KeyPair, KeyedDcGroup, KeyedParticipant, NodeId, PublicKey, Rng,
    RoundScratch, SeedableRng, Sha256, SlotOutcome, StdRng,
};
use crate::harness::{Layers, Meter, Model, Traced, Unit, Workload, UNIT_SPAN};
use crate::stats::Fnv;
use crate::trace::{Recorder, Tap};
use crate::workloads::ns_per_iteration;
use std::hint::black_box;

/// Groups of eight derived at set-up.
pub const SMALL_GROUPS: usize = 200;
/// Groups of thirty-two derived at set-up.
pub const LARGE_GROUPS: usize = 50;
/// The paper's slot size.
pub const SLOT: usize = 512;
/// The smallest slot size measured.
pub const SMALL_SLOT: usize = 64;

/// One batch of rounds within a unit.
#[derive(Clone, Copy, Debug)]
struct Batch {
    k: usize,
    slot_len: usize,
    rounds: u64,
    /// Span of the batch's contribute calls and counter of its pads.
    contribute: &'static str,
}

const BATCHES: [Batch; 3] = [
    Batch {
        k: 8,
        slot_len: SLOT,
        rounds: 1024,
        contribute: "dcnet.keyed.contribute.k8",
    },
    Batch {
        k: 32,
        slot_len: SLOT,
        rounds: 64,
        contribute: "dcnet.keyed.contribute.k32",
    },
    Batch {
        k: 8,
        slot_len: SMALL_SLOT,
        rounds: 1024,
        contribute: "dcnet.keyed.contribute.k8_64b",
    },
];
const COMBINE: &str = "dcnet.keyed.combine";

/// Set-up state: the keyed participants of every group, and the buffer pool
/// rounds draw from.
#[derive(Debug)]
pub struct DcnetRounds {
    small: Vec<Vec<KeyedParticipant>>,
    large: Vec<Vec<KeyedParticipant>>,
    scratch: RoundScratch,
    /// Fault injection for the negative test: flip one bit of one member's
    /// contribution in the first round of every batch.
    pub corrupt_contribution: bool,
}

/// Derives the pairwise pad keys of group `group` cold — one modular
/// exponentiation and one HKDF per unordered pair — and builds its members.
fn derive_group(seed: u64, group: usize, k: usize) -> Vec<KeyedParticipant> {
    let key_pairs: Vec<KeyPair> = (0..k)
        .map(|member| node_key_pair(NodeId::new(group * 64 + member), seed))
        .collect();
    let public_keys: Vec<PublicKey> = key_pairs.iter().map(KeyPair::public_key).collect();
    let mut table: Vec<Vec<(usize, [u8; 32])>> = vec![Vec::with_capacity(k - 1); k];
    for i in 0..k {
        for j in (i + 1)..k {
            let key = pairwise_pad_key(&key_pairs[i], &public_keys[j]);
            table[i].push((j, key));
            table[j].push((i, key));
        }
    }
    table
        .into_iter()
        .enumerate()
        .map(|(member, keys)| KeyedParticipant::from_pad_keys(member, k, keys).expect("k ≥ 2"))
        .collect()
}

/// How a batch produces and combines contributions.
trait Rounds {
    /// Runs one round and returns the combined slot bytes with the outcome.
    fn round(
        &mut self,
        members: &[KeyedParticipant],
        round: u64,
        slot_len: usize,
        sender: usize,
        message: &[u8],
        corrupt: bool,
    ) -> (SlotOutcome, &[u8]);
}

/// The hot path: pooled slot buffers, fused pads, borrow-based combine.
struct Fused<'a> {
    slots: Vec<Vec<u8>>,
    combined: Vec<u8>,
    tap: Tap<'a>,
    /// Span name of this batch's contribute calls.
    contribute: &'static str,
}

impl Rounds for Fused<'_> {
    fn round(
        &mut self,
        members: &[KeyedParticipant],
        round: u64,
        slot_len: usize,
        sender: usize,
        message: &[u8],
        corrupt: bool,
    ) -> (SlotOutcome, &[u8]) {
        let open = self.tap.begin(self.contribute);
        for (index, (member, slot)) in members.iter().zip(self.slots.iter_mut()).enumerate() {
            let payload = (index == sender).then_some(message);
            member
                .contribute_into(round, slot_len, payload, slot)
                .expect("message fits the slot");
        }
        self.tap.end_as(open, self.contribute);
        if corrupt {
            self.slots[(sender + 1) % members.len()][0] ^= 1;
        }
        let open = self.tap.begin(COMBINE);
        let outcome =
            combine_contributions_into(self.slots.iter().map(Vec::as_slice), &mut self.combined)
                .expect("complete round");
        self.tap.end_as(open, COMBINE);
        (outcome, &self.combined)
    }
}

/// The allocating reference path the warm-up unit is checked against.
struct Allocating {
    combined: Vec<u8>,
}

impl Rounds for Allocating {
    fn round(
        &mut self,
        members: &[KeyedParticipant],
        round: u64,
        slot_len: usize,
        sender: usize,
        message: &[u8],
        _corrupt: bool,
    ) -> (SlotOutcome, &[u8]) {
        let contributions: Vec<Vec<u8>> = members
            .iter()
            .enumerate()
            .map(|(index, member)| {
                member
                    .contribution(round, slot_len, (index == sender).then_some(message))
                    .expect("message fits the slot")
            })
            .collect();
        let outcome = combine_contributions(&contributions).expect("complete round");
        self.combined.clear();
        self.combined.extend_from_slice(&contributions[0]);
        for contribution in &contributions[1..] {
            for (byte, other) in self.combined.iter_mut().zip(contribution) {
                *byte ^= other;
            }
        }
        (outcome, &self.combined)
    }
}

/// Tally of a unit's rounds.
#[derive(Default)]
struct Tally {
    digest: Fnv,
    wrong: u64,
    pads: u64,
    model: Model,
}

impl DcnetRounds {
    fn members(&self, batch: &Batch, unit_seed: u64) -> &[KeyedParticipant] {
        if batch.k == 8 {
            &self.small[(unit_seed % SMALL_GROUPS as u64) as usize]
        } else {
            &self.large[(unit_seed / SMALL_GROUPS as u64 % LARGE_GROUPS as u64) as usize]
        }
    }

    /// The unit's message material: senders transmit windows of it.
    fn material(unit_seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(unit_seed);
        (0..slot_capacity(SLOT) + 64)
            .map(|_| rng.gen_range(1..=255u8))
            .collect()
    }

    /// Runs `batch` through `rounds`: every round one member sends, and the
    /// combined slot must decode to exactly its message.
    fn run_batch(
        members: &[KeyedParticipant],
        batch: &Batch,
        unit_seed: u64,
        material: &[u8],
        corrupt: bool,
        rounds: &mut impl Rounds,
        tally: &mut Tally,
    ) {
        let capacity = slot_capacity(batch.slot_len);
        let length = capacity - (unit_seed % 8) as usize;
        for index in 0..batch.rounds {
            let round = unit_seed.wrapping_add(index);
            let sender = (index % batch.k as u64) as usize;
            let message = &material[(index % 64) as usize..][..length];
            let (outcome, combined) = rounds.round(
                members,
                round,
                batch.slot_len,
                sender,
                message,
                corrupt && index == 0,
            );
            if !matches!(&outcome, SlotOutcome::Message(decoded) if decoded == message) {
                tally.wrong += 1;
            }
            tally.digest.words(combined);
        }
        let exchanged = batch.rounds * (batch.k * (batch.k - 1)) as u64;
        tally.pads += exchanged;
        tally.model.msgs += exchanged;
        tally.model.bytes += exchanged * batch.slot_len as u64;
        tally.model.events += batch.rounds;
    }

    fn finish(tally: Tally) -> Unit {
        Unit {
            ops: tally.pads,
            failure: (tally.wrong > 0).then(|| {
                format!(
                    "{} rounds did not decode to the sender's message",
                    tally.wrong
                )
            }),
            model: tally.model,
            digest: tally.digest.finish(),
        }
    }

    fn fused_unit(&mut self, unit_seed: u64, meter: &mut Meter) -> Unit {
        let material = Self::material(unit_seed);
        let mut tally = Tally::default();
        let mut scratch = std::mem::take(&mut self.scratch);
        meter.measure(|| {
            for batch in &BATCHES {
                let mut fused = Fused {
                    slots: (0..batch.k).map(|_| scratch.checkout()).collect(),
                    combined: scratch.checkout(),
                    tap: Tap(None),
                    contribute: batch.contribute,
                };
                Self::run_batch(
                    self.members(batch, unit_seed),
                    batch,
                    unit_seed,
                    &material,
                    self.corrupt_contribution,
                    &mut fused,
                    &mut tally,
                );
                fused
                    .slots
                    .into_iter()
                    .for_each(|slot| scratch.recycle(slot));
                scratch.recycle(fused.combined);
            }
        });
        self.scratch = scratch;
        Self::finish(tally)
    }
}

impl Workload for DcnetRounds {
    const NAME: &'static str = "dcnet_rounds";
    const SPANS_PER_UNIT: usize = 2 * (1024 + 64 + 1024) + 16;

    fn set_up(seed: u64, recorder: &mut Recorder) -> Self {
        let (small, large) = recorder.span("crypto.dh.pad_key_tables", || {
            (
                (0..SMALL_GROUPS)
                    .map(|group| derive_group(seed, group, 8))
                    .collect(),
                (0..LARGE_GROUPS)
                    .map(|group| derive_group(seed, SMALL_GROUPS + group, 32))
                    .collect(),
            )
        });
        Self {
            small,
            large,
            scratch: RoundScratch::new(),
            corrupt_contribution: false,
        }
    }

    fn unit(&mut self, unit_seed: u64, _threads: usize, meter: &mut Meter) -> Unit {
        self.fused_unit(unit_seed, meter)
    }

    /// The fused unit, whose digest must equal the allocating
    /// `contribution`/`combine_contributions` path's on the same rounds.
    fn warm_up(&mut self, unit_seed: u64, meter: &mut Meter) -> Unit {
        let mut unit = self.fused_unit(unit_seed, meter);
        let material = Self::material(unit_seed);
        let mut tally = Tally::default();
        for batch in &BATCHES {
            let mut allocating = Allocating {
                combined: Vec::new(),
            };
            Self::run_batch(
                self.members(batch, unit_seed),
                batch,
                unit_seed,
                &material,
                false,
                &mut allocating,
                &mut tally,
            );
        }
        if unit.failure.is_none() && tally.digest.finish() != unit.digest {
            unit.failure = Some("fused rounds differ from the allocating path".to_string());
        }
        unit
    }

    fn traced_unit(&mut self, unit_seed: u64, recorder: &mut Recorder) -> Unit {
        let material = Self::material(unit_seed);
        let mut tally = Tally::default();
        let mut scratch = std::mem::take(&mut self.scratch);
        let open = recorder.begin(UNIT_SPAN);
        for batch in &BATCHES {
            let checkout = recorder.begin("dcnet.scratch.checkout");
            let slots = (0..batch.k).map(|_| scratch.checkout()).collect();
            let combined = scratch.checkout();
            recorder.end(checkout);
            let mut fused = Fused {
                slots,
                combined,
                tap: Tap(Some(&mut *recorder)),
                contribute: batch.contribute,
            };
            Self::run_batch(
                self.members(batch, unit_seed),
                batch,
                unit_seed,
                &material,
                self.corrupt_contribution,
                &mut fused,
                &mut tally,
            );
            let Fused {
                slots, combined, ..
            } = fused;
            let recycle = recorder.begin("dcnet.scratch.recycle");
            slots.into_iter().for_each(|slot| scratch.recycle(slot));
            scratch.recycle(combined);
            recorder.end(recycle);
            recorder.add_count(
                batch.contribute,
                batch.rounds * (batch.k * (batch.k - 1)) as u64,
            );
            recorder.add_count(COMBINE, batch.rounds * (batch.k * batch.slot_len) as u64);
        }
        recorder.end(open);
        self.scratch = scratch;
        Self::finish(tally)
    }

    fn layers(&mut self, seed: u64, traced: &Traced<'_>, out: &mut Layers) {
        out.insert(
            "dcnet.keyed.contribute_ns_per_pad_k8",
            traced.ns_per_count(BATCHES[0].contribute, BATCHES[0].contribute),
        );
        out.insert(
            "dcnet.keyed.contribute_ns_per_pad_k32",
            traced.ns_per_count(BATCHES[1].contribute, BATCHES[1].contribute),
        );
        out.insert(
            "dcnet.keyed.combine_ns_per_byte",
            traced.ns_per_count(COMBINE, COMBINE),
        );

        let key_pairs: Vec<KeyPair> = (0..64)
            .map(|node| node_key_pair(NodeId::new(node), seed))
            .collect();
        let per_key = ns_per_iteration(20_000, |iteration| {
            let own = &key_pairs[(iteration % 64) as usize];
            let peer = key_pairs[((iteration / 64 + 1 + iteration) % 64) as usize].public_key();
            black_box(pairwise_pad_key(own, &peer));
        });
        out.insert("crypto.dh.pad_key_us", per_key / 1e3);

        let shared = Sha256::digest(&seed.to_le_bytes());
        let per_derive = ns_per_iteration(50_000, |iteration| {
            let hkdf = Hkdf::extract(Some(b"fnp/dcnet/pad-key"), &shared);
            black_box(hkdf.derive_key::<32>(&iteration.to_le_bytes())).expect("32 bytes");
        });
        out.insert("crypto.hkdf.derive_us", per_derive / 1e3);

        let block = vec![0xA5u8; 4096];
        let per_block = ns_per_iteration(20_000, |_| {
            black_box(Sha256::digest(black_box(&block)));
        });
        out.insert("crypto.sha256.ns_per_byte", per_block / block.len() as f64);

        for (name, len, iterations) in [
            ("crypto.chacha20.ns_per_byte_512", SLOT, 400_000),
            ("crypto.chacha20.ns_per_byte_64", SMALL_SLOT, 2_000_000),
        ] {
            let source = vec![0x5Au8; len];
            let mut destination = vec![0u8; len];
            let per_call = ns_per_iteration(iterations, |round| {
                ChaCha20::for_round(&shared, round).xor_keystream_into(&mut destination, &source);
                black_box(&mut destination);
            });
            out.insert(name, per_call / len as f64);
        }

        let mut scratch = RoundScratch::new();
        scratch.recycle(Vec::with_capacity(SLOT));
        out.insert(
            "dcnet.scratch.checkout_recycle_ns",
            ns_per_iteration(5_000_000, |_| {
                let buffer = scratch.checkout();
                scratch.recycle(black_box(buffer));
            }),
        );

        // Silent fused rounds on warm buffers: the hot path's promise is
        // that these request nothing from the allocator.
        let members = &self.small[0];
        let mut slots: Vec<Vec<u8>> = members.iter().map(|_| Vec::with_capacity(SLOT)).collect();
        let mut combined = Vec::with_capacity(SLOT);
        const SILENT_ROUNDS: u64 = 256;
        let ((), bytes) = alloc::count(|| {
            for round in 0..SILENT_ROUNDS {
                for (member, slot) in members.iter().zip(slots.iter_mut()) {
                    member
                        .contribute_into(round, SLOT, None, slot)
                        .expect("valid slot length");
                }
                let outcome =
                    combine_contributions_into(slots.iter().map(Vec::as_slice), &mut combined);
                assert_eq!(outcome.expect("complete round"), SlotOutcome::Silence);
            }
        });
        out.insert(
            "dcnet.keyed.alloc_bytes_per_round",
            bytes as f64 / SILENT_ROUNDS as f64,
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let mut group = KeyedDcGroup::new(8, SLOT, &mut rng).expect("k ≥ 2");
        let silent = vec![None; 8];
        let per_round = ns_per_iteration(5_000, |round| {
            black_box(group.run_round(round, &silent)).expect("complete round");
        });
        out.insert("dcnet.keyed.run_round_us", per_round / 1e3);
    }
}
