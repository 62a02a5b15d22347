//! Transactions: the payloads whose originators the protocol protects.
//!
//! The paper treats transactions abstractly — "we will refer to these
//! payloads as transactions, though they may be more general than financial
//! transactions" (§II) — so this module models exactly the attributes the
//! evaluation needs: a stable content-derived identifier, a wire size (the
//! broadcast cost), a fee (the miners' incentive) and the originating node
//! (the identity the adversary tries to recover).

use fnp_crypto::Sha256;
use fnp_netsim::{NodeId, SimTime};
use std::fmt;

/// Content-derived transaction identifier (SHA-256 of the canonical fields).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId([u8; 32]);

impl TxId {
    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// A short hexadecimal prefix for human-readable output.
    pub fn short_hex(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxId({}…)", self.short_hex())
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

/// One blockchain transaction as seen by the network layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    id: TxId,
    originator: NodeId,
    size_bytes: usize,
    fee: u64,
    created_at: SimTime,
}

impl Transaction {
    /// Creates a transaction originated by `originator`, of `size_bytes` wire
    /// bytes, paying `fee` units to the including miner, created at
    /// simulation time `created_at`.
    pub fn new(originator: NodeId, size_bytes: usize, fee: u64, created_at: SimTime) -> Self {
        let id = Self::derive_id(originator, size_bytes, fee, created_at);
        Self {
            id,
            originator,
            size_bytes,
            fee,
            created_at,
        }
    }

    /// Derives the content hash of the canonical transaction fields.
    fn derive_id(originator: NodeId, size_bytes: usize, fee: u64, created_at: SimTime) -> TxId {
        let mut hasher = Sha256::new();
        hasher.update(b"fnp-transaction-v1");
        hasher.update(&(originator.index() as u64).to_le_bytes());
        hasher.update(&(size_bytes as u64).to_le_bytes());
        hasher.update(&fee.to_le_bytes());
        hasher.update(&created_at.to_le_bytes());
        TxId(hasher.finalize())
    }

    /// The transaction identifier.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The node that created the transaction (the identity the adversary
    /// wants to link to the transaction).
    pub fn originator(&self) -> NodeId {
        self.originator
    }

    /// Wire size in bytes (what the broadcast pays per hop).
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Fee paid to the miner that includes the transaction.
    pub fn fee(&self) -> u64 {
        self.fee
    }

    /// Fee per byte, the mempool ordering key.
    pub fn fee_rate(&self) -> f64 {
        if self.size_bytes == 0 {
            return self.fee as f64;
        }
        self.fee as f64 / self.size_bytes as f64
    }

    /// Simulation time at which the wallet created the transaction.
    pub fn created_at(&self) -> SimTime {
        self.created_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_fields_give_identical_ids() {
        let a = Transaction::new(NodeId::new(1), 250, 100, 5);
        let b = Transaction::new(NodeId::new(1), 250, 100, 5);
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
    }

    #[test]
    fn any_field_change_changes_the_id() {
        let base = Transaction::new(NodeId::new(1), 250, 100, 5);
        assert_ne!(
            base.id(),
            Transaction::new(NodeId::new(2), 250, 100, 5).id()
        );
        assert_ne!(
            base.id(),
            Transaction::new(NodeId::new(1), 251, 100, 5).id()
        );
        assert_ne!(
            base.id(),
            Transaction::new(NodeId::new(1), 250, 101, 5).id()
        );
        assert_ne!(
            base.id(),
            Transaction::new(NodeId::new(1), 250, 100, 6).id()
        );
    }

    #[test]
    fn fee_rate_is_fee_per_byte() {
        let tx = Transaction::new(NodeId::new(0), 200, 100, 0);
        assert!((tx.fee_rate() - 0.5).abs() < 1e-12);
        let zero_size = Transaction::new(NodeId::new(0), 0, 100, 0);
        assert_eq!(zero_size.fee_rate(), 100.0);
    }

    #[test]
    fn short_hex_is_eight_characters() {
        let tx = Transaction::new(NodeId::new(7), 100, 10, 0);
        assert_eq!(tx.id().short_hex().len(), 8);
        assert_eq!(format!("{}", tx.id()).len(), 8);
        assert!(format!("{:?}", tx.id()).starts_with("TxId("));
    }

    proptest! {
        #[test]
        fn ids_are_stable_and_accessors_roundtrip(
            origin in 0usize..10_000,
            size in 0usize..100_000,
            fee in 0u64..1_000_000,
            at in 0u64..1_000_000_000
        ) {
            let tx = Transaction::new(NodeId::new(origin), size, fee, at);
            prop_assert_eq!(tx.originator(), NodeId::new(origin));
            prop_assert_eq!(tx.size_bytes(), size);
            prop_assert_eq!(tx.fee(), fee);
            prop_assert_eq!(tx.created_at(), at);
            prop_assert_eq!(tx.id(), Transaction::new(NodeId::new(origin), size, fee, at).id());
        }
    }
}
