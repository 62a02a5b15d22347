//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! HMAC keys the SHA-256 compression behind the pairwise pad derivation of
//! the DC-net phase: two group members who have agreed on a shared secret
//! (see [`crate::dh`]) expand it into per-round pads with
//! [`crate::hkdf`], which is built on this module.
//!
//! # Examples
//!
//! ```
//! use fnp_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
//! assert_eq!(
//!     fnp_crypto::hex::encode(&tag),
//!     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
//! );
//! ```

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Incremental HMAC-SHA-256 computation.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Key XORed with `OPAD`, retained for the outer hash at finalisation.
    outer_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates a new MAC instance keyed with `key`.
    ///
    /// Keys longer than the SHA-256 block size are hashed first, as mandated
    /// by RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha256::digest(key);
            block_key[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut inner_key = [0u8; BLOCK_LEN];
        let mut outer_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            inner_key[i] = block_key[i] ^ IPAD;
            outer_key[i] = block_key[i] ^ OPAD;
        }

        let mut inner = Sha256::new();
        inner.update(&inner_key);
        Self { inner, outer_key }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.outer_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA-256 of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 4231 test vectors for HMAC-SHA-256.

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2_short_key() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3_repeated_bytes() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let key = b"pairwise-secret";
        let message = b"round 42 pad derivation input";
        let expected = hmac_sha256(key, message);

        let mut mac = HmacSha256::new(key);
        for chunk in message.chunks(5) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), expected);
    }

    #[test]
    fn different_keys_give_different_tags() {
        assert_ne!(hmac_sha256(b"key-a", b"msg"), hmac_sha256(b"key-b", b"msg"));
    }
}
