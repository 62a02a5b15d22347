//! Diffie–Hellman key agreement over a prime-order multiplicative group.
//!
//! The paper's DC-net phase presumes that "all nodes need to share pairwise
//! encrypted channels". In the simulator we establish those channels with a
//! textbook finite-field Diffie–Hellman exchange: each node publishes a
//! public key `g^x mod p`, and any pair derives the shared secret
//! `g^{xy} mod p`, which is then fed through [`crate::hkdf`] to obtain
//! symmetric keys for [`crate::chacha20`].
//!
//! The group is the multiplicative group modulo a verified 62-bit safe
//! prime. **This parameter size is a deliberate simulation substitution**
//! (documented in `docs/ARCHITECTURE.md`'s crate map): the protocol
//! logic — who shares a pad with whom, and that pads cancel — is completely
//! independent of the group size, and 62-bit arithmetic keeps
//! multi-thousand-node simulations cheap.
//! Do not reuse this module for real deployments.
//!
//! # Examples
//!
//! ```
//! use fnp_crypto::dh::KeyPair;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let alice = KeyPair::generate(&mut rng);
//! let bob = KeyPair::generate(&mut rng);
//! assert_eq!(
//!     alice.shared_secret(&bob.public_key()),
//!     bob.shared_secret(&alice.public_key()),
//! );
//! ```

use rand::Rng;
use std::fmt;

/// The group modulus: a safe prime (`p = 2q + 1` with `q` prime) that fits
/// in 62 bits so that products fit in `u128`.
///
/// `p = 2^62 - 10565`; both `p` and `q = (p - 1) / 2` pass a deterministic
/// Miller–Rabin test over the full 64-bit witness set (checked by the unit
/// tests below).
pub const MODULUS: u64 = 4_611_686_018_427_377_339; // 2^62 - 10565

/// A generator of the prime-order subgroup of size `(MODULUS - 1) / 2`.
pub const GENERATOR: u64 = 5;

/// A Diffie–Hellman public key (`g^x mod p`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub u64);

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:#018x})", self.0)
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

/// A Diffie–Hellman key pair.
///
/// The secret exponent is kept private; `Debug` redacts it.
#[derive(Clone)]
pub struct KeyPair {
    secret: u64,
    public: PublicKey,
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyPair")
            .field("secret", &"<redacted>")
            .field("public", &self.public)
            .finish()
    }
}

/// Modular multiplication via 128-bit intermediates.
#[inline]
#[allow(clippy::cast_possible_truncation)] // the % reduces below the u64 modulus
fn mul_mod(a: u64, b: u64, modulus: u64) -> u64 {
    ((a as u128 * b as u128) % modulus as u128) as u64
}

/// Modular exponentiation by repeated squaring.
pub fn pow_mod(mut base: u64, mut exponent: u64, modulus: u64) -> u64 {
    if modulus == 1 {
        return 0;
    }
    let mut result = 1u64;
    base %= modulus;
    while exponent > 0 {
        if exponent & 1 == 1 {
            result = mul_mod(result, base, modulus);
        }
        base = mul_mod(base, base, modulus);
        exponent >>= 1;
    }
    result
}

/// Deterministic Miller–Rabin primality test, exact for all `u64` inputs
/// when run with the standard 12-base witness set.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n % p == 0 {
            return false;
        }
    }
    // Write n - 1 = d * 2^r with d odd.
    let mut d = n - 1;
    let mut r = 0u32;
    while d % 2 == 0 {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

impl KeyPair {
    /// Generates a fresh key pair using `rng`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Secret exponents in [2, q) where q = (p - 1) / 2.
        let q = (MODULUS - 1) / 2;
        let secret = rng.gen_range(2..q);
        Self::from_secret(secret)
    }

    /// Builds a key pair from an explicit secret exponent.
    ///
    /// Exposed so that simulations can derive node keys deterministically
    /// from node identifiers; panics are avoided by reducing degenerate
    /// exponents into the valid range.
    pub fn from_secret(secret: u64) -> Self {
        let q = (MODULUS - 1) / 2;
        let secret = 2 + (secret % (q - 2));
        let public = PublicKey(pow_mod(GENERATOR, secret, MODULUS));
        Self { secret, public }
    }

    /// Returns the public half of the key pair.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Computes the shared secret with a peer's public key, returned as a
    /// 32-byte value suitable as HKDF input keying material.
    ///
    /// The raw group element is domain-separated and hashed so that the
    /// output is uniformly distributed regardless of group structure.
    pub fn shared_secret(&self, peer: &PublicKey) -> [u8; 32] {
        let element = pow_mod(peer.0, self.secret, MODULUS);
        crate::sha256::Sha256::digest_chunks([
            b"fnp/dh/shared-secret/v1".as_slice(),
            &element.to_le_bytes(),
        ])
    }
}

/// Derives the symmetric pad key both endpoints of a pair agree on.
///
/// The key is symmetric in the two public keys (sorted before hashing), so
/// both sides derive the identical key regardless of who initiates.
pub fn pairwise_pad_key(own: &KeyPair, peer: &PublicKey) -> [u8; 32] {
    let shared = own.shared_secret(peer);
    let (lo, hi) = if own.public_key().0 <= peer.0 {
        (own.public_key().0, peer.0)
    } else {
        (peer.0, own.public_key().0)
    };
    let hkdf = crate::hkdf::Hkdf::extract(Some(b"fnp/dcnet/pad-key"), &shared);
    let mut info = Vec::with_capacity(16);
    info.extend_from_slice(&lo.to_le_bytes());
    info.extend_from_slice(&hi.to_le_bytes());
    hkdf.derive_key::<32>(&info)
        .expect("32-byte output is within HKDF limits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn modulus_is_a_safe_prime() {
        assert!(is_prime(MODULUS), "p must be prime");
        assert!(is_prime((MODULUS - 1) / 2), "q = (p-1)/2 must be prime");
    }

    #[test]
    fn generator_has_large_order() {
        // g must not be of order 1 or 2: g^2 != 1.
        assert_ne!(pow_mod(GENERATOR, 2, MODULUS), 1);
        // And its order divides p - 1, so g^(p-1) == 1 (Fermat).
        assert_eq!(pow_mod(GENERATOR, MODULUS - 1, MODULUS), 1);
    }

    #[test]
    fn pow_mod_edge_cases() {
        assert_eq!(pow_mod(2, 10, u64::MAX), 1024);
        assert_eq!(pow_mod(0, 0, 7), 1);
        assert_eq!(pow_mod(5, 0, 7), 1);
        assert_eq!(pow_mod(5, 1, 7), 5);
        assert_eq!(pow_mod(123, 456, 1), 0);
    }

    #[test]
    fn is_prime_small_values() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 7919];
        let composites = [0u64, 1, 4, 6, 9, 15, 91, 7917];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn is_prime_large_values() {
        assert!(is_prime(2_305_843_009_213_693_951)); // 2^61 - 1 (Mersenne)
        assert!(!is_prime(2_305_843_009_213_693_953));
        assert!(is_prime(18_446_744_073_709_551_557)); // largest 64-bit prime
    }

    #[test]
    fn key_agreement_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let a = KeyPair::generate(&mut rng);
            let b = KeyPair::generate(&mut rng);
            assert_eq!(
                a.shared_secret(&b.public_key()),
                b.shared_secret(&a.public_key())
            );
        }
    }

    #[test]
    fn distinct_pairs_share_distinct_secrets() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        let c = KeyPair::generate(&mut rng);
        assert_ne!(
            a.shared_secret(&b.public_key()),
            a.shared_secret(&c.public_key())
        );
    }

    #[test]
    fn pairwise_pad_key_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_eq!(
            pairwise_pad_key(&a, &b.public_key()),
            pairwise_pad_key(&b, &a.public_key())
        );
    }

    #[test]
    fn deterministic_keypair_from_secret() {
        let a = KeyPair::from_secret(424242);
        let b = KeyPair::from_secret(424242);
        assert_eq!(a.public_key(), b.public_key());
    }

    #[test]
    fn debug_redacts_secret() {
        let kp = KeyPair::from_secret(99);
        let debug = format!("{kp:?}");
        assert!(debug.contains("redacted"));
        assert!(!debug.contains("99,"));
    }

    #[test]
    fn public_key_display_is_hex() {
        let kp = KeyPair::from_secret(3);
        assert!(format!("{}", kp.public_key()).starts_with("0x"));
    }
}
