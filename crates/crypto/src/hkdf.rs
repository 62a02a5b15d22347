//! HKDF (RFC 5869), the HMAC-based extract-and-expand key derivation
//! function, instantiated with HMAC-SHA-256.
//!
//! In the DC-net phase each pair of group members derives per-round pad
//! keys and per-round nonces from their shared Diffie–Hellman secret; HKDF
//! performs that derivation with explicit domain separation via the `info`
//! parameter (e.g. `"fnp/dcnet/pad" || round`).
//!
//! # Examples
//!
//! ```
//! use fnp_crypto::hkdf::Hkdf;
//!
//! let shared_secret = [7u8; 32];
//! let hkdf = Hkdf::extract(Some(b"fnp-salt"), &shared_secret);
//! let mut pad_key = [0u8; 32];
//! hkdf.expand(b"fnp/dcnet/pad/round-0", &mut pad_key).unwrap();
//! ```

use crate::hmac::{hmac_sha256, HmacSha256};
use crate::sha256::DIGEST_LEN;
use std::fmt;

/// Maximum output length HKDF-SHA-256 can produce: `255 * HashLen`.
pub const MAX_OUTPUT_LEN: usize = 255 * DIGEST_LEN;

/// Error returned when the requested HKDF output is longer than allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidLengthError {
    /// The requested output length.
    pub requested: usize,
}

impl fmt::Display for InvalidLengthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested hkdf output of {} bytes exceeds the maximum of {} bytes",
            self.requested, MAX_OUTPUT_LEN
        )
    }
}

impl std::error::Error for InvalidLengthError {}

/// An HKDF instance holding an extracted pseudorandom key.
#[derive(Clone)]
pub struct Hkdf {
    prk: [u8; DIGEST_LEN],
}

impl fmt::Debug for Hkdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        f.debug_struct("Hkdf").field("prk", &"<redacted>").finish()
    }
}

impl Hkdf {
    /// HKDF-Extract: derives a pseudorandom key from input keying material.
    ///
    /// A missing salt is treated as a string of `HashLen` zero bytes, per
    /// RFC 5869.
    pub fn extract(salt: Option<&[u8]>, ikm: &[u8]) -> Self {
        let zero_salt = [0u8; DIGEST_LEN];
        let salt = salt.unwrap_or(&zero_salt);
        let prk = hmac_sha256(salt, ikm);
        Self { prk }
    }

    /// HKDF-Expand: fills `okm` with output keying material bound to `info`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLengthError`] if `okm.len() > 255 * 32`.
    pub fn expand(&self, info: &[u8], okm: &mut [u8]) -> Result<(), InvalidLengthError> {
        if okm.len() > MAX_OUTPUT_LEN {
            return Err(InvalidLengthError {
                requested: okm.len(),
            });
        }
        let mut previous: Option<[u8; DIGEST_LEN]> = None;
        let mut written = 0usize;
        let mut counter = 1u8;
        while written < okm.len() {
            let mut mac = HmacSha256::new(&self.prk);
            if let Some(prev) = previous {
                mac.update(&prev);
            }
            mac.update(info);
            mac.update(&[counter]);
            let block = mac.finalize();
            let take = (okm.len() - written).min(DIGEST_LEN);
            okm[written..written + take].copy_from_slice(&block[..take]);
            written += take;
            previous = Some(block);
            counter = counter.wrapping_add(1);
        }
        Ok(())
    }

    /// Convenience helper returning a fixed-size derived key.
    pub fn derive_key<const N: usize>(&self, info: &[u8]) -> Result<[u8; N], InvalidLengthError> {
        let mut out = [0u8; N];
        self.expand(info, &mut out)?;
        Ok(out)
    }
}

/// One-shot HKDF: extract with `salt` and `ikm`, then expand `len` bytes
/// bound to `info`.
///
/// # Errors
///
/// Returns [`InvalidLengthError`] if `len > 255 * 32`.
pub fn hkdf_sha256(
    salt: Option<&[u8]>,
    ikm: &[u8],
    info: &[u8],
    len: usize,
) -> Result<Vec<u8>, InvalidLengthError> {
    let mut out = vec![0u8; len];
    Hkdf::extract(salt, ikm).expand(info, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 5869 test vectors (SHA-256).

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let okm = hkdf_sha256(Some(&salt), &ikm, &info, 42).unwrap();
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_2_long_inputs() {
        let ikm: Vec<u8> = (0x00u8..=0x4f).collect();
        let salt: Vec<u8> = (0x60u8..=0xaf).collect();
        let info: Vec<u8> = (0xb0u8..=0xff).collect();
        let okm = hkdf_sha256(Some(&salt), &ikm, &info, 82).unwrap();
        assert_eq!(
            hex::encode(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_case_3_no_salt_no_info() {
        let ikm = [0x0bu8; 22];
        let okm = hkdf_sha256(None, &ikm, b"", 42).unwrap();
        assert_eq!(
            hex::encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_rejects_oversized_output() {
        let hkdf = Hkdf::extract(None, b"ikm");
        let mut okm = vec![0u8; MAX_OUTPUT_LEN + 1];
        assert!(hkdf.expand(b"info", &mut okm).is_err());
    }

    #[test]
    fn expand_accepts_maximum_output() {
        let hkdf = Hkdf::extract(None, b"ikm");
        let mut okm = vec![0u8; MAX_OUTPUT_LEN];
        assert!(hkdf.expand(b"info", &mut okm).is_ok());
    }

    #[test]
    fn different_info_separates_domains() {
        let hkdf = Hkdf::extract(Some(b"salt"), b"shared-secret");
        let a: [u8; 32] = hkdf.derive_key(b"fnp/dcnet/pad").unwrap();
        let b: [u8; 32] = hkdf.derive_key(b"fnp/dcnet/nonce").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let hkdf = Hkdf::extract(None, b"very secret");
        assert!(!format!("{hkdf:?}").contains("secret"));
        assert!(format!("{hkdf:?}").contains("redacted"));
    }

    #[test]
    fn invalid_length_error_display() {
        let err = InvalidLengthError { requested: 9000 };
        assert!(err.to_string().contains("9000"));
    }
}
