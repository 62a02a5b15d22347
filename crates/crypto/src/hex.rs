//! Minimal hexadecimal encoding and decoding helpers.
//!
//! Used throughout the workspace for fingerprinting digests in logs, test
//! vectors and experiment output.
//!
//! # Examples
//!
//! ```
//! let bytes = [0xde, 0xad, 0xbe, 0xef];
//! let text = fnp_crypto::hex::encode(&bytes);
//! assert_eq!(text, "deadbeef");
//! assert_eq!(fnp_crypto::hex::decode(&text).unwrap(), bytes);
//! ```

use std::fmt;

/// Error returned by [`decode`] when the input is not valid hexadecimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeHexError {
    /// The input length is odd; hex strings encode whole bytes.
    OddLength {
        /// Length of the offending input.
        len: usize,
    },
    /// The input contains a character outside `[0-9a-fA-F]`.
    InvalidCharacter {
        /// The offending character.
        character: char,
        /// Byte offset of the offending character.
        index: usize,
    },
}

impl fmt::Display for DecodeHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeHexError::OddLength { len } => {
                write!(f, "hex string has odd length {len}")
            }
            DecodeHexError::InvalidCharacter { character, index } => {
                write!(f, "invalid hex character {character:?} at index {index}")
            }
        }
    }
}

impl std::error::Error for DecodeHexError {}

const ALPHABET: &[u8; 16] = b"0123456789abcdef";

/// Encodes `bytes` as a lowercase hexadecimal string.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(ALPHABET[(b >> 4) as usize] as char);
        out.push(ALPHABET[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decodes a hexadecimal string (upper- or lowercase) into bytes.
///
/// # Errors
///
/// Returns [`DecodeHexError::OddLength`] if the input length is odd and
/// [`DecodeHexError::InvalidCharacter`] if a non-hex character is found.
pub fn decode(text: &str) -> Result<Vec<u8>, DecodeHexError> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err(DecodeHexError::OddLength { len: bytes.len() });
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for i in (0..bytes.len()).step_by(2) {
        let hi = nibble(bytes[i]).ok_or(DecodeHexError::InvalidCharacter {
            character: bytes[i] as char,
            index: i,
        })?;
        let lo = nibble(bytes[i + 1]).ok_or(DecodeHexError::InvalidCharacter {
            character: bytes[i + 1] as char,
            index: i + 1,
        })?;
        out.push((hi << 4) | lo);
    }
    Ok(out)
}

fn nibble(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_empty() {
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn decode_empty() {
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn round_trip_all_byte_values() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let text = encode(&bytes);
        assert_eq!(decode(&text).unwrap(), bytes);
    }

    #[test]
    fn decode_accepts_uppercase() {
        assert_eq!(decode("DEADBEEF").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn decode_rejects_odd_length() {
        assert_eq!(decode("abc"), Err(DecodeHexError::OddLength { len: 3 }));
    }

    #[test]
    fn decode_rejects_invalid_character() {
        assert_eq!(
            decode("zz"),
            Err(DecodeHexError::InvalidCharacter {
                character: 'z',
                index: 0
            })
        );
    }

    #[test]
    fn error_display_is_informative() {
        let err = DecodeHexError::InvalidCharacter {
            character: 'q',
            index: 4,
        };
        assert!(err.to_string().contains("index 4"));
        assert!(DecodeHexError::OddLength { len: 7 }
            .to_string()
            .contains('7'));
    }
}
