//! CRC-32 (IEEE 802.3 polynomial) checksums.
//!
//! The paper's DC-net construction (Fig. 4) notes that "message\[s\] should
//! carry CRC bits or a similar protection" so that *collisions* — two group
//! members transmitting in the same round — are detected: the XOR of two
//! valid messages almost never carries a valid checksum. The same protection
//! guards the 32-bit length announcements of the reservation optimisation
//! (§V-A). `fnp_dcnet::slot` frames every slot with [`crc32`].
//!
//! # Examples
//!
//! ```
//! use fnp_crypto::crc32::crc32;
//!
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! ```

/// The reversed IEEE 802.3 polynomial.
const POLYNOMIAL: u32 = 0xEDB8_8320;

/// Computes the lookup table at first use.
fn table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in (0u32..).zip(table.iter_mut()) {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLYNOMIAL
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// Incremental CRC-32 computation.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a new CRC computation in the initial state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Absorbs `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let table = table();
        for &byte in data {
            let index = ((self.state ^ byte as u32) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ table[index];
        }
    }

    /// Finishes the computation and returns the checksum.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value_matches_standard() {
        // The canonical CRC-32/ISO-HDLC check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut crc = Crc32::new();
        crc.update(&data[..100]);
        crc.update(&data[100..]);
        assert_eq!(crc.finalize(), crc32(&data));
    }
}
