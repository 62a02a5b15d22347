//! Reusable buffer pool for the in-memory keyed DC-net group.
//!
//! A keyed round moves one `slot_len`-byte contribution per member plus a
//! combine accumulator. [`RoundScratch`] is a simple free list of `Vec<u8>`
//! buffers: [`KeyedDcGroup`](crate::keyed::KeyedDcGroup) checks its buffers
//! out once and recycles the accumulator after every round, so consecutive
//! rounds reuse the same allocations. (The explicit Fig. 4 round, run once
//! per experiment row, allocates its buffers plainly.)
//!
//! Buffers are cleared on recycle, so no bytes ever leak from one round
//! into the next. Capacity is retained for as long as the pool lives; the
//! pool is intended for fixed-slot-size simulation workloads where that is
//! exactly the point.

/// A free list of byte buffers reused across DC-net rounds.
///
/// Checkout either returns a pooled buffer (cleared, capacity retained) or
/// an empty fresh one; [`RoundScratch::recycle`] clears a buffer and
/// returns it to the pool. Recycling only buffers it handed out, the pool
/// grows only as large as the peak number of buffers checked out at once.
#[derive(Debug, Default)]
pub struct RoundScratch {
    free: Vec<Vec<u8>>,
}

impl RoundScratch {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self { free: Vec::new() }
    }

    /// Checks out an empty buffer, reusing pooled capacity when available.
    pub fn checkout(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer this pool handed out: contents cleared, capacity
    /// kept.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.free.push(buf);
    }

    /// Number of buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_recycled_capacity() {
        let mut scratch = RoundScratch::new();
        let mut buf = scratch.checkout();
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let capacity = buf.capacity();
        let ptr = buf.as_ptr();
        scratch.recycle(buf);
        assert_eq!(scratch.pooled(), 1);

        let again = scratch.checkout();
        assert!(again.is_empty(), "recycled buffers must come back cleared");
        assert_eq!(again.capacity(), capacity);
        assert_eq!(again.as_ptr(), ptr, "the same allocation is reused");
        assert_eq!(scratch.pooled(), 0);
    }

    #[test]
    fn pool_grows_only_to_peak_concurrent_checkouts() {
        let mut scratch = RoundScratch::new();
        for _ in 0..100 {
            let mut a = scratch.checkout();
            let mut b = scratch.checkout();
            a.resize(32, 0);
            b.resize(32, 0);
            scratch.recycle(a);
            scratch.recycle(b);
        }
        assert_eq!(scratch.pooled(), 2);
    }
}
