//! Bucketed time-wheel event queue.
//!
//! The simulator used to order its event queue with one global
//! `BinaryHeap`, paying `O(log q)` per push and pop where `q` is the number
//! of in-flight events. A million-node flood keeps millions of deliveries
//! in flight at once, so the heap's pointer-chasing comparisons become one
//! of the dominant superlinear costs of large trials.
//!
//! A [`TimeWheel`] exploits what the heap ignores: all latency models are
//! *bounded* ([`LatencyModel::max_delay`](crate::LatencyModel::max_delay)),
//! so an event is almost always scheduled within a known horizon of the
//! current time. The wheel divides that horizon into [`SLOTS`] buckets of
//! fixed width (derived from the model via [`width_for`]);
//! pushing an event is an `O(1)` append to its bucket, and popping sorts
//! one bucket at a time — `O(log b)` amortised for bucket occupancy `b`,
//! independent of the total number of queued events.
//!
//! Three auxiliary structures keep the wheel *exactly* equivalent to the
//! heap (pop order is strictly ascending `(at, seq)`):
//!
//! * an `incoming` min-heap for events that land in the bucket currently
//!   being drained (a handler at time `t` may schedule for `t + 1`, which
//!   can fall into the same bucket — appending to the already-sorted
//!   bucket would break ordering);
//! * an `overflow` min-heap for events beyond the wheel horizon (long
//!   timers); when every bucket has drained, the window advances and the
//!   overflow spills back into the buckets;
//! * in debug builds, a shadow `BinaryHeap` of `(at, seq)` keys mirrors
//!   every push, and every pop `debug_assert!`s that the wheel returns
//!   exactly the key the reference heap would have returned — the entire
//!   pre-wheel implementation is retained as an executable cross-check
//!   that the whole test suite exercises.
//!
//! # Where the events live
//!
//! A bucket owns no buffer. It is a linked list of fixed-size *chunks*
//! ([`CHUNK`] events each) drawn LIFO from one wheel-wide free list; only
//! the newest chunk of a bucket can be partly filled. When the cursor
//! reaches a bucket, its chunks are *gathered* — copied into the one
//! persistent `current` buffer, which is then sorted and popped from the
//! end — and go straight back to the free list, still warm, for the pushes
//! that popping those events will cause. The wheel therefore holds
//!
//! * one chunk per [`CHUNK`] events in flight, plus at most one partly
//!   filled chunk per non-empty bucket — `O(peak in flight)`, whichever
//!   buckets the events of this trial, or the last one, happened to fall
//!   into; and
//! * `current`, as large as the fullest bucket ever drained.
//!
//! A bucket that kept a `Vec` of its own would keep the capacity of the
//! busiest moment it ever saw, `O(SLOTS × per-bucket peak)` in all: for a
//! trial whose waves sweep across the ring — adaptive diffusion at the
//! paper's `n` — an order of magnitude more than it ever has in flight.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of buckets in one wheel rotation.
///
/// With the width from [`width_for`], one rotation spans four
/// times the latency model's maximum delay, so deliveries never overflow
/// and only long protocol timers take the overflow-heap path.
const SLOTS: usize = 256;

/// How many buckets the model's maximum delay spans (horizon divisor in
/// [`width_for`]).
const BUCKETS_PER_MAX_DELAY: u64 = 64;

/// Events per chunk of bucket storage.
///
/// A delivery lands within [`BUCKETS_PER_MAX_DELAY`] buckets of the cursor,
/// so about that many chunks are partly filled at any moment: at 64 events
/// that is a few thousand events of slack, of the order of what a
/// 1 000-node trial has in flight and nothing beside a large flood. A
/// larger chunk wastes proportionally more; a smaller one follows a link,
/// and on a cold wheel calls the allocator, proportionally more often (at
/// 64 a chunk of flood events is 2.5 KB). A constant, not a setting.
const CHUNK: usize = 64;

/// "No chunk": the end of a bucket's list or of the free list, and an
/// empty bucket. Out of range for `chunks`, so `chunks.get(NO_CHUNK)` is
/// the `None` that the "does this bucket have a chunk with room" check on
/// the push path wants anyway.
const NO_CHUNK: usize = usize::MAX;

/// Retained capacity is clamped on [`TimeWheel::reset`] when it exceeds
/// this factor times what the trial that just ended could have used
/// (mirrors `SCRATCH_CLAMP_FACTOR` in the topology generators).
const WHEEL_CLAMP_FACTOR: usize = 4;

/// Capacity below this many items — `current`, each heap — is never worth
/// shrinking.
const WHEEL_RETAIN_FLOOR: usize = 256;

/// The bucket width for a latency model whose largest delay is `max_delay`:
/// one wheel rotation then covers four times the model bound, so every
/// delivery scheduled from the current time lands within the rotation.
pub(crate) fn width_for(max_delay: SimTime) -> SimTime {
    (max_delay / BUCKETS_PER_MAX_DELAY).max(1)
}

/// An event that can be scheduled on a [`TimeWheel`].
///
/// `key` must be unique per queued item (the simulator's `(at, seq)` pair),
/// which makes the pop order a total order.
pub(crate) trait WheelItem {
    /// The `(time, tie-break)` ordering key.
    fn key(&self) -> (SimTime, u64);

    /// The scheduled time (first key component).
    fn at(&self) -> SimTime {
        self.key().0
    }
}

/// Wrapper ordering items by [`WheelItem::key`] (needed because payloads
/// themselves are not `Ord`).
#[derive(Debug)]
struct ByKey<T>(T);

impl<T: WheelItem> PartialEq for ByKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T: WheelItem> Eq for ByKey<T> {}
impl<T: WheelItem> PartialOrd for ByKey<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: WheelItem> Ord for ByKey<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// One fixed-size piece of bucket storage; see the
/// [module documentation](self#where-the-events-live).
#[derive(Debug)]
struct Chunk<T> {
    /// At most [`CHUNK`] events, in push order; allocated once, at that
    /// capacity, and never grown.
    items: Vec<ByKey<T>>,
    /// The next (older) chunk of the list this one is on — a bucket's or
    /// the free list — or [`NO_CHUNK`].
    next: usize,
}

/// Bucketed time-wheel priority queue over `(at, seq)` keys; see the
/// [module documentation](self).
#[derive(Debug)]
pub(crate) struct TimeWheel<T> {
    /// Bucket width in simulated time units (≥ 1).
    width: SimTime,
    /// Simulated time of bucket 0's lower edge for the current rotation.
    window_start: SimTime,
    /// Index of the bucket currently being drained.
    cursor: usize,
    /// The fixed ring of buckets: for each, the index in `chunks` of its
    /// newest chunk (the only one that can have room), or [`NO_CHUNK`].
    slots: [usize; SLOTS],
    /// Every chunk the wheel has allocated, each on exactly one list.
    chunks: Vec<Chunk<T>>,
    /// Head of the free list: empty chunks, most recently freed first.
    free: usize,
    /// The cursor bucket, gathered out of its chunks and sorted
    /// *descending* so the minimum pops off the end in `O(1)` without
    /// moving the rest.
    current: Vec<ByKey<T>>,
    /// Events at or before the cursor bucket's upper edge, pushed after
    /// the bucket was sorted.
    incoming: BinaryHeap<Reverse<ByKey<T>>>,
    /// Events beyond the current rotation's horizon.
    overflow: BinaryHeap<Reverse<ByKey<T>>>,
    /// Total queued events.
    len: usize,
    /// Largest `len` observed since the last [`TimeWheel::reset`]; the
    /// reset-time capacity clamp sizes retained allocations against it.
    peak_len: usize,
    /// Reference implementation (the pre-wheel global heap), mirrored on
    /// every push and checked on every pop in debug builds.
    #[cfg(debug_assertions)]
    shadow: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl<T: WheelItem> Default for TimeWheel<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T: WheelItem> TimeWheel<T> {
    /// Creates an empty wheel with a placeholder bucket width; call
    /// [`TimeWheel::reset`] with the model-derived width before use. An
    /// empty wheel owns no heap memory, and even un-reset it is safe to
    /// push to and pop from.
    pub(crate) fn empty() -> Self {
        Self {
            width: 1,
            window_start: 0,
            cursor: 0,
            slots: [NO_CHUNK; SLOTS],
            chunks: Vec::new(),
            free: NO_CHUNK,
            current: Vec::new(),
            incoming: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
            #[cfg(debug_assertions)]
            shadow: BinaryHeap::new(),
        }
    }

    /// Drops all queued events and re-arms the wheel with `width`, keeping
    /// the chunks and buffers (the arena-recycling path) — unless they are
    /// more than [`WHEEL_CLAMP_FACTOR`]× oversized for the trial that just
    /// ended, in which case they shrink to what it could have used. Without
    /// the clamp a single million-node trial would pin hundreds of megabytes
    /// of chunk and heap capacity in the arena pool for the rest of the
    /// process, even if every later trial is a thousand times smaller.
    ///
    /// The clamp judges the trial that ran since the previous reset. A reset
    /// with no push in between (the simulator re-arming a wheel the arena
    /// already cleared) has no trial to judge and keeps every allocation.
    pub(crate) fn reset(&mut self, width: SimTime) {
        self.slots = [NO_CHUNK; SLOTS];
        self.current.clear();
        self.incoming.clear();
        self.overflow.clear();
        #[cfg(debug_assertions)]
        self.shadow.clear();
        if self.peak_len > 0 {
            self.clamp_capacity();
        }
        // No bucket has a chunk any more: empty them all onto the free list.
        self.free = NO_CHUNK;
        for (index, chunk) in self.chunks.iter_mut().enumerate().rev() {
            chunk.items.clear();
            chunk.next = std::mem::replace(&mut self.free, index);
        }
        self.width = width.max(1);
        self.window_start = 0;
        self.cursor = 0;
        self.len = 0;
        self.peak_len = 0;
    }

    /// Releases capacity that the trial just ended, which peaked at
    /// `peak_len` queued events, had no use for. No bucket may still refer
    /// to a chunk; the caller rebuilds the free list.
    fn clamp_capacity(&mut self) {
        // The most chunks `peak_len` events can occupy: full ones, plus one
        // partly filled per bucket. `current` never holds more than all of
        // them. The two are judged together — they are the same events at
        // different moments — so neither alone has to be within the factor.
        let chunks = self.peak_len.div_ceil(CHUNK) + SLOTS;
        let current = self.peak_len.max(WHEEL_RETAIN_FLOOR);
        let retained = self.chunks.len() * CHUNK + self.current.capacity();
        if retained > (chunks * CHUNK + current) * WHEEL_CLAMP_FACTOR {
            self.chunks.truncate(chunks);
            self.chunks.shrink_to(chunks);
            self.current.shrink_to(current);
        }
        let per_heap = self.peak_len.max(WHEEL_RETAIN_FLOOR);
        for heap in [&mut self.incoming, &mut self.overflow] {
            if heap.capacity() > per_heap * WHEEL_CLAMP_FACTOR {
                heap.shrink_to(per_heap);
            }
        }
        #[cfg(debug_assertions)]
        if self.shadow.capacity() > per_heap * WHEEL_CLAMP_FACTOR {
            self.shadow.shrink_to(per_heap);
        }
    }

    /// Drops all queued events, keeping allocations (used when a wheel is
    /// returned to a [`TrialArena`](crate::TrialArena) pool).
    pub(crate) fn clear(&mut self) {
        let width = self.width;
        self.reset(width);
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Upper edge of the cursor bucket: events strictly below it can no
    /// longer be appended to the (already sorted) bucket and go through
    /// the incoming heap instead.
    fn cursor_end(&self) -> SimTime {
        self.window_start
            .saturating_add(self.width.saturating_mul(self.cursor as SimTime + 1))
    }

    /// Schedules `item`.
    pub(crate) fn push(&mut self, item: T) {
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        #[cfg(debug_assertions)]
        self.shadow.push(Reverse(item.key()));
        self.route(ByKey(item));
    }

    /// Opens a bulk-push session for scheduling a burst of events (a
    /// broadcast fan-out). Pushing never moves the cursor or the window, so
    /// the session computes the bucket-routing threshold once instead of
    /// per event; the exclusive borrow guarantees no pop can intervene and
    /// invalidate it.
    pub(crate) fn bulk(&mut self) -> BulkPush<'_, T> {
        let cursor_end = self.cursor_end();
        BulkPush {
            cursor_end,
            wheel: self,
        }
    }

    /// Files `item` into the right structure for its scheduled time.
    fn route(&mut self, item: ByKey<T>) {
        let cursor_end = self.cursor_end();
        self.route_within(item, cursor_end);
    }

    /// [`TimeWheel::route`] with the cursor bucket's upper edge already
    /// computed (it is invariant across pushes, so bulk sessions hoist it).
    fn route_within(&mut self, item: ByKey<T>, cursor_end: SimTime) {
        let at = item.0.at();
        if at < cursor_end {
            // Current bucket (or, after a window jump, before it).
            self.incoming.push(Reverse(item));
            return;
        }
        // `at >= cursor_end > window_start`, so the subtraction is safe.
        let offset = (at - self.window_start) / self.width;
        if offset >= SLOTS as SimTime {
            self.overflow.push(Reverse(item));
            return;
        }
        // offset < SLOTS = 256, so the cast is lossless.
        #[allow(clippy::cast_possible_truncation)]
        let slot = offset as usize;
        match self.chunks.get_mut(self.slots[slot]) {
            Some(chunk) if chunk.items.len() < CHUNK => chunk.items.push(item),
            _ => self.push_in_new_chunk(slot, item),
        }
    }

    /// Puts `item` in a chunk off the free list (allocating one only when
    /// the list is empty), which becomes bucket `slot`'s newest.
    fn push_in_new_chunk(&mut self, slot: usize, item: ByKey<T>) {
        let index = match self.chunks.get(self.free) {
            Some(free) => std::mem::replace(&mut self.free, free.next),
            None => {
                self.chunks.push(Chunk {
                    items: Vec::with_capacity(CHUNK),
                    next: NO_CHUNK,
                });
                self.chunks.len() - 1
            }
        };
        let chunk = &mut self.chunks[index];
        chunk.next = self.slots[slot];
        chunk.items.push(item);
        self.slots[slot] = index;
    }

    /// Moves the events of bucket `slot` (not empty) into `current` (empty)
    /// and sorts them for popping; the bucket's chunks go to the front of
    /// the free list, its newest first.
    fn gather(&mut self, slot: usize) {
        debug_assert!(self.current.is_empty());
        let head = std::mem::replace(&mut self.slots[slot], NO_CHUNK);
        let mut index = head;
        loop {
            let chunk = &mut self.chunks[index];
            self.current.append(&mut chunk.items);
            if chunk.next == NO_CHUNK {
                chunk.next = self.free;
                break;
            }
            index = chunk.next;
        }
        self.free = head;
        self.current.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Advances the cursor until the next event is reachable from the
    /// current bucket or the incoming heap (or the wheel is empty).
    fn ensure_ready(&mut self) {
        loop {
            if !self.current.is_empty() || !self.incoming.is_empty() {
                return;
            }
            // Scanning from `cursor` (not `cursor + 1`) is required for the
            // saturation edge: when `cursor_end` caps at `SimTime::MAX`, an
            // event at exactly `SimTime::MAX` routes into the cursor slot
            // itself instead of the incoming heap. Mid-rotation the cursor
            // slot is empty (its contents were gathered into `current`), so
            // the wider scan never re-reads drained events.
            if let Some(next) = (self.cursor..SLOTS).find(|&j| self.slots[j] != NO_CHUNK) {
                self.cursor = next;
                self.gather(next);
                return;
            }
            // The whole rotation has drained: start the next window at the
            // earliest overflow event and spill everything within reach
            // back into the buckets.
            let Some(Reverse(earliest)) = self.overflow.peek() else {
                return;
            };
            self.window_start = earliest.0.at();
            self.cursor = 0;
            while let Some(Reverse(item)) = self.overflow.peek() {
                let offset = (item.0.at() - self.window_start) / self.width;
                if offset >= SLOTS as SimTime {
                    break;
                }
                let Some(Reverse(item)) = self.overflow.pop() else {
                    unreachable!("peek() just returned an item")
                };
                self.route(item);
            }
            // The earliest spilled event landed at or before the new
            // cursor bucket, so the next iteration returns through the
            // incoming heap.
        }
    }

    /// Removes and returns the event with the smallest `(at, seq)` key.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.ensure_ready();
        let bucket_key = self.current.last().map(|item| item.0.key());
        let incoming_key = self.incoming.peek().map(|Reverse(item)| item.0.key());
        let from_bucket = match (bucket_key, incoming_key) {
            (Some(b), Some(i)) => b < i,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let item = if from_bucket {
            let Some(item) = self.current.pop() else {
                unreachable!("last() just returned an item")
            };
            item.0
        } else {
            let Some(Reverse(item)) = self.incoming.pop() else {
                unreachable!("peek() just returned an item")
            };
            item.0
        };
        self.len -= 1;
        #[cfg(debug_assertions)]
        {
            let expected = self.shadow.pop().map(|Reverse(key)| key);
            debug_assert_eq!(
                Some(item.key()),
                expected,
                "time-wheel pop order diverged from the reference heap"
            );
        }
        Some(item)
    }

    /// Total retained item capacity across chunks, `current` and heaps
    /// (test hook for the capacity regression suite).
    #[cfg(test)]
    pub(crate) fn retained_capacity(&self) -> usize {
        self.chunks
            .iter()
            .map(|chunk| chunk.items.capacity())
            .sum::<usize>()
            + self.current.capacity()
            + self.incoming.capacity()
            + self.overflow.capacity()
    }
}

/// An open bulk-push session on a [`TimeWheel`]; see [`TimeWheel::bulk`].
///
/// Holds the wheel exclusively for its lifetime, so the routing threshold
/// cached at open time stays valid for every push in the burst. Dropping
/// the session ends it; there is nothing to flush, since every push lands
/// in its final structure immediately.
#[derive(Debug)]
pub(crate) struct BulkPush<'a, T> {
    /// The wheel being pushed into.
    wheel: &'a mut TimeWheel<T>,
    /// Upper edge of the cursor bucket, hoisted out of the per-push path
    /// (invariant while the session holds the wheel).
    cursor_end: SimTime,
}

impl<T: WheelItem> BulkPush<'_, T> {
    /// Schedules `item`; equivalent to [`TimeWheel::push`].
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        self.wheel.len += 1;
        self.wheel.peak_len = self.wheel.peak_len.max(self.wheel.len);
        #[cfg(debug_assertions)]
        self.wheel.shadow.push(Reverse(item.key()));
        self.wheel.route_within(ByKey(item), self.cursor_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl WheelItem for (SimTime, u64) {
        fn key(&self) -> (SimTime, u64) {
            *self
        }
    }

    /// Pops everything and checks the order is strictly ascending `(at,
    /// seq)` — i.e. exactly what the reference heap would produce (the
    /// debug-build shadow heap re-checks this internally on every pop).
    fn drain_sorted(wheel: &mut TimeWheel<(SimTime, u64)>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(item) = wheel.pop() {
            out.push(item);
        }
        let mut expected = out.clone();
        expected.sort_unstable();
        assert_eq!(out, expected, "pop order must be ascending (at, seq)");
        assert_eq!(wheel.len(), 0);
        assert_eq!(wheel.pop(), None);
        out
    }

    #[test]
    fn pops_in_key_order_across_buckets() {
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        for (seq, at) in [5u64, 2500, 17, 0, 9999, 17, 3, 640]
            .into_iter()
            .enumerate()
        {
            wheel.push((at, seq as u64));
        }
        let order = drain_sorted(&mut wheel);
        assert_eq!(order.len(), 8);
        assert_eq!(order[0], (0, 3));
        // Equal times pop in seq order.
        assert_eq!(order[3], (17, 2));
        assert_eq!(order[4], (17, 5));
    }

    #[test]
    fn pushes_into_the_current_bucket_stay_ordered() {
        // A handler popping at time t schedules for t+1, which lands in the
        // bucket currently being drained — the incoming heap must keep the
        // merge ordered.
        let mut wheel = TimeWheel::empty();
        wheel.reset(100);
        wheel.push((10, 0));
        wheel.push((90, 1));
        assert_eq!(wheel.pop(), Some((10, 0)));
        wheel.push((11, 2));
        wheel.push((95, 3));
        assert_eq!(wheel.pop(), Some((11, 2)));
        assert_eq!(wheel.pop(), Some((90, 1)));
        assert_eq!(wheel.pop(), Some((95, 3)));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn far_future_timers_rewindow_through_overflow() {
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        // Far beyond the 256-slot horizon (and one at u64::MAX to exercise
        // the saturating window arithmetic).
        wheel.push((1_000_000, 0));
        wheel.push((1_000_005, 1));
        wheel.push((40, 2));
        wheel.push((SimTime::MAX, 3));
        assert_eq!(
            drain_sorted(&mut wheel),
            vec![(40, 2), (1_000_000, 0), (1_000_005, 1), (SimTime::MAX, 3)]
        );
    }

    /// Bucket width of the equivalence tests below.
    const WIDTH: SimTime = 16;

    /// Events that exercise the chunk boundaries, numbered from `seq`.
    ///
    /// From `near` on, four buckets two apart get `CHUNK − 1`, `CHUNK`,
    /// `CHUNK + 1` and several chunks' worth of events, each bucket's at
    /// one time, so they share a bucket however the window is aligned. At
    /// `far` sits a cluster that a re-windowing spills more than a chunk of
    /// into a single bucket: one event to anchor the new window, the rest
    /// one bucket later (bucket 0 of a new window is the cursor bucket and
    /// takes its events through the incoming heap).
    fn chunk_edge_events(near: SimTime, far: SimTime, seq: &mut u64) -> Vec<(SimTime, u64)> {
        let buckets = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
            .into_iter()
            .zip((0..).map(|bucket| near + 2 * bucket * WIDTH));
        let cluster = [(1, far), (CHUNK + 10, far + WIDTH)];
        buckets
            .chain(cluster)
            .flat_map(|(occupancy, at)| std::iter::repeat_n(at, occupancy))
            .map(|at| {
                *seq += 1;
                (at, *seq - 1)
            })
            .collect()
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // Randomised workload mimicking a simulation: pop one event, push a
        // few delayed follow-ups, repeat. The debug-build shadow heap
        // asserts heap equivalence on every single pop.
        let mut rng = StdRng::seed_from_u64(42);
        let mut wheel = TimeWheel::empty();
        assert_eq!(width_for(1050), WIDTH);
        wheel.reset(WIDTH);
        let mut seq = 0u64;
        let mut now = 0;
        for _ in 0..50 {
            wheel.push((rng.gen_range(1..1000), seq));
            seq += 1;
        }
        let mut popped = 0usize;
        let mut total = 50usize;
        let mut edges_at = [100usize, 2500].into_iter().peekable();
        while let Some((at, _)) = wheel.pop() {
            assert!(at >= now, "pop order went backwards");
            now = at;
            popped += 1;
            // Twice, mid-run: buckets filled to (at least — follow-ups may
            // join them) just under, exactly, just over and several times
            // a chunk, and an overflow spill of more than a chunk into one
            // bucket.
            if edges_at.next_if_eq(&popped).is_some() {
                let near = now + 64 * WIDTH;
                for event in chunk_edge_events(near, now + 1_000_000, &mut seq) {
                    wheel.push(event);
                    total += 1;
                }
            }
            if total < 6000 {
                for _ in 0..rng.gen_range(0..3) {
                    // Mostly bounded-latency deliveries, occasionally a
                    // long timer that must take the overflow path.
                    let delay = if rng.gen_range(0..20) == 0 {
                        rng.gen_range(10_000..500_000)
                    } else {
                        rng.gen_range(1..1050)
                    };
                    wheel.push((now + delay, seq));
                    seq += 1;
                    total += 1;
                }
            }
        }
        assert_eq!(popped, total);
        assert!(edges_at.next().is_none(), "the run ended before its edges");
        assert_eq!(wheel.len(), 0);

        // The saturation edge: once the cursor bucket's upper edge caps at
        // `SimTime::MAX`, an event at exactly that time files into the
        // cursor bucket's chunks, not the incoming heap — also while the
        // events gathered from that bucket are still being popped.
        wheel.push((SimTime::MAX - 5, seq));
        wheel.push((SimTime::MAX - 3, seq + 1));
        for extra in 0..CHUNK as u64 + 1 {
            wheel.push((SimTime::MAX, seq + 2 + extra));
        }
        seq += CHUNK as u64 + 3;
        assert_eq!(wheel.pop().map(|(at, _)| at), Some(SimTime::MAX - 5));
        assert_eq!(wheel.pop().map(|(at, _)| at), Some(SimTime::MAX - 3));
        assert_eq!(wheel.pop().map(|(at, _)| at), Some(SimTime::MAX));
        for extra in 0..CHUNK as u64 + 2 {
            wheel.push((SimTime::MAX, seq + extra));
        }
        assert_eq!(drain_sorted(&mut wheel).len(), 2 * CHUNK + 2);
    }

    #[test]
    fn reset_and_clear_drop_pending_events() {
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        wheel.push((5, 0));
        wheel.push((500_000, 1));
        wheel.clear();
        assert_eq!(wheel.len(), 0);
        assert_eq!(wheel.pop(), None);
        // Re-armed after the clear, including for events that were beyond
        // the previous horizon.
        wheel.push((9, 2));
        assert_eq!(wheel.pop(), Some((9, 2)));
        wheel.reset(1);
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn bulk_push_matches_individual_pushes() {
        // Two wheels fed the same events — one per-push, one through a bulk
        // session opened mid-drain (the broadcast fan-out pattern) — must
        // pop identically. The debug shadow heap re-checks each pop too.
        let mut rng = StdRng::seed_from_u64(7);
        let mut seq = 500;
        let mut events: Vec<(SimTime, u64)> = (0..seq)
            .map(|seq| (rng.gen_range(0..100_000), seq))
            .collect();
        let mut single = TimeWheel::empty();
        let mut bulk = TimeWheel::empty();
        single.reset(WIDTH);
        bulk.reset(WIDTH);
        for &event in &events[..250] {
            single.push(event);
            bulk.push(event);
        }
        // Drain a little so both wheels are mid-rotation with a sorted
        // current bucket before the burst arrives.
        for _ in 0..50 {
            assert_eq!(single.pop(), bulk.pop());
        }
        // The burst also fills buckets exactly to the chunk boundaries (no
        // other event is that late), spills more than a chunk out of the
        // overflow heap into one bucket, and ends at the `SimTime::MAX`
        // saturation edge.
        events.extend(chunk_edge_events(200_000, 1_000_000, &mut seq));
        events.push((SimTime::MAX - 1, seq));
        events.extend((1..=CHUNK as u64 + 1).map(|extra| (SimTime::MAX, seq + extra)));
        seq += CHUNK as u64 + 2;
        {
            let mut session = bulk.bulk();
            for &event in &events[250..] {
                session.push(event);
            }
        }
        for &event in &events[250..] {
            single.push(event);
        }
        // Pop in lockstep up to the first event at `SimTime::MAX`, then
        // push into the cursor bucket that is being drained.
        loop {
            let popped = single.pop();
            assert_eq!(popped, bulk.pop());
            if popped.is_some_and(|(at, _)| at == SimTime::MAX) {
                break;
            }
        }
        {
            let mut session = bulk.bulk();
            for extra in 0..CHUNK as u64 {
                single.push((SimTime::MAX, seq + extra));
                session.push((SimTime::MAX, seq + extra));
            }
        }
        let rest = drain_sorted(&mut single);
        assert_eq!(rest.len(), 2 * CHUNK);
        assert_eq!(rest, drain_sorted(&mut bulk));
    }

    /// The most item capacity a trial that peaked at `peak` queued events
    /// can have made the wheel allocate: every event in a chunk (full
    /// chunks plus one partly filled per bucket), every event in `current`
    /// and in each heap, those three grown by doubling.
    fn capacity_bound(peak: usize) -> usize {
        (peak.div_ceil(CHUNK) + SLOTS) * CHUNK + 3 * 2 * peak.max(WHEEL_RETAIN_FLOOR)
    }

    #[test]
    fn reset_clamps_capacity_after_a_large_trial() {
        // Grow-then-shrink-then-grow: a large trial's clear retains its
        // capacity for reuse (the peak matches the demand), but the clear
        // after a subsequent small trial must release it — otherwise one
        // 10⁶-node trial pins hundreds of megabytes in the arena pool for
        // the rest of the process.
        let mut wheel = TimeWheel::empty();
        wheel.reset(width_for(1050));
        let large = 1_000_000usize;
        for seq in 0..large {
            let seq = seq as u64;
            wheel.push((seq % 4000, seq));
        }
        wheel.clear();
        let after_large = wheel.retained_capacity();
        let bound = capacity_bound(1000) * WHEEL_CLAMP_FACTOR;
        assert!(
            after_large >= large,
            "large-trial capacity should be retained for reuse, got {after_large}"
        );
        assert!(
            after_large <= capacity_bound(large),
            "a trial never allocates beyond its own peak, got {after_large}"
        );
        assert!(
            after_large > bound,
            "large-trial capacity {after_large} must exceed the small-trial bound {bound} \
             for the shrink assertion below to be meaningful"
        );
        // Small trial: its clear sees a small peak and shrinks the pool.
        for seq in 0..1000u64 {
            wheel.push((seq % 4000, seq));
        }
        wheel.clear();
        let after_small = wheel.retained_capacity();
        assert!(
            after_small <= bound,
            "retained capacity {after_small} exceeds clamp bound {bound}"
        );
        // Growing again after the clamp still works.
        for seq in 0..10_000u64 {
            wheel.push((seq % 4000, seq));
        }
        assert_eq!(wheel.len(), 10_000);
        drain_sorted(&mut wheel);
    }

    /// Queues `count` events that all fall into the first `hot_slots`
    /// buckets of a fresh rotation of width-10 buckets.
    fn push_into_first_slots(wheel: &mut TimeWheel<(SimTime, u64)>, count: u64, hot_slots: u64) {
        for seq in 0..count {
            wheel.push((10 + seq % (hot_slots * 10), seq));
        }
    }

    #[test]
    fn a_skewed_trial_keeps_its_buckets_through_store_and_rearm() {
        // A flood under the default latency model: every in-flight event
        // sits in well under a tenth of the slots, each many times the even
        // share. The wheel allocates for the events, not for where they
        // fell — about one item of chunk capacity per event — and the
        // arena's clear followed by the simulator's re-arming reset must
        // hand all of it to the next trial.
        let events = 200_000;
        let hot_slots = 20u64;
        assert!(hot_slots * 10 < SLOTS as u64);
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        push_into_first_slots(&mut wheel, events, hot_slots);
        let grown = wheel.retained_capacity();
        assert!(grown >= 200_000);
        // At most one partly filled chunk per hot bucket on top.
        assert!(grown <= 200_000 + 20 * CHUNK);
        wheel.clear();
        assert_eq!(wheel.retained_capacity(), grown, "store-time clamp shrank");
        wheel.reset(10);
        assert_eq!(wheel.retained_capacity(), grown, "re-arming reset shrank");
        // The same trial again, and the same events skewed into other
        // buckets, fit without allocating a chunk.
        push_into_first_slots(&mut wheel, events, hot_slots);
        assert_eq!(wheel.retained_capacity(), grown);
        wheel.clear();
        for seq in 0..events {
            wheel.push((1500 + seq % (hot_slots * 10), seq));
        }
        assert_eq!(wheel.retained_capacity(), grown);
        // Draining adds `current`, sized for the fullest bucket.
        drain_sorted(&mut wheel);
        assert!(wheel.retained_capacity() <= capacity_bound(200_000));
        // A small trial afterwards still releases the large one's chunks.
        wheel.clear();
        push_into_first_slots(&mut wheel, 1000, hot_slots);
        wheel.clear();
        let bound = capacity_bound(1000) * WHEEL_CLAMP_FACTOR;
        assert!(grown > bound);
        assert!(wheel.retained_capacity() <= bound);
    }

    #[test]
    fn storage_follows_the_events_in_flight_not_where_they_fell() {
        // Adaptive diffusion's shape: wave after wave of a few thousand
        // events, each wave a handful of buckets wide, drained before the
        // next one lands further round the ring. Over a trial every bucket
        // is at some moment the busiest — buckets that each kept the buffer
        // they grew ended up holding `SLOTS` waves — while the events in
        // flight never exceed one wave, and neither may the chunks
        // (17 920 items of capacity here; per-bucket buffers: 236 032).
        let mut rng = StdRng::seed_from_u64(3);
        let mut wheel = TimeWheel::empty();
        wheel.reset(WIDTH);
        let wave = 7000;
        let (mut now, mut seq) = (0, 0);
        for _ in 0..60 {
            let delay = rng.gen_range(100..900);
            for _ in 0..wave {
                wheel.push((now + delay + rng.gen_range(0..150), seq));
                seq += 1;
            }
            assert_eq!(wheel.len(), wave);
            now = drain_sorted(&mut wheel)[wave - 1].0;
        }
        let retained = wheel.retained_capacity();
        assert!(
            retained <= capacity_bound(wave),
            "{retained} items of capacity for {wave} in flight"
        );
    }

    #[test]
    fn a_repeated_trial_allocates_no_chunk() {
        // Draining hands a bucket's chunks to the free list and the next
        // pushes take them from there, wherever they land: an identical
        // trial on a cleared and re-armed wheel finds every chunk it needs,
        // and `current` already sized for its fullest bucket. Three
        // far-future events force a re-windowing per trial as well.
        let mut wheel = TimeWheel::empty();
        let mut after_first = 0;
        for trial in 0..6 {
            wheel.reset(10);
            // Occupancy falls from bucket to bucket.
            let mut seq = 0;
            for slot in 1..=20u64 {
                for _ in 0..(21 - slot) * 500 {
                    wheel.push((slot * 10, seq));
                    seq += 1;
                }
            }
            for far in [1_000_000, 1_000_500, 1_001_000] {
                wheel.push((far, seq));
                seq += 1;
            }
            let peak = wheel.len();
            drain_sorted(&mut wheel);
            wheel.clear();
            if trial == 0 {
                after_first = wheel.retained_capacity();
                assert!(after_first <= capacity_bound(peak));
            }
        }
        assert_eq!(wheel.retained_capacity(), after_first);
    }

    #[test]
    fn reset_twice_in_a_row_changes_no_capacity() {
        // The second reset has no trial of its own to judge (`peak_len` is
        // back to zero) and must not mistake that for a tiny one.
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        push_into_first_slots(&mut wheel, 400_000, 250);
        wheel.push((1_000_000, 400_000));
        wheel.reset(10);
        let after_first = wheel.retained_capacity();
        assert!(after_first >= 400_000);
        wheel.reset(10);
        wheel.reset(7);
        assert_eq!(wheel.retained_capacity(), after_first);
        // And the chunks are all there to be used: the same trial again
        // allocates nothing.
        wheel.reset(10);
        push_into_first_slots(&mut wheel, 400_000, 250);
        assert_eq!(wheel.retained_capacity(), after_first);
    }

    #[test]
    fn width_for_covers_the_model_bound() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(64), 1);
        assert_eq!(width_for(6400), 100);
        // A full rotation spans at least 4× the model bound.
        let width = width_for(1_050_000);
        assert!(width * SLOTS as SimTime >= 4 * 1_050_000 - SLOTS as SimTime);
    }
}
