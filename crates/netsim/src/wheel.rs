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
//! current time. Time is cut into buckets of fixed width (derived from the
//! model via [`width_for`]), numbered from zero: an event's bucket is
//! `at / width`. A ring of [`SLOTS`] slots holds the buckets from the
//! *cursor* — the bucket being drained — up to `SLOTS − 1` ahead of it,
//! bucket `b` in slot `b mod SLOTS`, so the horizon rolls forward with the
//! cursor (a hashed timing wheel: Varghese & Lauck, SOSP 1987; a calendar
//! queue: Brown, CACM 31(10), 1988). Pushing an event is an `O(1)` append
//! to its bucket, and popping orders one bucket at a time — a stable radix
//! pass per 8 bits of the bucket width, `O(1)` per event, independent of
//! the total number of queued events (see
//! [below](self#how-a-bucket-is-ordered)).
//!
//! Three auxiliary structures keep the wheel *exactly* equivalent to the
//! heap (pop order is strictly ascending `(at, seq)`):
//!
//! * an `incoming` min-heap for events that land in the cursor bucket once
//!   it is gathered, or before it (a handler at time `t` may schedule for
//!   `t + 1`, which can fall into the same bucket — appending to the
//!   already-ordered bucket would break ordering);
//! * an `overflow` min-heap for events at or beyond the horizon, `SLOTS`
//!   buckets past the cursor: long timers only, since a delivery lands
//!   within [`BUCKETS_PER_MAX_DELAY`] + 1 buckets of the cursor. Each
//!   cursor advance first moves the overflow events the new horizon
//!   reaches into their buckets; a wheel whose ring has drained jumps
//!   straight to the bucket of the earliest overflow event;
//! * in debug builds, a shadow `BinaryHeap` of `(at, seq)` keys mirrors
//!   every push, and every pop `debug_assert!`s that the wheel returns
//!   exactly the key the reference heap would have returned — the entire
//!   pre-wheel implementation is retained as an executable cross-check
//!   that the whole test suite exercises.
//!
//! # Where the events live
//!
//! A bucket owns no buffer. It is a linked list, oldest to newest, of
//! fixed-size *chunks* ([`CHUNK`] events each) drawn LIFO from one
//! wheel-wide free list; only the newest chunk of a bucket can be partly
//! filled. When the cursor reaches a bucket, its events are *gathered* —
//! moved in pop order into the one persistent `current` buffer, which is
//! popped from the end — and its chunks go straight back to the free list,
//! still warm, for the pushes that popping those events will cause. The
//! wheel therefore holds
//!
//! * one chunk per [`CHUNK`] events in flight, plus at most one partly
//!   filled chunk per non-empty bucket — `O(peak in flight)`, whichever
//!   buckets the events of this trial, or the last one, happened to fall
//!   into;
//! * `current`, as large as the fullest bucket ever gathered; and
//! * two `u64` key buffers ([`SortKeys`]) of that size, which a
//!   [`TrialArena`](crate::TrialArena) keeps across trials of different
//!   event types, and a process-wide pool across arenas.
//!
//! A bucket that kept a `Vec` of its own would keep the capacity of the
//! busiest moment it ever saw, `O(SLOTS × per-bucket peak)` in all: for a
//! trial whose waves sweep across the ring — adaptive diffusion at the
//! paper's `n` — an order of magnitude more than it ever has in flight.
//!
//! # How a bucket is ordered
//!
//! Within a bucket, events with equal `at` already sit oldest-first in
//! `seq` order: the simulator numbers its events in push order, a direct
//! push appends to its bucket's newest chunk, and the overflow heap moves
//! an event into its bucket, in `(at, seq)` order, at the cursor advance
//! that brings the bucket within the horizon — before any direct push can
//! reach that bucket. So ordering a bucket by `at` alone, *stably*, orders
//! it by `(at, seq)`. The gather packs one `u64` per event, oldest first:
//! the event's offset `at − bucket start` (below the width, at most 2³²) in
//! the upper half and its place in the chunk storage in the lower. A
//! least-significant-digit radix sort over the offset's bytes —
//! ⌈log₂ width / 8⌉ passes, two for the default latency model, a pass
//! skipped when all keys share its digit — puts the keys in order without
//! comparing events, and each event then moves once, straight from its
//! chunk into `current`, in descending key order.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of slots in the ring: the cursor bucket and the `SLOTS − 1`
/// after it.
///
/// With the width from [`width_for`], the ring spans four times the latency
/// model's maximum delay, so a delivery always lands in the ring and only
/// protocol timers longer than about three model bounds take the overflow
/// heap.
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

/// A bucket with no chunk.
const EMPTY: Bucket = Bucket {
    oldest: NO_CHUNK,
    newest: NO_CHUNK,
};

/// The widest bucket: an event's offset within its bucket must fit the
/// upper half of its sort key. A wider model bound only sends more long
/// events through the overflow heap; the pop order does not depend on the
/// width.
const MAX_WIDTH: SimTime = 1 << 32;

/// The most chunks a wheel may hold: an event's place in the chunk storage
/// must fit the lower half of its sort key. That is 2³² events in flight,
/// far beyond any memory the events themselves would fit in.
const MAX_CHUNKS: usize = (1 << 32) / CHUNK;

/// Retained capacity is clamped on [`TimeWheel::reset`] when it exceeds
/// this factor times what the trial that just ended could have used
/// (mirrors `SCRATCH_CLAMP_FACTOR` in the topology generators).
const WHEEL_CLAMP_FACTOR: usize = 4;

/// Capacity below this many items — `current`, each heap, each key
/// buffer — is never worth shrinking.
const WHEEL_RETAIN_FLOOR: usize = 256;

/// The bucket width for a latency model whose largest delay is `max_delay`:
/// the ring then covers four times the model bound, so every delivery
/// scheduled from the current time lands within it.
pub(crate) fn width_for(max_delay: SimTime) -> SimTime {
    (max_delay / BUCKETS_PER_MAX_DELAY).max(1)
}

/// Radix passes that order offsets below `width`: one per 8 bits of
/// `width − 1`, none when every offset is zero.
fn radix_passes(width: SimTime) -> u32 {
    (SimTime::BITS - (width - 1).leading_zeros()).div_ceil(8)
}

/// The ring slot of bucket number `bucket`.
fn slot_of(bucket: u64) -> usize {
    // Below `SLOTS` = 256, so the cast is lossless.
    #[allow(clippy::cast_possible_truncation)]
    let slot = (bucket % SLOTS as u64) as usize;
    slot
}

/// An event that can be scheduled on a [`TimeWheel`].
///
/// `key` must be unique per queued item (the simulator's `(at, seq)` pair),
/// which makes the pop order a total order, and `seq` must grow from push
/// to push (see [how a bucket is ordered](self#how-a-bucket-is-ordered)).
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
    /// capacity, and never grown. A gather takes the events out in pop
    /// order, leaving `None`s until the chunk is cleared.
    items: Vec<Option<T>>,
    /// The next (newer) chunk of the bucket this one is on, the next chunk
    /// of the free list, or [`NO_CHUNK`].
    next: usize,
}

/// One bucket's list of chunks, as indices into the wheel's `chunks`.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// The first chunk filled, where a gather starts; [`NO_CHUNK`] if
    /// empty.
    oldest: usize,
    /// The only chunk that can have room; [`NO_CHUNK`] if empty.
    newest: usize,
}

/// The two `u64` buffers a [`TimeWheel`] orders a bucket's keys in (see
/// [how a bucket is ordered](self#how-a-bucket-is-ordered)). They do not
/// depend on the event type, so a [`TrialArena`](crate::TrialArena) keeps
/// them when it drops a pooled wheel of another event type.
#[derive(Debug, Default)]
pub(crate) struct SortKeys {
    /// The keys being ordered; ascending once [`SortKeys::sort`] returns.
    keys: Vec<u64>,
    /// Where a radix pass scatters to; swapped with `keys` after the pass.
    spare: Vec<u64>,
}

impl SortKeys {
    /// Orders the keys stably by their bits `32..32 + 8 · passes`, one
    /// 8-bit digit per pass, least significant first.
    fn sort(&mut self, passes: u32) {
        let len = self.keys.len();
        for pass in 0..passes {
            let shift = 32 + 8 * pass;
            // Masked to 8 bits, so the cast is lossless.
            #[allow(clippy::cast_possible_truncation)]
            let digit = |key: u64| ((key >> shift) & 0xff) as usize;
            let mut starts = [0usize; 256];
            for &key in &self.keys {
                starts[digit(key)] += 1;
            }
            if self
                .keys
                .first()
                .is_none_or(|&key| starts[digit(key)] == len)
            {
                // One digit for all: the pass would not move a key.
                continue;
            }
            let mut total = 0;
            for start in &mut starts {
                total += std::mem::replace(start, total);
            }
            self.spare.resize(len, 0);
            for &key in &self.keys {
                let start = &mut starts[digit(key)];
                self.spare[*start] = key;
                *start += 1;
            }
            std::mem::swap(&mut self.keys, &mut self.spare);
        }
    }

    /// Shrinks each buffer that is more than [`WHEEL_CLAMP_FACTOR`]× `keep`.
    fn clamp(&mut self, keep: usize) {
        for buffer in [&mut self.keys, &mut self.spare] {
            buffer.clear();
            if buffer.capacity() > keep * WHEEL_CLAMP_FACTOR {
                buffer.shrink_to(keep);
            }
        }
    }

    /// Total capacity of both buffers, in keys.
    pub(crate) fn capacity(&self) -> usize {
        self.keys.capacity() + self.spare.capacity()
    }
}

/// Bucketed time-wheel priority queue over `(at, seq)` keys; see the
/// [module documentation](self).
#[derive(Debug)]
pub(crate) struct TimeWheel<T> {
    /// Bucket width in simulated time units, in `1..=MAX_WIDTH`.
    width: SimTime,
    /// Number (`at / width`) of the bucket being drained. The ring holds
    /// buckets `cursor + 1 .. cursor + SLOTS`; the cursor's own slot is
    /// empty, its events gathered into `current`.
    cursor: u64,
    /// The ring of buckets, bucket `b` in slot `b mod SLOTS`.
    slots: [Bucket; SLOTS],
    /// Every chunk the wheel has allocated, each on exactly one list.
    chunks: Vec<Chunk<T>>,
    /// Head of the free list: empty chunks, most recently freed first.
    free: usize,
    /// The cursor bucket, gathered out of its chunks *descending*, so the
    /// minimum pops off the end in `O(1)` without moving the rest.
    current: Vec<ByKey<T>>,
    /// The buffers a gather orders the cursor bucket's keys in.
    keys: SortKeys,
    /// Events at or before the cursor bucket, pushed after it was gathered.
    incoming: BinaryHeap<Reverse<ByKey<T>>>,
    /// Events at or beyond the horizon, `SLOTS` buckets past the cursor.
    overflow: BinaryHeap<Reverse<ByKey<T>>>,
    /// Total queued events.
    len: usize,
    /// Largest `len` observed since the last [`TimeWheel::reset`]; the
    /// reset-time capacity clamp sizes retained allocations against it.
    peak_len: usize,
    /// Events pushed into `overflow` since the wheel was made (test hook).
    #[cfg(test)]
    overflow_pushes: usize,
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
            cursor: 0,
            slots: [EMPTY; SLOTS],
            chunks: Vec::new(),
            free: NO_CHUNK,
            current: Vec::new(),
            keys: SortKeys::default(),
            incoming: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
            #[cfg(test)]
            overflow_pushes: 0,
            #[cfg(debug_assertions)]
            shadow: BinaryHeap::new(),
        }
    }

    /// Drops all queued events and re-arms the wheel with `width` (capped
    /// at 2³²), keeping the chunks and buffers (the arena-recycling path) —
    /// unless they are more than [`WHEEL_CLAMP_FACTOR`]× oversized for the
    /// trial that just ended, in which case they shrink to what it could
    /// have used. Without the clamp a single million-node trial would pin
    /// hundreds of megabytes of chunk and heap capacity in the arena pool
    /// for the rest of the process, even if every later trial is a
    /// thousand times smaller.
    ///
    /// The clamp judges the trial that ran since the previous reset. A reset
    /// with no push in between (the simulator re-arming a wheel the arena
    /// already cleared) has no trial to judge and keeps every allocation.
    pub(crate) fn reset(&mut self, width: SimTime) {
        self.slots = [EMPTY; SLOTS];
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
        self.width = width.clamp(1, MAX_WIDTH);
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
        let per_buffer = self.peak_len.max(WHEEL_RETAIN_FLOOR);
        self.keys.clamp(per_buffer);
        for heap in [&mut self.incoming, &mut self.overflow] {
            if heap.capacity() > per_buffer * WHEEL_CLAMP_FACTOR {
                heap.shrink_to(per_buffer);
            }
        }
        #[cfg(debug_assertions)]
        if self.shadow.capacity() > per_buffer * WHEEL_CLAMP_FACTOR {
            self.shadow.shrink_to(per_buffer);
        }
    }

    /// Drops all queued events, keeping allocations (used when a wheel is
    /// returned to a [`TrialArena`](crate::TrialArena) pool).
    pub(crate) fn clear(&mut self) {
        let width = self.width;
        self.reset(width);
    }

    /// Hands the wheel the key buffers its gathers order buckets in
    /// (dropping the ones it had).
    pub(crate) fn lend_keys(&mut self, keys: SortKeys) {
        self.keys = keys;
    }

    /// Takes the wheel's key buffers, leaving it none (it allocates again
    /// at its next gather).
    pub(crate) fn take_keys(&mut self) -> SortKeys {
        std::mem::take(&mut self.keys)
    }

    /// Number of queued events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Schedules `item`.
    pub(crate) fn push(&mut self, item: T) {
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        #[cfg(debug_assertions)]
        self.shadow.push(Reverse(item.key()));
        self.route(item, self.cursor);
    }

    /// Opens a bulk-push session for scheduling a burst of events (a
    /// broadcast fan-out). Pushing never moves the cursor, so the session
    /// reads it once instead of per event; the exclusive borrow guarantees
    /// no pop can intervene and move it.
    pub(crate) fn bulk(&mut self) -> BulkPush<'_, T> {
        let cursor = self.cursor;
        BulkPush {
            cursor,
            wheel: self,
        }
    }

    /// Files `item` into the right structure for its bucket, given the
    /// cursor (invariant across pushes, so bulk sessions hoist it).
    fn route(&mut self, item: T, cursor: u64) {
        let bucket = item.at() / self.width;
        if bucket <= cursor {
            // The cursor bucket, already gathered, or before it.
            self.incoming.push(Reverse(ByKey(item)));
        } else if bucket - cursor >= SLOTS as u64 {
            #[cfg(test)]
            {
                self.overflow_pushes += 1;
            }
            self.overflow.push(Reverse(ByKey(item)));
        } else {
            self.file(slot_of(bucket), item);
        }
    }

    /// Appends `item` to bucket `slot`'s newest chunk.
    fn file(&mut self, slot: usize, item: T) {
        match self.chunks.get_mut(self.slots[slot].newest) {
            Some(chunk) if chunk.items.len() < CHUNK => chunk.items.push(Some(item)),
            _ => self.push_in_new_chunk(slot, item),
        }
    }

    /// Puts `item` in a chunk off the free list (allocating one only when
    /// the list is empty), which becomes bucket `slot`'s newest.
    fn push_in_new_chunk(&mut self, slot: usize, item: T) {
        let index = match self.chunks.get(self.free) {
            Some(free) => std::mem::replace(&mut self.free, free.next),
            None => {
                assert!(
                    self.chunks.len() < MAX_CHUNKS,
                    "time wheel holds more events than its sort keys can address"
                );
                self.chunks.push(Chunk {
                    items: Vec::with_capacity(CHUNK),
                    next: NO_CHUNK,
                });
                self.chunks.len() - 1
            }
        };
        let chunk = &mut self.chunks[index];
        chunk.next = NO_CHUNK;
        chunk.items.push(Some(item));
        let bucket = &mut self.slots[slot];
        match self.chunks.get_mut(bucket.newest) {
            Some(newest) => newest.next = index,
            None => bucket.oldest = index,
        }
        bucket.newest = index;
    }

    /// Moves the cursor to bucket `to` (within the ring, or the earliest
    /// overflow event's), files the overflow events the new horizon reaches
    /// and gathers the new cursor bucket.
    fn advance(&mut self, to: u64) {
        self.cursor = to;
        while let Some(Reverse(first)) = self.overflow.peek() {
            // Every overflow event is at or beyond the old horizon, so at
            // or after the new cursor.
            let bucket = first.0.at() / self.width;
            if bucket - self.cursor >= SLOTS as u64 {
                break;
            }
            let Some(Reverse(ByKey(item))) = self.overflow.pop() else {
                unreachable!("peek() just returned an item")
            };
            self.file(slot_of(bucket), item);
        }
        self.gather(slot_of(to));
    }

    /// Moves the events of bucket `slot`, the cursor's and not empty, into
    /// `current` (empty) in descending `(at, seq)` order; see
    /// [how a bucket is ordered](self#how-a-bucket-is-ordered). The bucket's
    /// chunks go to the front of the free list, its oldest first.
    fn gather(&mut self, slot: usize) {
        debug_assert!(self.current.is_empty());
        let bucket = std::mem::replace(&mut self.slots[slot], EMPTY);
        // Every event of the bucket is at or after its lower edge, so
        // neither this nor the offsets below can overflow.
        let bucket_start = self.cursor * self.width;
        let keys = &mut self.keys.keys;
        keys.clear();
        let mut index = bucket.oldest;
        while let Some(chunk) = self.chunks.get(index) {
            // `index < MAX_CHUNKS`, so every place fits 32 bits.
            let base = index * CHUNK;
            keys.extend(chunk.items.iter().enumerate().map(|(offset, item)| {
                let Some(item) = item else {
                    unreachable!("a queued chunk holds only events")
                };
                (item.at() - bucket_start) << 32 | (base + offset) as u64
            }));
            index = chunk.next;
        }
        self.keys.sort(radix_passes(self.width));
        self.current.reserve(self.keys.keys.len());
        for &key in self.keys.keys.iter().rev() {
            // The key's lower half.
            #[allow(clippy::cast_possible_truncation)]
            let place = key as u32 as usize;
            let Some(item) = self.chunks[place / CHUNK].items[place % CHUNK].take() else {
                unreachable!("every key names a different event")
            };
            self.current.push(ByKey(item));
        }
        let mut index = bucket.oldest;
        loop {
            let chunk = &mut self.chunks[index];
            chunk.items.clear();
            if chunk.next == NO_CHUNK {
                chunk.next = self.free;
                break;
            }
            index = chunk.next;
        }
        self.free = bucket.oldest;
    }

    /// Advances the cursor until the next event is reachable from the
    /// cursor bucket or the incoming heap (or the wheel is empty).
    fn ensure_ready(&mut self) {
        if !self.current.is_empty() || !self.incoming.is_empty() {
            return;
        }
        let cursor_slot = slot_of(self.cursor);
        let ahead = (1..SLOTS).find(|&d| self.slots[(cursor_slot + d) % SLOTS].oldest != NO_CHUNK);
        let to = match (ahead, self.overflow.peek()) {
            (Some(d), _) => self.cursor + d as u64,
            // The ring has drained: jump to the earliest overflow event.
            (None, Some(Reverse(first))) => first.0.at() / self.width,
            (None, None) => return,
        };
        self.advance(to);
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
            let Some(ByKey(item)) = self.current.pop() else {
                unreachable!("last() just returned an item")
            };
            item
        } else {
            let Some(Reverse(ByKey(item))) = self.incoming.pop() else {
                unreachable!("peek() just returned an item")
            };
            item
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

    /// Capacity of the key buffers, in keys (test hook).
    #[cfg(test)]
    pub(crate) fn key_capacity(&self) -> usize {
        self.keys.capacity()
    }

    /// Events pushed into the overflow heap since the wheel was made (test
    /// hook).
    #[cfg(test)]
    pub(crate) fn overflow_pushes(&self) -> usize {
        self.overflow_pushes
    }

    /// Total retained item capacity across chunks, `current`, the key
    /// buffers and the heaps (test hook for the capacity regression suite).
    #[cfg(test)]
    pub(crate) fn retained_capacity(&self) -> usize {
        self.chunks
            .iter()
            .map(|chunk| chunk.items.capacity())
            .sum::<usize>()
            + self.current.capacity()
            + self.keys.capacity()
            + self.incoming.capacity()
            + self.overflow.capacity()
    }
}

/// An open bulk-push session on a [`TimeWheel`]; see [`TimeWheel::bulk`].
///
/// Holds the wheel exclusively for its lifetime, so the cursor read at
/// open time stays valid for every push in the burst. Dropping the session
/// ends it; there is nothing to flush, since every push lands in its final
/// structure immediately.
#[derive(Debug)]
pub(crate) struct BulkPush<'a, T> {
    /// The wheel being pushed into.
    wheel: &'a mut TimeWheel<T>,
    /// The wheel's cursor, hoisted out of the per-push path (invariant
    /// while the session holds the wheel).
    cursor: u64,
}

impl<T: WheelItem> BulkPush<'_, T> {
    /// Schedules `item`; equivalent to [`TimeWheel::push`].
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        self.wheel.len += 1;
        self.wheel.peak_len = self.wheel.peak_len.max(self.wheel.len);
        #[cfg(debug_assertions)]
        self.wheel.shadow.push(Reverse(item.key()));
        self.wheel.route(item, self.cursor);
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
        // Far beyond the ring's horizon, and one in the last bucket of all,
        // at `u64::MAX`.
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
    /// one time, so they share a bucket however the ring is aligned. At
    /// `far` sits a cluster that the overflow heap spills more than a chunk
    /// of into a single bucket: one event in the bucket the cursor jumps
    /// to once the ring has drained, the rest one bucket later.
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

        // The last bucket of all: events at `SimTime::MAX` reach it through
        // the overflow heap, and pushed while it drains, through the
        // incoming heap.
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
        // Drain a little so both wheels are mid-ring, draining a sorted
        // cursor bucket, before the burst arrives.
        for _ in 0..50 {
            assert_eq!(single.pop(), bulk.pop());
        }
        // The burst also fills buckets exactly to the chunk boundaries (no
        // other event is that late), spills more than a chunk out of the
        // overflow heap into one bucket, and ends in the last bucket of
        // all, at `SimTime::MAX`.
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
    /// chunks plus one partly filled per bucket), every event in `current`,
    /// in each key buffer and in each heap, those five grown by doubling.
    fn capacity_bound(peak: usize) -> usize {
        (peak.div_ceil(CHUNK) + SLOTS) * CHUNK + 5 * 2 * peak.max(WHEEL_RETAIN_FLOOR)
    }

    #[test]
    fn reset_clamps_capacity_after_a_large_trial() {
        // Grow-then-shrink-then-grow: a large trial's clear retains its
        // capacity for reuse (the peak matches the demand), but the clear
        // after a subsequent small trial must release it — otherwise one
        // 10⁶-node trial pins hundreds of megabytes in the arena pool for
        // the rest of the process. The large trial also gathers a bucket of
        // 40 000 events, so the key buffers and `current` are that large
        // too, and must shrink with the rest.
        let mut wheel = TimeWheel::empty();
        wheel.reset(width_for(1050));
        let large = 1_000_000usize;
        for seq in 0..large {
            let seq = seq as u64;
            wheel.push((WIDTH + seq % 400, seq));
        }
        // Bucket 0 is the cursor's, whose events take the incoming heap;
        // the first pop gathers bucket 1.
        assert_eq!(wheel.pop(), Some((WIDTH, 0)));
        // Bucket 1 holds `WIDTH` of the 400 times, each `large / 400` times.
        let big_bucket = large / 400 * 16;
        assert_eq!(WIDTH, 16);
        assert!(wheel.key_capacity() >= 2 * big_bucket);
        wheel.clear();
        let after_large = wheel.retained_capacity();
        let bound = capacity_bound(1000) * WHEEL_CLAMP_FACTOR;
        assert!(
            after_large >= large + 3 * big_bucket,
            "large-trial capacity should be retained for reuse, got {after_large}"
        );
        assert!(
            wheel.key_capacity() >= 2 * big_bucket,
            "the key buffers shrank"
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
        assert!(
            wheel.key_capacity() <= 2 * 1000 * WHEEL_CLAMP_FACTOR,
            "one large trial pinned {} keys of capacity",
            wheel.key_capacity()
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
        // Draining adds the buffers that order a bucket, sized for the
        // fullest one.
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
        // (11 444 items of capacity here: 7 424 in chunks, 2 586 in the key
        // buffers, 1 434 in `current`; per-bucket buffers: 236 032).
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
        // trial on a cleared and re-armed wheel finds every chunk it needs.
        // Three far-future events make the cursor jump across the drained
        // ring in every trial as well.
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

    /// An event of another type than `(SimTime, u64)`, for a wheel that
    /// borrows another wheel's key buffers.
    #[derive(Debug, PartialEq)]
    struct Tagged(SimTime, u64, u32);

    impl WheelItem for Tagged {
        fn key(&self) -> (SimTime, u64) {
            (self.0, self.1)
        }
    }

    #[test]
    fn a_repeated_trial_allocates_no_key_buffer() {
        // The key buffers grow to the fullest bucket of the first trial and
        // survive the clear and re-arming reset between trials, so an
        // identical trial sorts in them without growing them — and so does
        // a wheel of another event type that borrows them, as a pooled
        // arena lends them across a protocol switch. The width takes two
        // radix passes, so both buffers are used.
        const WIDE: SimTime = 1000;
        let schedule = |trial: u64| {
            // Occupancy falls from bucket to bucket; offsets spread over
            // the whole width.
            let mut seq = 0;
            let mut events = Vec::new();
            for slot in 1..=20u64 {
                for i in 0..(21 - slot) * 100 {
                    events.push((slot * WIDE + (i * 7919 + trial) % WIDE, seq));
                    seq += 1;
                }
            }
            events
        };
        let fullest = 2000;
        let mut wheel = TimeWheel::empty();
        let mut after_first = 0;
        for trial in 0..6 {
            wheel.reset(WIDE);
            for event in schedule(trial) {
                wheel.push(event);
            }
            drain_sorted(&mut wheel);
            wheel.clear();
            if trial == 0 {
                after_first = wheel.key_capacity();
                assert!(after_first >= 2 * fullest);
                assert!(after_first <= 2 * 2 * fullest);
            }
            assert_eq!(
                wheel.key_capacity(),
                after_first,
                "trial {trial} grew the keys"
            );
        }
        let mut other: TimeWheel<Tagged> = TimeWheel::empty();
        other.lend_keys(wheel.take_keys());
        assert_eq!(wheel.key_capacity(), 0);
        other.reset(WIDE);
        for (at, seq) in schedule(6) {
            other.push(Tagged(at, seq, 0));
        }
        let mut last = None;
        while let Some(Tagged(at, seq, _)) = other.pop() {
            assert!(last < Some((at, seq)), "pop order went backwards");
            last = Some((at, seq));
        }
        assert_eq!(other.key_capacity(), after_first);
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
    fn radix_passes_follow_the_bits_of_the_widest_offset() {
        assert_eq!(radix_passes(1), 0);
        assert_eq!(radix_passes(2), 1);
        for k in [8u32, 16, 24] {
            assert_eq!(radix_passes((1 << k) - 1), k / 8);
            assert_eq!(radix_passes(1 << k), k / 8);
            assert_eq!(radix_passes((1 << k) + 1), k / 8 + 1);
        }
        assert_eq!(radix_passes(MAX_WIDTH), 4);
        assert_eq!(radix_passes(width_for(1_050_000)), 2);
        // Wider buckets are capped, so offsets keep to the upper half.
        let mut wheel = TimeWheel::<(SimTime, u64)>::empty();
        wheel.reset(SimTime::MAX);
        assert_eq!(wheel.width, MAX_WIDTH);
    }

    #[test]
    fn equal_times_pop_in_seq_order_across_spilled_and_pushed_events() {
        // The invariant the radix relies on: within a bucket, events of
        // one `at` sit oldest-first in `seq` order, whether the overflow
        // heap spilled them or they were pushed directly afterwards. One
        // bucket holds more than two chunks of events at one time — half
        // spilled, half pushed after the spill — around events at the
        // bucket's first and last microsecond. Checked against a
        // `BinaryHeap` pop by pop, so it also holds without the debug
        // shadow heap.
        const W: SimTime = 300;
        let far = 10_000_000;
        let (first, last) = (far + W, far + 2 * W - 1);
        let shared = far + W + 137;
        let mut wheel = TimeWheel::empty();
        wheel.reset(W);
        let mut reference = BinaryHeap::new();
        let mut seq = 0;
        let mut push = |wheel: &mut TimeWheel<_>, reference: &mut BinaryHeap<_>, at| {
            wheel.push((at, seq));
            reference.push(Reverse((at, seq)));
            seq += 1;
        };
        push(&mut wheel, &mut reference, 5);
        // Beyond the horizon: once the ring has drained, the cursor jumps
        // to `far`'s bucket, and the rest spill into the bucket after it.
        push(&mut wheel, &mut reference, far);
        for i in 0..CHUNK + 7 {
            push(
                &mut wheel,
                &mut reference,
                [shared, last, shared, first][i % 4],
            );
        }
        assert_eq!(wheel.pop(), Some((5, 0)));
        assert_eq!(wheel.pop(), Some((far, 1)));
        reference.pop();
        reference.pop();
        // The spill has happened; these land behind the spilled events.
        for i in 0..CHUNK + 9 {
            push(
                &mut wheel,
                &mut reference,
                [shared, first, shared, last, shared][i % 5],
            );
        }
        let mut popped = 0;
        while let Some(Reverse(expected)) = reference.pop() {
            assert_eq!(
                wheel.pop(),
                Some(expected),
                "pop {popped} diverged from the heap"
            );
            popped += 1;
        }
        assert_eq!(wheel.pop(), None);
        assert_eq!(popped, 2 * CHUNK + 16);
    }

    /// A wheel beside a `BinaryHeap` of the same keys: each push goes to
    /// both, numbered in push order, and each pop must return what the heap
    /// does — so the check holds without the debug shadow heap too.
    struct Lockstep {
        wheel: TimeWheel<(SimTime, u64)>,
        reference: BinaryHeap<Reverse<(SimTime, u64)>>,
        seq: u64,
    }

    impl Lockstep {
        fn new(width: SimTime) -> Self {
            let mut wheel = TimeWheel::empty();
            wheel.reset(width);
            Self {
                wheel,
                reference: BinaryHeap::new(),
                seq: 0,
            }
        }

        fn push(&mut self, at: SimTime) {
            self.wheel.push((at, self.seq));
            self.reference.push(Reverse((at, self.seq)));
            self.seq += 1;
        }

        /// Pops one event from both and returns its time.
        fn pop(&mut self) -> Option<SimTime> {
            let expected = self.reference.pop().map(|Reverse(key)| key);
            assert_eq!(
                self.wheel.pop(),
                expected,
                "the wheel diverged from the heap"
            );
            expected.map(|(at, _)| at)
        }

        /// Pops everything, returning how many events there were.
        fn drain(&mut self) -> usize {
            let mut popped = 0;
            while self.pop().is_some() {
                popped += 1;
            }
            assert_eq!(self.wheel.len(), 0);
            popped
        }
    }

    #[test]
    fn deliveries_up_to_the_model_bound_never_overflow() {
        // Every delay from zero to the model bound, each scheduled from
        // wherever in its bucket the clock happens to be, while the ring
        // turns more than three times: each lands at most 65 buckets
        // ahead, inside the ring, and none passes through the overflow
        // heap. A long timer beside them does, once.
        let max_delay = 6400;
        let width = width_for(max_delay);
        let ring = SLOTS as SimTime * width;
        let mut run = Lockstep::new(width);
        let mut delays = 0..=max_delay;
        for delay in delays.by_ref().take(64) {
            run.push(delay);
        }
        let mut now = 0;
        while let Some(at) = run.pop() {
            now = at;
            if let Some(delay) = delays.next() {
                run.push(now + delay);
            } else if now < 3 * ring {
                run.push(now + max_delay);
            }
        }
        assert!(
            now >= 3 * ring,
            "the run ended at {now}, before three wraps"
        );
        assert_eq!(run.wheel.overflow_pushes(), 0);
        run.push(now + ring);
        assert_eq!(run.wheel.overflow_pushes(), 1);
        assert_eq!(run.drain(), 1);
    }

    #[test]
    fn a_spill_as_the_cursor_steps_precedes_direct_pushes_at_the_same_time() {
        // Bucket 300 is beyond the horizon of cursor 0, so more than a
        // chunk of events there, some at one time, go to the overflow heap.
        // A chain of events ten buckets apart steps the cursor without the
        // ring ever draining; the step to bucket 50 brings bucket 300 into
        // the ring, and its events move into it. Pushed after that, events
        // at the same times go straight into the bucket, behind the moved
        // ones, as their `seq` demands. Several wraps of the ring later the
        // chain stops.
        const W: SimTime = 10;
        let far = 300 * W + 5;
        let times = [far, 300 * W, far, 301 * W - 1];
        let mut run = Lockstep::new(W);
        for i in 0..CHUNK + 3 {
            run.push(times[i % 4]);
        }
        assert_eq!(run.wheel.overflow_pushes(), CHUNK + 3);
        run.push(10 * W);
        let mut chain_at = 10 * W;
        let mut pushed_after_spill = false;
        while let Some(at) = run.pop() {
            if at == chain_at && at < 5 * SLOTS as SimTime * W {
                chain_at = at + 10 * W;
                run.push(chain_at);
            }
            if !pushed_after_spill && run.wheel.cursor >= 50 {
                assert!(run.wheel.overflow.is_empty(), "bucket 300 was not spilled");
                assert!(run.wheel.cursor < 300);
                for i in 0..CHUNK + 5 {
                    run.push(times[(i + 1) % 4]);
                }
                pushed_after_spill = true;
            }
        }
        assert!(pushed_after_spill);
        assert_eq!(run.wheel.overflow_pushes(), CHUNK + 3);
        assert!(chain_at >= 5 * SLOTS as SimTime * W);
    }

    #[test]
    fn a_jump_across_an_empty_ring_lands_on_a_far_overflow_event() {
        // Once the ring drains, the cursor jumps ten wraps ahead to the
        // earliest overflow event, whose bucket shares the old cursor's
        // slot. The jump moves in the overflow events the new horizon
        // reaches — two in the ring's last bucket — and leaves the one a
        // bucket beyond it, which shares a slot with the new cursor. Pushes
        // after the jump land beside all of them: in the cursor bucket
        // through the incoming heap, in the ring directly, and a bucket
        // beyond it through the overflow heap.
        const W: SimTime = 10;
        let mut run = Lockstep::new(W);
        run.push(15);
        run.push(2 * W + 7);
        assert_eq!(run.pop(), Some(15));
        assert_eq!(run.pop(), Some(2 * W + 7));
        assert_eq!(run.wheel.cursor, 2);
        let target = 2 + 10 * SLOTS as u64;
        let last = target + SLOTS as u64 - 1;
        let beyond = last + 1;
        for bucket in [beyond, last, target, target, last] {
            run.push(bucket * W + 3);
        }
        assert_eq!(run.wheel.overflow_pushes(), 5);
        assert_eq!(run.pop(), Some(target * W + 3));
        assert_eq!(run.wheel.cursor, target);
        assert_eq!(run.wheel.overflow.len(), 1, "only the bucket beyond waits");
        for bucket in [target, target + 1, last, beyond] {
            run.push(bucket * W + 3);
        }
        assert_eq!(run.wheel.overflow_pushes(), 6);
        assert_eq!(run.drain(), 8);
    }

    #[test]
    fn the_last_bucket_before_simtime_max_pops_in_order() {
        // From cursor 0 the last buckets of all are far beyond the horizon:
        // the ring drains, the cursor jumps to the earliest of them, and
        // `SimTime::MAX`'s bucket — whose upper edge is past the end of
        // time when the width does not divide it — fills through the
        // overflow heap, then through direct pushes, then, while it is the
        // cursor's, through the incoming heap.
        for width in [1, 7, 10, MAX_WIDTH] {
            let mut run = Lockstep::new(width);
            run.push(5);
            for at in [SimTime::MAX, SimTime::MAX - 1, SimTime::MAX - 2 * width] {
                for _ in 0..CHUNK / 2 + 1 {
                    run.push(at);
                }
            }
            assert_eq!(run.pop(), Some(5));
            assert_eq!(run.pop(), Some(SimTime::MAX - 2 * width));
            for _ in 0..CHUNK {
                run.push(SimTime::MAX);
                run.push(SimTime::MAX - 1);
            }
            while run.pop().expect("events up to the end of time") != SimTime::MAX {}
            assert_eq!(run.wheel.cursor, SimTime::MAX / width);
            for _ in 0..CHUNK + 1 {
                run.push(SimTime::MAX);
            }
            assert!(run.drain() > 2 * CHUNK, "width {width}");
        }
    }

    #[test]
    fn random_push_pop_matches_a_binary_heap_at_every_pass_count() {
        // Widths at the edges where the number of radix passes changes,
        // with offsets spread over the whole width and many events sharing
        // a time; every pop is checked against a `BinaryHeap`.
        let mut widths = vec![1, 2];
        for k in [8u32, 16, 24, 32] {
            widths.extend([(1 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        for (round, width) in widths.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(round as u64);
            let mut wheel = TimeWheel::empty();
            wheel.reset(width);
            let mut reference = BinaryHeap::new();
            let mut seq = 0u64;
            let delay = |rng: &mut StdRng| match rng.gen_range(0..10) {
                // A handful of shared times, a spread over a few buckets,
                // and a long timer past the horizon.
                0..=3 => width * rng.gen_range(1..4) + rng.gen_range(0..3),
                4..=8 => rng.gen_range(1..width.saturating_mul(6)),
                _ => width * SLOTS as SimTime * rng.gen_range(1..3) + rng.gen_range(0..width),
            };
            for _ in 0..300 {
                let at = delay(&mut rng);
                wheel.push((at, seq));
                reference.push(Reverse((at, seq)));
                seq += 1;
            }
            let mut popped = 0;
            while let Some(Reverse(expected)) = reference.pop() {
                assert_eq!(wheel.pop(), Some(expected), "width {width}, pop {popped}");
                let now = expected.0;
                popped += 1;
                if seq < 3000 {
                    for _ in 0..rng.gen_range(0..3) {
                        let at = now + delay(&mut rng);
                        wheel.push((at, seq));
                        reference.push(Reverse((at, seq)));
                        seq += 1;
                    }
                }
            }
            assert_eq!(wheel.pop(), None, "width {width}");
            assert_eq!(popped, seq);
            assert!(seq >= 3000);
        }
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
