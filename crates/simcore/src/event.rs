//! Deterministic future-event list.

use std::collections::VecDeque;

use crate::error::ConfigError;
use crate::SimTime;

/// A pending event: payload plus firing time plus insertion sequence.
struct Scheduled<E> {
    when: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Scheduled<E> {
    /// Events order by `(when, seq)`: nondecreasing time, FIFO among
    /// ties. Smaller keys pop first.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.when, self.seq)
    }
}

/// Pending-event depth at which new inserts that miss the epoch buffer
/// route to the calendar wheel instead of the heap.
///
/// Tuned from the steady-state occupancy sweep (spread timestamps, pop +
/// reschedule): the heap wins clearly below depth 8 (31M vs 25M events/s
/// at 8), the wheel wins clearly from 16 up (29M vs 23M at 16, 35M vs
/// 15M at 64) and its cost stays flat with depth, and the band in
/// between is a tie within noise (27M vs 26M at 11). The threshold sits
/// at the bottom of the tie band, which keeps short chains on the
/// small-n-optimal heap. Traced perfbench runs at `--seed 3 --seconds 2`
/// show how little of the real traffic reaches it: `max_depth` 11, 5 and
/// 83, and a calendar share of the scheduled events of 7.7e-5, 0 and
/// 0.094, on platform-grid, design-sweep and traffic-what-if. Only the
/// open loop's queues under traffic packs ride the wheel for long
/// (perfsmoke asserts `queue.calendar_hits > 0` on its sweep bundle, so
/// the routing cannot go dead unnoticed).
pub const AUTO_WHEEL_MIN_DEPTH: usize = 10;

const WHEEL_BITS: u32 = 6;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS; // 64
const WHEEL_LEVELS: usize = 6;
/// log2 of the wheel horizon: 2^36 ns ≈ 68.7 simulated seconds ahead of
/// the wheel base. Events beyond it overflow to the heap lane.
const WHEEL_RANGE_BITS: u32 = WHEEL_BITS * WHEEL_LEVELS as u32; // 36

/// One bucketed event inside the timing wheel.
struct WheelEntry<E> {
    when: SimTime,
    seq: u64,
    payload: E,
}

/// Hierarchical timing wheel: [`WHEEL_LEVELS`] levels of
/// [`WHEEL_SLOTS`] buckets, level `l` slots spanning `2^(6l)` ns.
///
/// Invariants (all relative to `base`, the wheel's reference instant):
///
/// * An entry at `when` lives at the level of the highest differing
///   6-bit group of `when ^ base`, in the slot indexed by `when`'s bits
///   at that level. Entries therefore require `when >= base` and
///   `(when ^ base) >> 36 == 0` (see [`accepts`](Wheel::accepts)).
/// * Every level-0 slot holds exactly one timestamp, so draining it
///   front-to-back is FIFO delivery for that instant with zero sorting.
/// * All level-`l` entries fire before all level-`l+1` entries, and
///   within a level, slot index orders firing time — so the lowest
///   occupied slot of the lowest occupied level always holds the
///   minimum.
/// * Within any slot, entries are `seq`-ascending: slots are append-only
///   and a cascade redistributes a slot (itself seq-ascending per
///   timestamp) only into empty lower-level slots.
///
/// `base` only advances (monotonically) when a cascade promotes a
/// higher-level slot down, zeroing the lower groups; inserts that land
/// below the advanced `base` are the caller's job to route to the
/// overflow heap.
struct Wheel<E> {
    base: u64,
    len: usize,
    /// Per-level occupancy bitmap; bit `s` set iff slot `s` is non-empty.
    occ: [u64; WHEEL_LEVELS],
    /// Flat `WHEEL_LEVELS * WHEEL_SLOTS` slot array (empty until the
    /// first insert, so heap-only queues pay nothing).
    slots: Vec<VecDeque<WheelEntry<E>>>,
    /// Reusable scratch for cascades: keeps redistribution allocation-free
    /// after warmup.
    spare: VecDeque<WheelEntry<E>>,
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            base: 0,
            len: 0,
            occ: [0; WHEEL_LEVELS],
            slots: Vec::new(),
            spare: VecDeque::new(),
        }
    }

    /// True when `when_ns` can be bucketed relative to the current base:
    /// not below it, and within the `2^36` ns horizon (checked as "no
    /// differing bit groups above level 5", which also catches carries).
    #[inline]
    fn accepts(&self, when_ns: u64) -> bool {
        when_ns >= self.base && (when_ns ^ self.base) >> WHEEL_RANGE_BITS == 0
    }

    /// Re-anchors an empty wheel at the current clock so long simulations
    /// never outrun the horizon.
    #[inline]
    fn rebase(&mut self, now_ns: u64) {
        debug_assert_eq!(self.len, 0);
        self.base = now_ns;
    }

    /// (level, slot) for an accepted timestamp.
    #[inline]
    fn level_slot(&self, when_ns: u64) -> (usize, usize) {
        let diff = when_ns ^ self.base;
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / WHEEL_BITS) as usize
        };
        let slot = ((when_ns >> (WHEEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Buckets one entry. Caller must have checked [`accepts`](Self::accepts).
    fn insert(&mut self, when: SimTime, seq: u64, payload: E) {
        if self.slots.is_empty() {
            self.slots
                .resize_with(WHEEL_LEVELS * WHEEL_SLOTS, VecDeque::new);
        }
        let (level, slot) = self.level_slot(when.as_nanos());
        self.occ[level] |= 1 << slot;
        self.slots[level * WHEEL_SLOTS + slot].push_back(WheelEntry { when, seq, payload });
        self.len += 1;
    }

    /// Cascades until the minimum entry sits in a level-0 slot. Each
    /// round promotes the earliest occupied slot of the lowest occupied
    /// level, advancing `base` to that slot's window; every entry then
    /// re-buckets at a strictly lower level, so at most
    /// `WHEEL_LEVELS - 1` rounds run. No-op when level 0 is already
    /// occupied or the wheel is empty.
    fn prepare_min(&mut self) {
        while self.len > 0 && self.occ[0] == 0 {
            let level = (1..WHEEL_LEVELS)
                .find(|&l| self.occ[l] != 0)
                .expect("non-empty wheel has an occupied level");
            let slot = self.occ[level].trailing_zeros() as usize;
            self.occ[level] &= !(1 << slot);
            debug_assert!(self.spare.is_empty());
            std::mem::swap(&mut self.spare, &mut self.slots[level * WHEEL_SLOTS + slot]);
            // The promoted slot's window becomes the new base: groups
            // above `level` unchanged, group `level` pinned to the slot,
            // groups below zeroed. Monotonic: the old base's group at
            // `level` was smaller (entries require `when >= base` and
            // agree with base above `level`).
            let low_mask = (1u64 << (WHEEL_BITS * (level as u32 + 1))) - 1;
            self.base = (self.base & !low_mask) | ((slot as u64) << (WHEEL_BITS * level as u32));
            while let Some(e) = self.spare.pop_front() {
                let (l, s) = self.level_slot(e.when.as_nanos());
                debug_assert!(l < level, "cascade must strictly lower the level");
                self.occ[l] |= 1 << s;
                self.slots[l * WHEEL_SLOTS + s].push_back(e);
            }
        }
    }

    /// Key of the earliest entry; only valid after
    /// [`prepare_min`](Self::prepare_min) (level 0 occupied).
    #[inline]
    fn front_key(&self) -> Option<(SimTime, u64)> {
        if self.occ[0] == 0 {
            return None;
        }
        let slot = self.occ[0].trailing_zeros() as usize;
        self.slots[slot].front().map(|e| (e.when, e.seq))
    }

    /// Pops the earliest entry; only valid after `prepare_min`.
    fn pop_front(&mut self) -> WheelEntry<E> {
        let slot = self.occ[0].trailing_zeros() as usize;
        let e = self.slots[slot].pop_front().expect("occupied slot");
        if self.slots[slot].is_empty() {
            self.occ[0] &= !(1 << slot);
        }
        self.len -= 1;
        e
    }

    fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for s in &mut self.slots {
            s.clear();
        }
        self.occ = [0; WHEEL_LEVELS];
        self.len = 0;
    }
}

/// A future-event list: the core of every discrete-event simulator in this
/// workspace.
///
/// Events pop in nondecreasing time order. Events scheduled for the same
/// instant pop in the order they were scheduled (FIFO), which keeps
/// simulations deterministic regardless of scheduler internals.
///
/// Internally the queue runs three lanes, all totally ordered by
/// `(when, seq)` so any event may live in any lane without affecting pop
/// order (see `DESIGN.md` §11 for the full argument):
///
/// * **Epoch buffer (front lane)** — a FIFO holding events for a single
///   epoch `imm_time`. An empty buffer adopts the next scheduled event's
///   timestamp as its epoch, and while it is non-empty every schedule at
///   exactly `imm_time` appends to it. Ordering is unaffected: a lane
///   entry at `imm_time` was necessarily scheduled before every current
///   buffer entry (while the buffer is non-empty, same-epoch events are
///   routed to the buffer, never the lanes), so the pop path drains lane
///   entries at `imm_time` before touching the buffer. Two real
///   scheduling patterns ride this buffer with zero comparisons, counted
///   by the `fast_path` statistic: runs of events landing on *one shared
///   instant* (identical batch tasks, fixed retry timeouts), and the
///   *pure event chain* — pop one event, schedule its successor, repeat.
/// * **Calendar wheel** — a hierarchical timing wheel taking lane inserts
///   once the queue is [`AUTO_WHEEL_MIN_DEPTH`] events deep
///   (6 levels × 64 slots, 1 ns granularity, `2^36` ns horizon) that
///   buckets events by timestamp: O(1) insert, cascade-amortized O(1)
///   pop, and same-instant events land in one level-0 slot in FIFO
///   order, so each pops off the slot's front with no comparison.
/// * **Heap** — the indexed 4-ary min-heap. It takes every lane insert
///   while fewer than [`AUTO_WHEEL_MIN_DEPTH`] events are pending (where
///   sift costs are trivial and the wheel's fixed overheads are not
///   amortized), and serves as the wheel's overflow lane for events the
///   wheel cannot bucket (beyond its horizon, or below its advanced
///   base).
///
/// [`with_capacity`](EventQueue::with_capacity) pre-sizes the heap arena
/// so steady-state runs never reallocate.
pub struct EventQueue<E> {
    /// 4-ary min-heap on `(when, seq)`: the shallow-queue lane and the
    /// wheel's overflow lane.
    heap: Vec<Scheduled<E>>,
    /// Hierarchical timing wheel (unallocated until the queue first runs
    /// deep).
    wheel: Wheel<E>,
    /// FIFO of events all firing at the shared epoch `imm_time`. Every
    /// entry was sequenced after every lane entry with `when ==
    /// imm_time`, so draining the lanes' `imm_time` entries first
    /// preserves global FIFO order.
    immediate: VecDeque<E>,
    /// The epoch of the `immediate` buffer; meaningful only while the
    /// buffer is non-empty. Always `>= now` then (the pop path never
    /// advances the clock past a pending buffer).
    imm_time: SimTime,
    next_seq: u64,
    now: SimTime,
    /// Schedules that took an O(1) buffer path with no lane comparison:
    /// same-epoch appends, plus adoptions while the lanes were empty.
    fast_path: u64,
    /// Non-buffer schedules bucketed into the calendar wheel.
    calendar_hits: u64,
    /// Non-buffer schedules the wheel refused (outside its horizon or
    /// below its base) that fell back to the heap lane.
    heap_fallbacks: u64,
    /// Largest pending-event count ever reached.
    max_depth: u64,
}

/// Occupancy counters of an [`EventQueue`], exported to the
/// observability layer after a run. Derived purely from the simulated
/// event stream, so the values are bit-identical for identical runs at
/// any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueObs {
    /// Events scheduled over the queue's lifetime.
    pub scheduled: u64,
    /// Schedules that bypassed the ordering lanes through the epoch
    /// buffer with zero comparisons: same-instant appends at the
    /// buffer's epoch, and epoch adoptions while the lanes were empty
    /// (the pure pop-schedule chain of a single-client probe or a drain
    /// tail).
    pub fast_path: u64,
    /// Schedules bucketed into the calendar wheel lane.
    pub calendar_hits: u64,
    /// Schedules the wheel refused that fell back to the overflow heap.
    pub heap_fallbacks: u64,
    /// High-water mark of pending events.
    pub max_depth: u64,
}

impl QueueObs {
    /// Component-wise accumulation (sums, max for the high-water mark) —
    /// commutative and associative, like every obs merge.
    #[must_use]
    pub fn merged(&self, other: &QueueObs) -> QueueObs {
        QueueObs {
            scheduled: self.scheduled + other.scheduled,
            fast_path: self.fast_path + other.fast_path,
            calendar_hits: self.calendar_hits + other.calendar_hits,
            heap_fallbacks: self.heap_fallbacks + other.heap_fallbacks,
            max_depth: self.max_depth.max(other.max_depth),
        }
    }

    /// Records this queue's counters into `registry` under the standard
    /// `queue.*` names.
    pub fn export(&self, registry: &crate::obs::Registry) {
        registry.counter("queue.scheduled").add(self.scheduled);
        registry.counter("queue.fast_path").add(self.fast_path);
        registry
            .counter("queue.calendar_hits")
            .add(self.calendar_hits);
        registry
            .counter("queue.heap_fallbacks")
            .add(self.heap_fallbacks);
        registry
            .max_gauge("queue.max_depth")
            .observe(self.max_depth);
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

const ARITY: usize = 4;

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` pending events, so
    /// a steady-state simulation never reallocates the event arena.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            wheel: Wheel::new(),
            immediate: VecDeque::new(),
            imm_time: SimTime::ZERO,
            next_seq: 0,
            now: SimTime::ZERO,
            fast_path: 0,
            calendar_hits: 0,
            heap_fallbacks: 0,
            max_depth: 0,
        }
    }

    /// The instant of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True when both ordering lanes are empty (the epoch buffer may
    /// still hold events). Independent of how the lanes split their
    /// events, so `fast_path` depends only on the event stream.
    #[inline]
    fn lanes_empty(&self) -> bool {
        self.heap.is_empty() && self.wheel.len == 0
    }

    /// Routes a non-buffer schedule by depth: the heap while the queue is
    /// shallow, the wheel once it is [`AUTO_WHEEL_MIN_DEPTH`] deep (the
    /// heap still taking what the wheel cannot bucket).
    #[inline]
    fn push_lane(&mut self, when: SimTime, seq: u64, payload: E) {
        if self.len() >= AUTO_WHEEL_MIN_DEPTH {
            if self.wheel.len == 0 {
                self.wheel.rebase(self.now.as_nanos());
            }
            if self.wheel.accepts(when.as_nanos()) {
                self.wheel.insert(when, seq, payload);
                self.calendar_hits += 1;
                return;
            }
            self.heap_fallbacks += 1;
        }
        self.heap.push(Scheduled { when, seq, payload });
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedules `payload` to fire at `when`, rejecting events in the
    /// past.
    ///
    /// # Errors
    /// Returns [`ConfigError::PastEvent`] when `when` is before the
    /// current clock — scheduling into the past is always a simulator
    /// bug, but library callers driving a queue from external input can
    /// surface it gracefully instead of panicking.
    pub fn try_schedule(&mut self, when: SimTime, payload: E) -> Result<(), ConfigError> {
        if when < self.now {
            return Err(ConfigError::PastEvent {
                when_ns: when.as_nanos(),
                now_ns: self.now.as_nanos(),
            });
        }
        self.next_seq += 1;
        if self.immediate.is_empty() {
            // An empty buffer adopts this event's timestamp as the new
            // epoch: an O(1) append with no sift. With the lanes also
            // empty this is the pure event-chain mode — the whole
            // schedule/pop cycle runs on the deque without a single
            // comparison, so it counts as a fast-path schedule.
            self.imm_time = when;
            self.immediate.push_back(payload);
            if self.lanes_empty() {
                self.fast_path += 1;
            }
        } else if when == self.imm_time {
            // Fast path: fires at the buffer's epoch, after everything
            // already pending for that instant. O(1) instead of a sift.
            self.immediate.push_back(payload);
            self.fast_path += 1;
        } else {
            let seq = self.next_seq;
            self.push_lane(when, seq, payload);
        }
        let depth = self.len() as u64;
        if depth > self.max_depth {
            self.max_depth = depth;
        }
        Ok(())
    }

    /// Occupancy counters accumulated since construction; a pure
    /// function of the simulated event stream.
    pub fn obs_stats(&self) -> QueueObs {
        QueueObs {
            scheduled: self.next_seq,
            fast_path: self.fast_path,
            calendar_hits: self.calendar_hits,
            heap_fallbacks: self.heap_fallbacks,
            max_depth: self.max_depth,
        }
    }

    /// Schedules `payload` to fire at `when`.
    ///
    /// # Panics
    /// Panics if `when` is before the current clock: scheduling into the
    /// past is always a simulator bug. Use
    /// [`try_schedule`](Self::try_schedule) to handle it as a
    /// [`ConfigError`] instead.
    pub fn schedule(&mut self, when: SimTime, payload: E) {
        if let Err(e) = self.try_schedule(when, payload) {
            panic!("{e}");
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// firing time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // Surface the wheel's minimum into a level-0 slot, then take the
        // smaller of the two lane fronts. Lane entries at `when ==
        // imm_time` predate everything in the immediate buffer (while
        // the buffer is non-empty, same-epoch schedules are routed to
        // the buffer), so they pop first; lane entries at earlier times
        // pop first by time order.
        self.wheel.prepare_min();
        let heap_key = self.heap.first().map(|s| s.key());
        let wheel_key = self.wheel.front_key();
        let lane_key = match (heap_key, wheel_key) {
            (Some(h), Some(w)) => Some(h.min(w)),
            (h, w) => h.or(w),
        };
        if !self.immediate.is_empty() && lane_key.is_none_or(|(t, _)| t > self.imm_time) {
            let payload = self.immediate.pop_front().expect("checked non-empty");
            self.now = self.imm_time;
            return Some((self.now, payload));
        }
        let key = lane_key?;
        if wheel_key == Some(key) {
            let e = self.wheel.pop_front();
            debug_assert!(e.when >= self.now);
            self.now = e.when;
            return Some((e.when, e.payload));
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let s = self.heap.pop().expect("checked non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        debug_assert!(s.when >= self.now);
        self.now = s.when;
        Some((s.when, s.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.wheel.len + self.immediate.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lanes_empty() && self.immediate.is_empty()
    }

    /// Drops all pending events, leaving the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.wheel.clear();
        self.immediate.clear();
    }

    /// Moves the entry at `i` toward the root until its parent is no
    /// larger.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Moves the entry at `i` toward the leaves until no child is
    /// smaller.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let last_child = (first_child + ARITY).min(len);
            for c in (first_child + 1)..last_child {
                if self.heap[c].key() < self.heap[best].key() {
                    best = c;
                }
            }
            if self.heap[i].key() <= self.heap[best].key() {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[50u64, 10, 30, 20, 40] {
            q.schedule(SimTime::from_nanos(t), t);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>(), "broke FIFO");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), ());
        q.schedule(SimTime::from_nanos(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(5));
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(9));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), ());
        q.pop();
        q.schedule(SimTime::from_nanos(5), ());
    }

    #[test]
    fn try_schedule_reports_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), 1);
        q.pop();
        let err = q.try_schedule(SimTime::from_nanos(5), 2).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::PastEvent {
                when_ns: 5,
                now_ns: 10
            }
        ));
        // The failed schedule left the queue untouched.
        assert!(q.is_empty());
        assert!(q.try_schedule(SimTime::from_nanos(10), 3).is_ok());
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 3)));
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_nanos(3), 1);
        q.schedule(SimTime::from_nanos(1), 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        for &t in &[9u64, 2, 2, 7, 4, 4, 4, 1] {
            a.schedule(SimTime::from_nanos(t), t);
            b.schedule(SimTime::from_nanos(t), t);
        }
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn same_instant_fast_path_preserves_fifo() {
        // Mix buffered and lane entries at one instant: earlier-scheduled
        // must still pop first, wherever each entry landed internally.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "a"); // starts the epoch buffer
        q.schedule(SimTime::from_nanos(10), "b"); // same epoch: O(1) append
        q.schedule(SimTime::from_nanos(20), "later"); // different time: lane
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
        q.schedule(SimTime::from_nanos(10), "c");
        q.schedule(SimTime::from_nanos(10), "d");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "c")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "d")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fast_path_fires_on_future_time_ties() {
        // Regression: the pre-epoch fast path required `when == now`
        // exactly, which no engine ever does (every stage has positive
        // service time), so the counter sat at zero. A batch of events
        // landing on one *future* timestamp must now take the O(1) path.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(1_000);
        for i in 0..64 {
            q.schedule(t, i);
        }
        assert!(
            q.obs_stats().fast_path > 0,
            "same-epoch schedules must take the fast path"
        );
        // The lanes-empty adoption counts, and so does every follower.
        assert_eq!(q.obs_stats().fast_path, 64);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>(), "FIFO preserved");
    }

    #[test]
    fn pure_event_chain_never_touches_the_lanes() {
        // The dominant single-client pattern: pop the only pending event,
        // schedule its successor at a strictly later (untied) time. The
        // buffer absorbs every schedule with the lanes empty throughout,
        // so each one counts as a fast-path schedule.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(3), 0u64);
        for i in 1..100u64 {
            let (t, e) = q.pop().expect("chain event pending");
            assert_eq!(e, i - 1);
            q.schedule(t + crate::SimDuration::from_nanos(2 * i + 1), i);
        }
        assert_eq!(q.obs_stats().fast_path, 100, "every chain schedule is O(1)");
        // Once a second event makes a lane non-empty, adoption stops
        // counting: ordering work is back on the table.
        q.schedule(SimTime::from_nanos(1 << 40), 1000);
        let (_, e) = q.pop().expect("pending");
        assert_eq!(e, 99);
        q.schedule(SimTime::from_nanos(1 << 41), 1001); // adopts, lane busy
        assert_eq!(
            q.obs_stats().fast_path,
            100,
            "lane-backed adoption is not fast"
        );
    }

    #[test]
    fn epoch_buffer_restart_respects_older_lane_entries() {
        // A lane entry at time T scheduled while the buffer held an
        // earlier epoch must pop before buffer entries from a *restarted*
        // epoch at T.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(5), "early"); // epoch 5
        q.schedule(SimTime::from_nanos(10), "lane@10"); // lane (epoch is 5)
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "early")));
        q.schedule(SimTime::from_nanos(10), "buf@10"); // buffer restarts at 10
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "lane@10")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "buf@10")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn epoch_buffer_matches_reference_model_with_heavy_ties() {
        // Exhaustive order check against a naive (when, seq) reference
        // model, on a tie-heavy interleaved schedule/pop workload — the
        // pattern batch engines and fixed retry timeouts produce.
        let mut rng = crate::SimRng::seed_from(4242);
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (when, seq)
        let mut seq = 0u64;
        let mut fast = 0u64;
        for _ in 0..4000 {
            if rng.chance(0.55) || q.is_empty() {
                // Few distinct offsets => many exact ties, some at `now`.
                let when = q.now().as_nanos() + [0u64, 3, 3, 7][rng.next_u64() as usize % 4];
                q.schedule(SimTime::from_nanos(when), seq);
                model.push((when, seq));
                seq += 1;
            } else {
                let (t, e) = q.pop().unwrap();
                let min = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &k)| k)
                    .map(|(i, _)| i)
                    .unwrap();
                let want = model.remove(min);
                assert_eq!((t.as_nanos(), e), want, "pop order diverged from model");
            }
            fast = q.obs_stats().fast_path;
        }
        while let Some((t, e)) = q.pop() {
            let min = model
                .iter()
                .enumerate()
                .min_by_key(|(_, &k)| k)
                .map(|(i, _)| i)
                .unwrap();
            let want = model.remove(min);
            assert_eq!((t.as_nanos(), e), want, "drain order diverged from model");
        }
        assert!(model.is_empty());
        assert!(fast > 0, "tie-heavy schedule must exercise the fast path");
    }

    #[test]
    fn immediate_buffer_counts_and_clears() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1); // immediate at t = 0
        q.schedule(SimTime::from_nanos(5), 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn randomized_order_matches_reference_sort() {
        // Heavier mixed workload: interleaved schedules and pops must
        // reproduce a stable (when, seq) sort.
        let mut rng = crate::SimRng::seed_from(99);
        let mut q = EventQueue::new();
        let mut popped: Vec<(u64, u64)> = Vec::new();
        let mut id = 0u64;
        let mut pending: Vec<(u64, u64)> = Vec::new();
        for _ in 0..2000 {
            if rng.chance(0.6) || q.is_empty() {
                let when = q.now().as_nanos() + rng.next_u64() % 50;
                q.schedule(SimTime::from_nanos(when), id);
                pending.push((when, id));
                id += 1;
            } else {
                let (t, e) = q.pop().unwrap();
                popped.push((t.as_nanos(), e));
            }
        }
        while let Some((t, e)) = q.pop() {
            popped.push((t.as_nanos(), e));
        }
        // Times nondecreasing; ties FIFO by id *within a batch*: verify
        // against a full stable sort of the reference schedule is not
        // possible (pops interleave with schedules), so check the
        // invariants directly.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
        }
        assert_eq!(popped.len(), pending.len());
    }

    // ------------------------------------------------------------------
    // Drop-in property tests: the three lanes must pop the exact
    // (when, seq) order of a naive reference model across random
    // interleavings, heavy ties, horizon overflow, and base-advance
    // insertions that tear events across the wheel and overflow lanes.
    // ------------------------------------------------------------------

    /// Removes and returns the smallest `(when, seq)` key of the model.
    fn pop_model(model: &mut Vec<(u64, u64)>) -> Option<(u64, u64)> {
        let min = model.iter().enumerate().min_by_key(|(_, &k)| k)?.0;
        Some(model.remove(min))
    }

    /// Drives the queue and a naive `(when, seq)` model through an
    /// identical scripted workload and asserts every pop matches.
    fn assert_drop_in(script_seed: u64, spread: u64) {
        let mut rng = crate::SimRng::seed_from(script_seed);
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut id = 0u64;
        let mut deepest = 0;
        for _ in 0..6000 {
            if rng.chance(0.55) || q.is_empty() {
                // A mix of near ties, mid-range, and far-beyond-horizon
                // times, all relative to the current clock.
                let offset = match rng.next_u64() % 8 {
                    0 | 1 => 0,
                    2 => 3,
                    3..=5 => rng.next_u64() % spread,
                    6 => rng.next_u64() % (1 << 30),
                    _ => (1 << WHEEL_RANGE_BITS) + rng.next_u64() % 1000,
                };
                let when = q.now().as_nanos() + offset;
                q.schedule(SimTime::from_nanos(when), id);
                model.push((when, id));
                id += 1;
            } else {
                let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
                assert_eq!(got, pop_model(&mut model), "diverged from the model");
            }
            assert_eq!(q.len(), model.len());
            deepest = deepest.max(model.len() as u64);
        }
        while let Some(want) = pop_model(&mut model) {
            let got = q.pop().map(|(t, e)| (t.as_nanos(), e));
            assert_eq!(got, Some(want), "drain diverged from the model");
        }
        assert_eq!(q.pop(), None);
        let stats = q.obs_stats();
        assert_eq!(stats.scheduled, id);
        assert_eq!(stats.max_depth, deepest);
        assert!(stats.calendar_hits > 0 && stats.heap_fallbacks > 0);
    }

    #[test]
    fn lanes_are_a_drop_in_for_the_reference_model() {
        for seed in [1u64, 7, 1234] {
            for spread in [50u64, 100_000, 1 << 34] {
                assert_drop_in(seed, spread);
            }
        }
    }

    #[test]
    fn calendar_rejects_past_events_like_the_heap() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(SimTime::from_nanos(10 + i), i);
        }
        assert!(q.obs_stats().calendar_hits > 0, "deep queue uses the wheel");
        q.pop();
        q.pop();
        let err = q.try_schedule(SimTime::from_nanos(3), 999).unwrap_err();
        assert!(matches!(err, ConfigError::PastEvent { .. }));
        assert_eq!(q.len(), 98, "failed schedule left the queue untouched");
    }

    /// Pads `q` with [`AUTO_WHEEL_MIN_DEPTH`] events at `at`, so later
    /// lane inserts see a deep queue: wheel first, heap as overflow.
    fn pad<T: Copy>(q: &mut EventQueue<T>, at: u64, ballast: T) {
        for _ in 0..AUTO_WHEEL_MIN_DEPTH {
            q.schedule(SimTime::from_nanos(at), ballast);
        }
    }

    #[test]
    fn wheel_overflow_lane_handles_far_future() {
        // Events beyond the 2^36 ns horizon overflow to the heap lane
        // and must interleave correctly with wheel entries.
        let mut q = EventQueue::new();
        let far = 1u64 << 40;
        pad(&mut q, far + 2, "pad");
        q.schedule(SimTime::from_nanos(far), "far");
        q.schedule(SimTime::from_nanos(100), "near");
        q.schedule(SimTime::from_nanos(far + 1), "farther");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), "far")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far + 1), "farther")));
        assert!(q.obs_stats().heap_fallbacks > 0, "overflow lane used");
        assert!(q.obs_stats().calendar_hits > 0, "wheel used");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far + 2), "pad")));
    }

    #[test]
    fn wheel_rebase_survives_long_simulations() {
        // Drain the wheel completely, jump the clock far past the old
        // base, and keep scheduling: the empty wheel re-anchors at the
        // clock instead of permanently overflowing to the heap.
        let mut q = EventQueue::new();
        let far = 1u64 << 50; // far beyond the initial horizon
        pad(&mut q, 2 * far, 9u64);
        q.schedule(SimTime::from_nanos(5), 0u64);
        q.schedule(SimTime::from_nanos(6), 1u64);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 0)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(6), 1)));
        q.schedule(SimTime::from_nanos(far), 2u64); // beyond horizon: heap
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), 2)));
        let hits = q.obs_stats().calendar_hits;
        q.schedule(SimTime::from_nanos(far + 3), 3u64);
        q.schedule(SimTime::from_nanos(far + 1), 4u64);
        assert_eq!(q.obs_stats().calendar_hits, hits + 2, "wheel re-anchored");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far + 1), 4)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far + 3), 3)));
    }

    #[test]
    fn base_advance_routes_late_inserts_to_the_overflow_lane() {
        // Cascading can advance the wheel base ahead of `now`; an insert
        // between `now` and the advanced base cannot be bucketed and
        // must fall back to the heap lane — and still pop in order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), "early"); // buffer epoch 10
        pad(&mut q, 1 << 30, "pad"); // deepens the queue (heap, then wheel)
        q.schedule(SimTime::from_nanos(100_000), "late"); // wheel, level 2
                                                          // This pop cascades "late" down to level 0, advancing the wheel
                                                          // base to 100_000's window — far ahead of `now` (10).
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
        assert_eq!(q.obs_stats().heap_fallbacks, 0);
        q.schedule(SimTime::from_nanos(40), "buf"); // buffer epoch 40
                                                    // Valid future time, but below the advanced base: the wheel
                                                    // cannot bucket it, so it overflows to the heap lane.
        q.schedule(SimTime::from_nanos(50), "low");
        assert_eq!(
            q.obs_stats().heap_fallbacks,
            1,
            "below-base insert overflows"
        );
        assert_eq!(q.pop(), Some((SimTime::from_nanos(40), "buf")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(50), "low")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100_000), "late")));
        for _ in 0..AUTO_WHEEL_MIN_DEPTH {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(1 << 30), "pad")));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn shallow_queue_uses_the_heap_and_deep_the_wheel() {
        let mut q = EventQueue::new();
        // Below the depth threshold: heap only (plus buffer).
        for i in 0..(AUTO_WHEEL_MIN_DEPTH as u64 / 2) {
            q.schedule(SimTime::from_nanos(10 + 7 * i), i);
        }
        assert_eq!(
            q.obs_stats().calendar_hits,
            0,
            "shallow queue stays on heap"
        );
        // Push past the threshold: new inserts go to the wheel.
        for i in 0..(4 * AUTO_WHEEL_MIN_DEPTH as u64) {
            q.schedule(SimTime::from_nanos(20 + 11 * i), 1000 + i);
        }
        assert!(q.obs_stats().calendar_hits > 0, "deep queue uses the wheel");
        // Still pops in exact global order.
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last.0);
            last = (t, 0);
            n += 1;
        }
        assert_eq!(n, AUTO_WHEEL_MIN_DEPTH / 2 + 4 * AUTO_WHEEL_MIN_DEPTH);
    }

    #[test]
    fn obs_merge_accumulates_all_counters() {
        let a = QueueObs {
            scheduled: 10,
            fast_path: 4,
            calendar_hits: 3,
            heap_fallbacks: 1,
            max_depth: 7,
        };
        let b = QueueObs {
            scheduled: 5,
            fast_path: 1,
            calendar_hits: 2,
            heap_fallbacks: 2,
            max_depth: 9,
        };
        let m = a.merged(&b);
        assert_eq!(
            m,
            QueueObs {
                scheduled: 15,
                fast_path: 5,
                calendar_hits: 5,
                heap_fallbacks: 3,
                max_depth: 9,
            }
        );
    }
}
