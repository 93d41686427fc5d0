//! The shared slot-cache kernel behind every fixed-capacity cache
//! simulator in the workspace.
//!
//! The flash cache index and the local page store used to carry two
//! copies of the same machinery: a `key -> slot` map, a slot array of
//! `(key, dirty, ref)` tuples, a clock hand, and (for LRU) an intrusive
//! doubly-linked recency list. [`SlotCache`] is that machinery once, laid
//! out so a hit touches as little memory as possible:
//!
//! * the key index holds each resident key's dirty bit, so a hit reads
//!   (and, on a write, sets the dirty bit in) one index entry;
//! * the slot columns hold the resident key plus only what the victim
//!   mechanism in use reads: a reference bit per slot for clock, the
//!   recency links for LRU, nothing for a caller-chosen (random) victim.
//!
//! The index is a type parameter, so a replay loop over each kind
//! compiles to its own monomorphic code with every per-access method
//! inlined. There are three kinds:
//!
//! * [`OpenKeys`], a hash map over arbitrary `u64` keys, and
//!   [`DenseKeys`], a direct-indexed array over a known key universe,
//!   store `slot << 1 | dirty` per resident key. They implement
//!   [`SlotIndex`], so they serve every victim mechanism and answer
//!   [`lookup`](SlotCache::lookup).
//! * [`FlagKeys`] keeps two bits per key of a known universe (resident,
//!   dirty) and no slot. A caller-chosen victim needs no more: a
//!   random-replacement hit changes no per-slot state, and the victim's
//!   key is read from the slot column. So a flag cache is built for
//!   caller-chosen victims only and answers no lookup.
//!
//! Policy stays with the caller: the kernel exposes victim *mechanisms*
//! ([`clock_victim`](SlotCache::clock_victim),
//! [`lru_victim`](SlotCache::lru_victim), or any caller-chosen slot for
//! random replacement) and the caller decides which to invoke.
//!
//! # Example
//! ```
//! use wcs_simcore::slotcache::{SlotCache, Victims};
//! let mut c = SlotCache::new(2, Victims::Lru);
//! assert!(!c.touch(10, false)); // miss: the caller installs the key
//! let slot = c.insert(10, false);
//! assert!(c.touch(10, true)); // hit, now dirty
//! assert_eq!(c.lookup(10), Some(slot));
//! ```

use crate::table::OpenMap;

/// Sentinel for "no slot" in the dense index and the recency links.
const NIL: u32 = u32::MAX;

/// Largest capacity whose `slot << 1 | dirty` index entries stay below
/// [`NIL`].
const MAX_CAPACITY: usize = (NIL >> 1) as usize;

/// The victim mechanism a [`SlotCache`] keeps per-slot state for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Victims {
    /// The caller picks any slot (random replacement): no per-slot
    /// policy state.
    Chosen,
    /// Second-chance clock: one reference bit per slot and a hand.
    Clock,
    /// Least-recently-used: an intrusive doubly-linked recency list.
    Lru,
}

/// The per-key state every [`SlotCache`] index keeps: whether a key is
/// resident and whether it is dirty. That is all that insert, replace
/// and a caller-chosen-victim hit read or write.
pub trait KeyIndex {
    /// The key type the slot column stores.
    type Key: Copy + From<u32> + Into<u64>;

    /// Converts a caller's `u64` key.
    ///
    /// # Panics
    /// Panics if the key does not fit [`Self::Key`].
    fn key(raw: u64) -> Self::Key;

    /// True if `key` is resident.
    fn contains(&self, key: Self::Key) -> bool;

    /// If `key` is resident, ORs `write` into its dirty bit and returns
    /// true.
    fn mark(&mut self, key: Self::Key, write: bool) -> bool;

    /// Records a key that is not resident as resident in `slot`, dirty
    /// iff `write`.
    fn set(&mut self, key: Self::Key, slot: u32, write: bool);

    /// Removes a resident key, returning its dirty bit.
    fn take(&mut self, key: Self::Key) -> bool;
}

/// A [`KeyIndex`] whose entries also hold the key's slot, as
/// `slot << 1 | dirty`: what [`SlotCache::lookup`] answers and what the
/// clock and LRU mechanisms update on a hit.
pub trait SlotIndex: KeyIndex {
    /// The entry for `key`, if resident.
    fn entry(&self, key: Self::Key) -> Option<u32>;

    /// The hit path: if `key` is resident, ORs `write` into its dirty bit
    /// and returns its slot.
    fn hit(&mut self, key: Self::Key, write: bool) -> Option<u32>;
}

/// An open-addressed hash index over arbitrary `u64` keys.
#[derive(Debug, Clone)]
pub struct OpenKeys(OpenMap<u64, u32>);

impl KeyIndex for OpenKeys {
    type Key = u64;

    #[inline]
    fn key(raw: u64) -> u64 {
        raw
    }

    #[inline]
    fn contains(&self, key: u64) -> bool {
        self.0.get(&key).is_some()
    }

    #[inline]
    fn mark(&mut self, key: u64, write: bool) -> bool {
        self.hit(key, write).is_some()
    }

    #[inline]
    fn set(&mut self, key: u64, slot: u32, write: bool) {
        self.0.insert(key, slot << 1 | u32::from(write));
    }

    #[inline]
    fn take(&mut self, key: u64) -> bool {
        self.0.remove(&key).expect("resident key") & 1 == 1
    }
}

impl SlotIndex for OpenKeys {
    #[inline]
    fn entry(&self, key: u64) -> Option<u32> {
        self.0.get(&key).copied()
    }

    #[inline]
    fn hit(&mut self, key: u64, write: bool) -> Option<u32> {
        let entry = self.0.get_mut(&key)?;
        *entry |= u32::from(write);
        Some(*entry >> 1)
    }
}

/// Converts a key of a dense (`u32`-keyed) index.
#[inline]
fn dense_key(raw: u64) -> u32 {
    u32::try_from(raw).expect("dense slot-cache keys fit u32")
}

/// Checks the key universe of a dense or flag index.
fn check_universe(universe: u64) {
    assert!(universe > 0, "dense slot cache needs a key universe");
    assert!(
        universe <= 1 << 32,
        "dense slot cache universe must fit u32 keys"
    );
}

/// A direct-indexed index over keys known to lie in `0..universe` (page
/// numbers below a footprint, extent numbers below a dataset): one
/// predictable array access per lookup, no hashing, no probe chain, and
/// `u32` keys in the slot column.
#[derive(Debug, Clone)]
pub struct DenseKeys(Vec<u32>);

impl KeyIndex for DenseKeys {
    type Key = u32;

    #[inline]
    fn key(raw: u64) -> u32 {
        dense_key(raw)
    }

    #[inline]
    fn contains(&self, key: u32) -> bool {
        self.0[key as usize] != NIL
    }

    #[inline]
    fn mark(&mut self, key: u32, write: bool) -> bool {
        self.hit(key, write).is_some()
    }

    #[inline]
    fn set(&mut self, key: u32, slot: u32, write: bool) {
        self.0[key as usize] = slot << 1 | u32::from(write);
    }

    #[inline]
    fn take(&mut self, key: u32) -> bool {
        std::mem::replace(&mut self.0[key as usize], NIL) & 1 == 1
    }
}

impl SlotIndex for DenseKeys {
    #[inline]
    fn entry(&self, key: u32) -> Option<u32> {
        let entry = self.0[key as usize];
        (entry != NIL).then_some(entry)
    }

    #[inline]
    fn hit(&mut self, key: u32, write: bool) -> Option<u32> {
        let entry = &mut self.0[key as usize];
        if *entry == NIL {
            return None;
        }
        *entry |= u32::from(write);
        Some(*entry >> 1)
    }
}

/// Two bits per key over keys known to lie in `0..universe`: bit 0 of
/// each pair says the key is resident, bit 1 that it is dirty, 32 keys
/// per `u64` word. No slot is stored, so the index serves only
/// caller-chosen victims. For a 480k-page footprint it is 120 KB, where
/// [`DenseKeys`] takes 1.9 MB.
#[derive(Debug, Clone)]
pub struct FlagKeys {
    words: Vec<u64>,
    universe: u64,
}

/// A [`FlagKeys`] pair's resident bit.
const RESIDENT: u64 = 1;
/// A [`FlagKeys`] pair's dirty bit.
const DIRTY: u64 = 2;

impl FlagKeys {
    /// The word holding `key`'s pair, and the pair's shift within it.
    #[inline(always)]
    fn pair(key: u32) -> (usize, u32) {
        ((key >> 5) as usize, (key & 31) << 1)
    }
}

impl KeyIndex for FlagKeys {
    type Key = u32;

    #[inline]
    fn key(raw: u64) -> u32 {
        dense_key(raw)
    }

    #[inline]
    fn contains(&self, key: u32) -> bool {
        let (w, s) = Self::pair(key);
        self.words[w] >> s & RESIDENT != 0
    }

    #[inline]
    fn mark(&mut self, key: u32, write: bool) -> bool {
        let (w, s) = Self::pair(key);
        let word = &mut self.words[w];
        if *word >> s & RESIDENT == 0 {
            return false;
        }
        *word |= u64::from(write) << s << 1;
        true
    }

    /// # Panics
    /// Panics if `key` lies past the universe (the last word's spare
    /// pairs would otherwise take it).
    #[inline]
    fn set(&mut self, key: u32, _slot: u32, write: bool) {
        assert!(
            u64::from(key) < self.universe,
            "flag slot-cache key {key} past its universe {}",
            self.universe
        );
        let (w, s) = Self::pair(key);
        self.words[w] |= (RESIDENT | u64::from(write) << 1) << s;
    }

    #[inline]
    fn take(&mut self, key: u32) -> bool {
        let (w, s) = Self::pair(key);
        let word = &mut self.words[w];
        let dirty = *word >> s & DIRTY != 0;
        *word &= !((RESIDENT | DIRTY) << s);
        dirty
    }
}

/// Fixed-capacity cache state: key index, per-slot columns for the
/// victim mechanism in use, and the clock hand.
///
/// Slot indices are `u32` (capacities here are at most a few million
/// pages); construction rejects capacities whose index entries would not
/// fit.
#[derive(Debug, Clone)]
pub struct SlotCache<I: KeyIndex = OpenKeys> {
    capacity: usize,
    victims: Victims,
    index: I,
    keys: Vec<I::Key>,
    /// Clock only.
    refbit: Vec<bool>,
    /// LRU only: head = MRU, tail = eviction victim.
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    hand: u32,
}

impl SlotCache<OpenKeys> {
    /// Creates an empty cache holding up to `capacity` keys, keeping the
    /// per-slot state `victims` needs.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or does not fit slot indices.
    pub fn new(capacity: usize, victims: Victims) -> Self {
        SlotCache::with_index(
            capacity,
            victims,
            OpenKeys(OpenMap::with_capacity(capacity)),
        )
    }
}

impl SlotCache<DenseKeys> {
    /// Creates an empty cache whose keys are known to lie in
    /// `0..universe`: the key index is a direct-indexed array (one
    /// predictable load per lookup) instead of a hash map. Behaviour is
    /// otherwise identical to [`new`](SlotCache::new), including every
    /// victim mechanism — only the lookup machinery changes.
    ///
    /// # Panics
    /// Panics on a zero/oversized capacity, or a zero universe or one
    /// beyond `u32` keys; keys at or above `universe` panic at first use
    /// (index out of bounds).
    pub fn with_dense_keys(capacity: usize, victims: Victims, universe: u64) -> Self {
        check_universe(universe);
        SlotCache::with_index(capacity, victims, DenseKeys(vec![NIL; universe as usize]))
    }
}

impl SlotCache<FlagKeys> {
    /// Creates an empty cache for caller-chosen victims (random
    /// replacement) whose keys are known to lie in `0..universe`, indexed
    /// by two bits per key. Hits go through [`mark`](Self::mark); the
    /// cache keeps no clock or LRU state and answers no slot lookup.
    /// Hits, misses, slot order and the victims' keys and dirty bits are
    /// those of a [`Victims::Chosen`] cache over either other index.
    ///
    /// # Panics
    /// Panics on a zero/oversized capacity, or a zero universe or one
    /// beyond `u32` keys; installing a key at or above `universe` panics.
    ///
    /// # Example
    /// ```
    /// use wcs_simcore::slotcache::SlotCache;
    /// let mut c = SlotCache::with_flag_keys(2, 8);
    /// assert!(!c.mark(3, false)); // miss: the caller installs the key
    /// c.insert(3, false);
    /// assert!(c.mark(3, true)); // hit, now dirty
    /// assert_eq!(c.replace(0, 5, false), (3, true)); // the caller chose slot 0
    /// ```
    /// It answers no slot lookup:
    /// ```compile_fail
    /// use wcs_simcore::slotcache::SlotCache;
    /// let c = SlotCache::with_flag_keys(2, 8);
    /// let _ = c.lookup(3);
    /// ```
    pub fn with_flag_keys(capacity: usize, universe: u64) -> Self {
        check_universe(universe);
        let words = vec![0; universe.div_ceil(32) as usize];
        SlotCache::with_index(capacity, Victims::Chosen, FlagKeys { words, universe })
    }
}

impl<I: KeyIndex> SlotCache<I> {
    fn with_index(capacity: usize, victims: Victims, index: I) -> Self {
        assert!(capacity > 0, "slot cache needs capacity");
        assert!(
            capacity <= MAX_CAPACITY,
            "slot cache capacity must fit u32 slot indices"
        );
        let column = |mechanism| {
            if victims == mechanism {
                capacity
            } else {
                0
            }
        };
        SlotCache {
            capacity,
            victims,
            index,
            keys: Vec::with_capacity(capacity),
            refbit: Vec::with_capacity(column(Victims::Clock)),
            prev: Vec::with_capacity(column(Victims::Lru)),
            next: Vec::with_capacity(column(Victims::Lru)),
            head: NIL,
            tail: NIL,
            hand: 0,
        }
    }

    /// Maximum number of keys the cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// True once every slot is occupied (misses must evict).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.keys.len() >= self.capacity
    }

    /// True if `key` is resident (no policy state update).
    pub fn contains(&self, key: I::Key) -> bool {
        self.index.contains(key)
    }

    /// The key resident in `slot`.
    pub fn key_at(&self, slot: u32) -> I::Key {
        self.keys[slot as usize]
    }

    /// The hit path of a cache whose caller chooses victims: if `key` is
    /// resident, ORs `write` into its dirty bit and returns true. There
    /// is no per-slot state to update, so this touches only the key's
    /// index entry. On a miss nothing changes.
    ///
    /// # Panics
    /// Panics if the cache keeps clock or LRU state, whose hits go
    /// through [`touch`](Self::touch).
    #[inline(always)]
    pub fn mark(&mut self, key: I::Key, write: bool) -> bool {
        assert!(
            self.victims == Victims::Chosen,
            "mark needs a caller-chosen-victim slot cache"
        );
        self.index.mark(key, write)
    }

    /// Installs `key` into a fresh slot while the cache is filling;
    /// returns the slot. The new entry is referenced, dirty iff `write`,
    /// and (for LRU) most-recent.
    ///
    /// # Panics
    /// Panics if the cache is already full — use
    /// [`replace`](Self::replace) with a victim instead.
    #[inline(always)]
    pub fn insert(&mut self, key: I::Key, write: bool) -> u32 {
        assert!(!self.is_full(), "insert on a full slot cache");
        let slot = self.keys.len() as u32;
        self.keys.push(key);
        self.index.set(key, slot, write);
        match self.victims {
            Victims::Chosen => {}
            Victims::Clock => self.refbit.push(true),
            Victims::Lru => {
                self.prev.push(NIL);
                self.next.push(NIL);
                self.push_front(slot);
            }
        }
        slot
    }

    /// Evicts the occupant of `slot` and installs `key` in its place,
    /// returning `(old_key, old_dirty)`. The new entry is referenced,
    /// dirty iff `write`, and (for LRU) most-recent.
    #[inline(always)]
    pub fn replace(&mut self, slot: u32, key: I::Key, write: bool) -> (I::Key, bool) {
        let s = slot as usize;
        let old_key = self.keys[s];
        let old_dirty = self.index.take(old_key);
        self.keys[s] = key;
        self.index.set(key, slot, write);
        match self.victims {
            Victims::Chosen => {}
            Victims::Clock => self.refbit[s] = true,
            Victims::Lru => {
                self.unlink(slot);
                self.push_front(slot);
            }
        }
        (old_key, old_dirty)
    }

    /// The clock (second-chance) victim: advances the hand, clearing
    /// reference bits, until it finds an unreferenced slot.
    ///
    /// # Panics
    /// Panics if the cache was built without the clock's reference bits
    /// or is empty.
    #[inline]
    pub fn clock_victim(&mut self) -> u32 {
        assert!(
            self.victims == Victims::Clock,
            "clock victim needs a clock slot cache"
        );
        assert!(!self.is_empty(), "clock victim on an empty cache");
        let n = self.keys.len() as u32;
        loop {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            if self.refbit[slot as usize] {
                self.refbit[slot as usize] = false; // second chance
            } else {
                return slot;
            }
        }
    }

    /// The least-recently-used slot (the recency tail).
    ///
    /// # Panics
    /// Panics if the cache was built without the recency list or is
    /// empty.
    #[inline]
    pub fn lru_victim(&self) -> u32 {
        assert!(
            self.victims == Victims::Lru,
            "lru victim needs an lru slot cache"
        );
        assert!(self.tail != NIL, "lru victim on an empty cache");
        self.tail
    }

    #[inline]
    fn unlink(&mut self, slot: u32) {
        let s = slot as usize;
        let (p, n) = (self.prev[s], self.next[s]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
    }

    #[inline]
    fn push_front(&mut self, slot: u32) {
        let s = slot as usize;
        self.prev[s] = NIL;
        self.next[s] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

impl<I: SlotIndex> SlotCache<I> {
    /// The slot holding `key`, if resident (no policy state update).
    pub fn lookup(&self, key: I::Key) -> Option<u32> {
        self.index.entry(key).map(|entry| entry >> 1)
    }

    /// Touches `key`: on a hit, ORs `write` into its dirty bit, updates
    /// the victim mechanism's state (reference bit, recency order) and
    /// returns true. On a miss nothing changes and the caller installs
    /// the key with [`insert`](Self::insert) or
    /// [`replace`](Self::replace).
    #[inline(always)]
    pub fn touch(&mut self, key: I::Key, write: bool) -> bool {
        let Some(slot) = self.index.hit(key, write) else {
            return false;
        };
        match self.victims {
            Victims::Chosen => {}
            Victims::Clock => self.refbit[slot as usize] = true,
            Victims::Lru => {
                self.unlink(slot);
                self.push_front(slot);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut c = SlotCache::new(4, Victims::Lru);
        let s = c.insert(10, false);
        assert_eq!(c.lookup(10), Some(s));
        assert!(c.contains(10));
        assert_eq!(c.key_at(s), 10);
        assert_eq!(c.len(), 1);
        assert!(!c.is_full());
        assert!(c.touch(10, false));
        assert!(!c.touch(11, false));
        assert_eq!(c.len(), 1, "a missed touch installs nothing");
    }

    #[test]
    fn lru_victim_tracks_recency() {
        let mut c = SlotCache::new(3, Victims::Lru);
        let _ = c.insert(1, false);
        let _ = c.insert(2, false);
        let _ = c.insert(3, false);
        // 1 is LRU; touching it promotes it, making 2 the victim.
        assert_eq!(c.key_at(c.lru_victim()), 1);
        assert!(c.touch(1, false));
        assert_eq!(c.key_at(c.lru_victim()), 2);
    }

    #[test]
    fn replace_reports_old_entry_and_dirty_bit() {
        let mut c = SlotCache::new(2, Victims::Lru);
        let s = c.insert(1, true);
        let _ = c.insert(2, false);
        let (old, dirty) = c.replace(s, 9, false);
        assert_eq!((old, dirty), (1, true));
        assert!(!c.contains(1));
        assert_eq!(c.lookup(9), Some(s));
        // Replaced entry becomes MRU: victim is 2.
        assert_eq!(c.key_at(c.lru_victim()), 2);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut c = SlotCache::new(3, Victims::Clock);
        for k in 1..=3u64 {
            c.insert(k, false);
        }
        // All ref bits set: first victim pass clears 1, 2, 3 then evicts
        // slot 0 (key 1) on the wrap.
        let v = c.clock_victim();
        assert_eq!(c.key_at(v), 1);
        // Slot 1 (key 2) still has ref cleared; re-referencing key 3
        // protects it for the next sweep.
        assert!(c.touch(3, false));
        let v2 = c.clock_victim();
        assert_eq!(c.key_at(v2), 2);
    }

    #[test]
    fn dirty_bit_ors_across_touches() {
        for victims in [Victims::Chosen, Victims::Clock, Victims::Lru] {
            let mut c = SlotCache::new(2, victims);
            let s = c.insert(5, false);
            c.touch(5, false);
            c.touch(5, true);
            c.touch(5, false);
            let (_, dirty) = c.replace(s, 6, false);
            assert!(dirty, "{victims:?}");
            let (_, dirty) = c.replace(s, 7, false);
            assert!(!dirty, "{victims:?}: a replaced entry starts clean");
        }
    }

    #[test]
    fn dense_index_behaves_like_open_map() {
        // Same operation sequence through both index kinds must agree on
        // every observable: hits, lookups, victims, replace results.
        let mut open = SlotCache::new(3, Victims::Lru);
        let mut dense = SlotCache::with_dense_keys(3, Victims::Lru, 64);
        let ops: &[(u32, bool)] = &[
            (5, false),
            (9, true),
            (5, false),
            (1, false),
            (7, true),
            (9, false),
            (3, false),
        ];
        for &(key, write) in ops {
            let k = u64::from(key);
            assert_eq!(open.lookup(k), dense.lookup(key), "lookup {key}");
            let hit = open.touch(k, write);
            assert_eq!(hit, dense.touch(key, write), "touch {key}");
            if hit {
                // Nothing to install.
            } else if !open.is_full() {
                assert_eq!(open.insert(k, write), dense.insert(key, write));
            } else {
                let (vo, vd) = (open.lru_victim(), dense.lru_victim());
                assert_eq!(vo, vd);
                let (old_open, dirty_open) = open.replace(vo, k, write);
                let (old_dense, dirty_dense) = dense.replace(vd, key, write);
                assert_eq!((old_open, dirty_open), (u64::from(old_dense), dirty_dense));
            }
            assert_eq!(open.len(), dense.len());
            for k in 0..16u32 {
                assert_eq!(
                    open.contains(u64::from(k)),
                    dense.contains(k),
                    "contains {k}"
                );
            }
        }
    }

    #[test]
    fn flag_index_behaves_like_dense_index_under_chosen_victims() {
        // A seeded stream with writes, through a dense and a flag cache
        // with the same caller-chosen victims: every hit, evicted key,
        // evicted dirty bit and residency must agree. The universe is
        // not a multiple of 32, so the last flag word is partly spare.
        const UNIVERSE: u64 = 300;
        let mut dense = SlotCache::with_dense_keys(40, Victims::Chosen, UNIVERSE);
        let mut flags = SlotCache::with_flag_keys(40, UNIVERSE);
        let mut rng = crate::SimRng::seed_from(0xF1A6);
        let mut evictions = [0u64; 2];
        for i in 0..20_000 {
            let key = rng.index(UNIVERSE as usize) as u32;
            let write = rng.chance(0.3);
            let hit = dense.mark(key, write);
            assert_eq!(hit, flags.mark(key, write), "access {i}: hit {key}");
            if hit {
                // Nothing to install.
            } else if !dense.is_full() {
                assert_eq!(dense.insert(key, write), flags.insert(key, write));
            } else {
                let slot = rng.index(dense.len()) as u32;
                let (old, dirty) = dense.replace(slot, key, write);
                assert_eq!(
                    (old, dirty),
                    flags.replace(slot, key, write),
                    "access {i}: eviction"
                );
                evictions[usize::from(dirty)] += 1;
            }
            assert_eq!(dense.len(), flags.len());
            for k in 0..UNIVERSE as u32 {
                assert_eq!(dense.contains(k), flags.contains(k), "access {i}: key {k}");
            }
        }
        assert!(
            evictions.iter().all(|&n| n > 1_000),
            "clean and dirty evictions both exercised: {evictions:?}"
        );
    }

    #[test]
    #[should_panic(expected = "past its universe")]
    fn flag_rejects_keys_past_universe() {
        // 100 lies in the spare pairs of the universe's last word.
        let mut c = SlotCache::with_flag_keys(4, 100);
        c.insert(99, false);
        c.insert(100, false);
    }

    #[test]
    #[should_panic(expected = "clock slot cache")]
    fn flag_cache_has_no_clock_victim() {
        let mut c = SlotCache::with_flag_keys(2, 8);
        c.insert(1, false);
        c.clock_victim();
    }

    #[test]
    #[should_panic(expected = "lru slot cache")]
    fn flag_cache_has_no_lru_victim() {
        let mut c = SlotCache::with_flag_keys(2, 8);
        c.insert(1, false);
        c.lru_victim();
    }

    #[test]
    #[should_panic(expected = "caller-chosen")]
    fn mark_rejects_clock_and_lru_caches() {
        let mut c = SlotCache::with_dense_keys(2, Victims::Clock, 8);
        c.insert(1, false);
        c.mark(1, true);
    }

    #[test]
    #[should_panic(expected = "universe")]
    fn dense_rejects_zero_universe() {
        SlotCache::with_dense_keys(4, Victims::Chosen, 0);
    }

    #[test]
    #[should_panic(expected = "u32 keys")]
    fn dense_rejects_keys_beyond_u32() {
        SlotCache::with_dense_keys(4, Victims::Chosen, (1 << 32) + 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        SlotCache::new(0, Victims::Chosen);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn rejects_insert_when_full() {
        let mut c = SlotCache::new(1, Victims::Chosen);
        c.insert(1, false);
        c.insert(2, false);
    }

    #[test]
    #[should_panic(expected = "clock slot cache")]
    fn clock_victim_needs_reference_bits() {
        let mut c = SlotCache::new(2, Victims::Lru);
        c.insert(1, false);
        c.clock_victim();
    }
}
