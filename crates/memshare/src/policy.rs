//! Replacement policies for the local page store.
//!
//! The paper evaluates LRU and random replacement, "expecting that an
//! implementable policy would have performance between these points"; we
//! add clock (the usual implementable policy) to check that expectation.
//!
//! The slot bookkeeping (key index with the dirty bit folded into each
//! entry, clock reference bits, recency links, clock hand) lives in the
//! shared [`wcs_simcore::slotcache::SlotCache`] kernel — the same
//! machinery the flash cache index uses — so this module only holds the
//! *policy*: which victim mechanism each [`PolicyKind`] keeps state for,
//! which hit path it takes, and which victim it evicts on a full-store
//! miss. The key index follows from the policy and the universe: a store
//! over a known footprint keeps two bits per page under random
//! replacement, whose hits and victims need no slot, and a `u32` entry
//! per page under LRU and clock.

use wcs_simcore::memo::{MemoHash, MemoKey};
use wcs_simcore::slotcache::{
    DenseKeys, FlagKeys, KeyIndex, OpenKeys, SlotCache, SlotIndex, Victims,
};
use wcs_simcore::SimRng;

use crate::twolevel::MissStats;

/// Which replacement policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PolicyKind {
    /// Least-recently-used (upper bound among the paper's pair).
    Lru,
    /// Random victim (lower bound among the paper's pair).
    Random,
    /// Clock / second-chance (implementable middle ground).
    Clock,
}

impl PolicyKind {
    /// Stable label (also the policy's memoization identity).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Random => "random",
            PolicyKind::Clock => "clock",
        }
    }

    /// The victim mechanism the slot cache keeps state for.
    fn victims(self) -> Victims {
        match self {
            PolicyKind::Lru => Victims::Lru,
            PolicyKind::Random => Victims::Chosen,
            PolicyKind::Clock => Victims::Clock,
        }
    }
}

impl MemoHash for PolicyKind {
    fn memo_hash(&self, key: &mut MemoKey) {
        *key = key.push_str(self.label());
    }
}

/// Result of touching a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// The page was resident.
    Hit,
    /// The page was not resident; it has been installed, evicting the
    /// contained victim (None while the store is still filling).
    Miss {
        /// Evicted page and whether it was dirty, if the store was full.
        evicted: Option<(u64, bool)>,
    },
}

/// The store's slot cache, whichever key index it uses.
#[derive(Debug)]
enum Slots {
    Open(SlotCache<OpenKeys>),
    Dense(SlotCache<DenseKeys>),
    /// Random replacement over a known universe only.
    Flags(SlotCache<FlagKeys>),
}

/// Binds `$c` to the slot cache inside `$slots` and evaluates `$body`,
/// once per index kind, so generic code runs monomorphic over each.
macro_rules! with_slots {
    ($slots:expr, $c:ident => $body:expr) => {
        match $slots {
            Slots::Open($c) => $body,
            Slots::Dense($c) => $body,
            Slots::Flags($c) => $body,
        }
    };
}

/// Binds `$c` to the store's slot cache and `$p` to its policy's
/// [`Replace`] and evaluates `$body`, once per index kind and policy, so
/// generic code runs monomorphic over each pair.
macro_rules! with_policy {
    ($store:expr, $c:ident, $p:ident => $body:expr) => {{
        let rng = &mut $store.rng;
        match (&mut $store.slots, $store.kind) {
            (Slots::Flags($c), _) => {
                let mut $p = Random(rng);
                $body
            }
            (Slots::Open($c), PolicyKind::Random) => {
                let mut $p = Random(rng);
                $body
            }
            (Slots::Open($c), PolicyKind::Lru) => {
                let mut $p = Lru;
                $body
            }
            (Slots::Open($c), PolicyKind::Clock) => {
                let mut $p = Clock;
                $body
            }
            (Slots::Dense($c), PolicyKind::Random) => {
                let mut $p = Random(rng);
                $body
            }
            (Slots::Dense($c), PolicyKind::Lru) => {
                let mut $p = Lru;
                $body
            }
            (Slots::Dense($c), PolicyKind::Clock) => {
                let mut $p = Clock;
                $body
            }
        }
    }};
}

/// A fixed-capacity local page store with a pluggable replacement policy.
///
/// Tracks dirty bits so the two-level simulator can count victim
/// writebacks.
///
/// # Example
/// ```
/// use wcs_memshare::policy::{PageStore, PolicyKind, Touch};
/// let mut store = PageStore::new(2, PolicyKind::Lru, 1);
/// assert!(matches!(store.touch(1, false), Touch::Miss { evicted: None }));
/// assert!(matches!(store.touch(1, false), Touch::Hit));
/// ```
#[derive(Debug)]
pub struct PageStore {
    kind: PolicyKind,
    slots: Slots,
    rng: SimRng,
}

impl PageStore {
    /// Creates an empty store holding up to `capacity` pages.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, kind: PolicyKind, seed: u64) -> Self {
        PageStore {
            kind,
            slots: Slots::Open(SlotCache::new(capacity, kind.victims())),
            rng: SimRng::seed_from(seed),
        }
    }

    /// Creates a store whose page numbers are known to lie in
    /// `[0, universe)`, indexing pages directly instead of hashing them:
    /// two bits per page (resident, dirty) under random replacement, a
    /// `slot << 1 | dirty` entry per page under LRU and clock. Behaviour
    /// is identical to [`new`](Self::new) — slot order, victim choice,
    /// and dirty tracking are all unchanged — only lookups get cheaper.
    ///
    /// # Panics
    /// Panics if `capacity` or `universe` is zero, or `universe` exceeds
    /// `u32` page numbers; touching a page at or above `universe` panics.
    pub fn with_universe(capacity: usize, kind: PolicyKind, seed: u64, universe: u64) -> Self {
        let slots = match kind {
            PolicyKind::Random => Slots::Flags(SlotCache::with_flag_keys(capacity, universe)),
            PolicyKind::Lru | PolicyKind::Clock => Slots::Dense(SlotCache::with_dense_keys(
                capacity,
                kind.victims(),
                universe,
            )),
        };
        PageStore {
            kind,
            slots,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        with_slots!(&self.slots, c => c.len())
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        with_slots!(&self.slots, c => c.capacity())
    }

    /// True if `page` is resident (no policy state update).
    pub fn contains(&self, page: u64) -> bool {
        with_slots!(&self.slots, c => contains(c, page))
    }

    /// Touches `page`, marking it dirty when `write` is set. Returns
    /// whether it hit, and on a full-store miss which victim was evicted.
    pub fn touch(&mut self, page: u64, write: bool) -> Touch {
        with_policy!(self, c, p => touch_step(c, key_of(c, page), write, &mut p))
    }

    /// The replay kernel: touches every `(page, write)` access in order
    /// and counts charged (full-store) misses and dirty-victim
    /// writebacks as it goes. Hits and uncharged cold fills count only
    /// as accesses.
    ///
    /// Bit-identical to calling [`touch`](Self::touch) per access: the
    /// index-kind and policy dispatch is hoisted out of the loop (one
    /// monomorphic loop per index kind and [`PolicyKind`]), but slot
    /// operations and RNG draws happen in exactly the same order.
    pub fn touch_pass(&mut self, accesses: impl IntoIterator<Item = (u32, bool)>) -> MissStats {
        with_policy!(self, c, p => touch_loop(c, accesses, &mut p))
    }
}

fn key_of<I: KeyIndex>(_: &SlotCache<I>, page: u64) -> I::Key {
    I::key(page)
}

fn contains<I: KeyIndex>(cache: &SlotCache<I>, page: u64) -> bool {
    cache.contains(I::key(page))
}

/// A policy's two per-access decisions over a slot cache: the hit path
/// and, on a full-store miss, the victim.
trait Replace<I: KeyIndex> {
    /// If `key` is resident, records the hit and returns true.
    fn hit(&mut self, cache: &mut SlotCache<I>, key: I::Key, write: bool) -> bool;

    /// The slot a full-store miss evicts.
    fn victim(&mut self, cache: &mut SlotCache<I>) -> u32;
}

/// Random replacement: a hit changes no per-slot state, and the victim
/// is a slot drawn from the store's RNG. Serves every index kind.
struct Random<'a>(&'a mut SimRng);

/// Least-recently-used replacement; needs a slot index.
struct Lru;

/// Clock (second-chance) replacement; needs a slot index.
struct Clock;

impl<I: KeyIndex> Replace<I> for Random<'_> {
    #[inline(always)]
    fn hit(&mut self, cache: &mut SlotCache<I>, key: I::Key, write: bool) -> bool {
        cache.mark(key, write)
    }

    #[inline(always)]
    fn victim(&mut self, cache: &mut SlotCache<I>) -> u32 {
        self.0.index(cache.len()) as u32
    }
}

impl<I: SlotIndex> Replace<I> for Lru {
    #[inline(always)]
    fn hit(&mut self, cache: &mut SlotCache<I>, key: I::Key, write: bool) -> bool {
        cache.touch(key, write)
    }

    #[inline(always)]
    fn victim(&mut self, cache: &mut SlotCache<I>) -> u32 {
        cache.lru_victim()
    }
}

impl<I: SlotIndex> Replace<I> for Clock {
    #[inline(always)]
    fn hit(&mut self, cache: &mut SlotCache<I>, key: I::Key, write: bool) -> bool {
        cache.touch(key, write)
    }

    #[inline(always)]
    fn victim(&mut self, cache: &mut SlotCache<I>) -> u32 {
        cache.clock_victim()
    }
}

/// One access: a hit, a fill while the store has free slots, or a swap
/// with the victim the policy picks.
#[inline(always)]
fn touch_step<I: KeyIndex>(
    cache: &mut SlotCache<I>,
    key: I::Key,
    write: bool,
    policy: &mut impl Replace<I>,
) -> Touch {
    if policy.hit(cache, key, write) {
        Touch::Hit
    } else if !cache.is_full() {
        cache.insert(key, write);
        Touch::Miss { evicted: None }
    } else {
        let slot = policy.victim(cache);
        let (old, dirty) = cache.replace(slot, key, write);
        Touch::Miss {
            evicted: Some((old.into(), dirty)),
        }
    }
}

/// The inner loop of [`PageStore::touch_pass`], monomorphized per index
/// kind and policy so neither is matched per access.
#[inline(always)]
fn touch_loop<I: KeyIndex>(
    cache: &mut SlotCache<I>,
    accesses: impl IntoIterator<Item = (u32, bool)>,
    policy: &mut impl Replace<I>,
) -> MissStats {
    let mut stats = MissStats::default();
    for (page, write) in accesses {
        stats.accesses += 1;
        if let Touch::Miss {
            evicted: Some((_, dirty)),
        } = touch_step(cache, I::Key::from(page), write, policy)
        {
            stats.misses += 1;
            stats.writebacks += u64::from(dirty);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = PageStore::new(2, PolicyKind::Lru, 0);
        s.touch(1, false);
        s.touch(2, false);
        s.touch(1, false); // 1 is now MRU
        let t = s.touch(3, false);
        assert_eq!(
            t,
            Touch::Miss {
                evicted: Some((2, false))
            }
        );
        assert!(s.contains(1) && s.contains(3) && !s.contains(2));
    }

    #[test]
    fn dirty_bit_propagates_to_eviction() {
        let mut s = PageStore::new(1, PolicyKind::Lru, 0);
        s.touch(7, true);
        let t = s.touch(8, false);
        assert_eq!(
            t,
            Touch::Miss {
                evicted: Some((7, true))
            }
        );
    }

    #[test]
    fn random_stays_within_capacity() {
        let mut s = PageStore::new(64, PolicyKind::Random, 5);
        for page in 0..10_000u64 {
            s.touch(page % 512, page % 3 == 0);
            assert!(s.len() <= 64);
        }
        assert_eq!(s.len(), 64);
    }

    #[test]
    fn clock_gives_second_chances() {
        let mut s = PageStore::new(3, PolicyKind::Clock, 0);
        s.touch(1, false);
        s.touch(2, false);
        s.touch(3, false);
        // Re-reference 1 so its ref bit is set; the next miss should
        // evict 2 or 3, never 1 (1 gets a second chance).
        s.touch(1, false);
        // Clear ref bits by forcing a sweep: all have ref=1, so the hand
        // clears 1 then evicts 2 (first with cleared bit after 1's
        // second chance). Either way, 1 must survive exactly this miss.
        s.touch(4, false);
        assert!(s.contains(4));
        assert!(s.len() == 3);
    }

    #[test]
    fn lru_inclusion_property() {
        // A larger LRU store hits whenever a smaller one does (stack
        // property) — checked empirically on a skewed stream.
        let mut small = PageStore::new(32, PolicyKind::Lru, 0);
        let mut large = PageStore::new(128, PolicyKind::Lru, 0);
        let mut rng = SimRng::seed_from(9);
        for _ in 0..20_000 {
            let page = (rng.uniform() * rng.uniform() * 4096.0) as u64;
            let small_hit = matches!(small.touch(page, false), Touch::Hit);
            let large_hit = matches!(large.touch(page, false), Touch::Hit);
            if small_hit {
                assert!(large_hit, "inclusion violated at page {page}");
            }
        }
    }

    #[test]
    fn touch_pass_matches_scalar_touch_for_every_policy_and_index() {
        // The batch kernel must reproduce, access by access, what the
        // scalar touch API reports — for all three policies and for both
        // key-index kinds. One-access passes compare every outcome;
        // ragged chunks cover resume points.
        let universe = 600u64;
        let mut rng = SimRng::seed_from(0xACE5);
        let n = 8_000;
        let accesses: Vec<(u32, bool)> = (0..n)
            .map(|_| (rng.index(universe as usize) as u32, rng.chance(0.3)))
            .collect();
        for kind in [PolicyKind::Lru, PolicyKind::Random, PolicyKind::Clock] {
            let mut scalar = PageStore::new(96, kind, 42);
            let want: Vec<(u64, u64)> = accesses
                .iter()
                .map(
                    |&(page, write)| match scalar.touch(u64::from(page), write) {
                        Touch::Hit | Touch::Miss { evicted: None } => (0, 0),
                        Touch::Miss {
                            evicted: Some((_, dirty)),
                        } => (1, u64::from(dirty)),
                    },
                )
                .collect();
            let stores = || {
                [
                    PageStore::new(96, kind, 42),
                    PageStore::with_universe(96, kind, 42, universe),
                ]
            };
            for mut one in stores() {
                for (i, &access) in accesses.iter().enumerate() {
                    let got = one.touch_pass([access]);
                    assert_eq!(got.accesses, 1);
                    assert_eq!((got.misses, got.writebacks), want[i], "{kind:?} access {i}");
                }
            }
            for mut ragged in stores() {
                let mut at = 0;
                for take in [1usize, 7, 512, 4096, n] {
                    let end = (at + take).min(n);
                    let got = ragged.touch_pass(accesses[at..end].iter().copied());
                    let (misses, writebacks) = want[at..end]
                        .iter()
                        .fold((0, 0), |(m, w), &(dm, dw)| (m + dm, w + dw));
                    assert_eq!(
                        got,
                        MissStats {
                            accesses: (end - at) as u64,
                            misses,
                            writebacks,
                        },
                        "{kind:?} chunk {at}..{end}"
                    );
                    at = end;
                }
            }
        }
    }

    #[test]
    fn random_flag_store_touches_like_the_open_store() {
        // Under random replacement `with_universe` keeps two flag bits
        // per page and no slot. The scalar touch must still report every
        // evicted page and its dirty bit as the open store does, and the
        // two must agree on residency after every access.
        const UNIVERSE: u64 = 500;
        let mut open = PageStore::new(96, PolicyKind::Random, 17);
        let mut flags = PageStore::with_universe(96, PolicyKind::Random, 17, UNIVERSE);
        let mut rng = SimRng::seed_from(0x5EED);
        let mut evictions = [0u64; 2];
        for i in 0..24_000 {
            let page = rng.index(UNIVERSE as usize) as u64;
            let write = rng.chance(0.3);
            let want = open.touch(page, write);
            assert_eq!(flags.touch(page, write), want, "access {i}");
            if let Touch::Miss {
                evicted: Some((_, dirty)),
            } = want
            {
                evictions[usize::from(dirty)] += 1;
            }
            assert_eq!(flags.len(), open.len(), "access {i}");
            for p in 0..UNIVERSE {
                assert_eq!(flags.contains(p), open.contains(p), "access {i}: page {p}");
            }
        }
        assert!(
            evictions.iter().all(|&n| n > 1_000),
            "clean and dirty evictions both exercised: {evictions:?}"
        );
    }

    #[test]
    #[should_panic(expected = "past its universe")]
    fn random_flag_store_rejects_pages_past_its_universe() {
        let mut s = PageStore::with_universe(4, PolicyKind::Random, 1, 40);
        s.touch(40, false);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn rejects_zero_capacity() {
        PageStore::new(0, PolicyKind::Lru, 0);
    }
}
