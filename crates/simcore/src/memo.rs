//! Cross-sweep sub-simulation memoization.
//!
//! Design-space sweeps evaluate dozens of points that differ only in
//! cost or provisioning parameters while replaying the *same* workload
//! traces through the *same* cache/memory sub-simulators. This module
//! provides the result cache that lets those points share their
//! sub-simulations: a sharded, content-addressed map from a canonical
//! 128-bit key (built from every input that can influence the result) to
//! the computed value.
//!
//! # Determinism
//!
//! Memoization is safe here because every cached computation in this
//! workspace is a *pure function of its key*: the key includes the trace
//! parameters, every seed, the access count, the cache geometry, and the
//! policy, and the simulators draw only from [`SimRng`](crate::SimRng)
//! streams derived from those seeds. A cache hit therefore returns the
//! bit-identical value a cold run would have produced. Under the
//! [`ThreadPool`](crate::ThreadPool), two workers racing on the same key
//! may both compute the value; both arrive at the same bits, the first
//! insert wins, and the loser's copy is dropped — scheduling order can
//! never leak into results.
//!
//! # Example
//! ```
//! use wcs_simcore::memo::{MemoCache, MemoKey};
//! let cache: MemoCache<u64> = MemoCache::new();
//! let key = MemoKey::new("square").push_u64(12).finish();
//! let v = cache.get_or_compute(key, || 12 * 12);
//! assert_eq!(v, 144);
//! assert_eq!(cache.get_or_compute(key, || unreachable!()), 144);
//! assert_eq!(cache.stats().hits, 1);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock a shard, recovering from poisoning. Shard state is a plain
/// `HashMap` mutated only by single `insert`/`clear` calls, so a panic
/// while the lock was held (e.g. a poisoned sweep cell under
/// `catch_unwind`) cannot leave a half-written entry behind.
fn lock_shard<V>(shard: &Mutex<HashMap<u128, V>>) -> MutexGuard<'_, HashMap<u128, V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of independent shards; keys are spread by their low bits so
/// concurrent sweep workers rarely contend on the same lock.
const SHARDS: usize = 16;

/// A canonical 128-bit content hash under construction.
///
/// Two independently seeded 64-bit FNV-style lanes, each finalized with
/// a strong bit mixer per push. Collisions across distinct input tuples
/// are cryptographically unlikely at the scale of a sweep (hundreds to
/// millions of keys), and the construction is fixed — keys are stable
/// across runs, platforms, and thread counts.
#[derive(Debug, Clone, Copy)]
pub struct MemoKey {
    lo: u64,
    hi: u64,
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    // SplitMix64 finalizer: full-avalanche over 64 bits.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl MemoKey {
    /// Starts a key for the named computation domain. Distinct domains
    /// ("storage-replay", "twolevel-run", ...) can never collide even on
    /// identical field sequences.
    pub fn new(domain: &str) -> Self {
        let mut key = MemoKey {
            lo: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            hi: 0x9E37_79B9_7F4A_7C15, // golden-ratio companion lane
        };
        key.absorb_bytes(domain.as_bytes());
        key
    }

    #[inline]
    fn absorb(&mut self, v: u64) {
        self.lo = mix64(self.lo ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        self.hi = mix64(self.hi.rotate_left(17) ^ v).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    }

    #[inline]
    fn absorb_bytes(&mut self, bytes: &[u8]) {
        self.absorb(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(word));
        }
    }

    /// Absorbs a raw 64-bit field.
    #[must_use]
    pub fn push_u64(mut self, v: u64) -> Self {
        self.absorb(v);
        self
    }

    /// Absorbs a 32-bit field.
    #[must_use]
    pub fn push_u32(self, v: u32) -> Self {
        self.push_u64(u64::from(v))
    }

    /// Absorbs a `usize` field.
    #[must_use]
    pub fn push_usize(self, v: usize) -> Self {
        self.push_u64(v as u64)
    }

    /// Absorbs a boolean field.
    #[must_use]
    pub fn push_bool(self, v: bool) -> Self {
        self.push_u64(u64::from(v))
    }

    /// Absorbs a float by its exact bit pattern — `-0.0` and `0.0` hash
    /// differently, NaNs by payload; what matters is that *equal inputs*
    /// produce equal keys, and bit patterns are the strictest reading.
    #[must_use]
    pub fn push_f64(self, v: f64) -> Self {
        self.push_u64(v.to_bits())
    }

    /// Absorbs a string field (length-prefixed, so `("ab","c")` and
    /// `("a","bc")` cannot collide).
    #[must_use]
    pub fn push_str(mut self, s: &str) -> Self {
        self.absorb_bytes(s.as_bytes());
        self
    }

    /// Absorbs any [`MemoHash`] value.
    #[must_use]
    pub fn push<T: MemoHash + ?Sized>(mut self, v: &T) -> Self {
        v.memo_hash(&mut self);
        self
    }

    /// Finalizes into the 128-bit cache key.
    pub fn finish(&self) -> u128 {
        let lo = mix64(self.lo ^ self.hi.rotate_left(32));
        let hi = mix64(self.hi ^ self.lo.rotate_left(32) ^ 0xD6E8_FEB8_6659_FD93);
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

/// Types that know how to feed their result-determining fields into a
/// [`MemoKey`].
///
/// Implementations must absorb **every** field that can influence a
/// computation consuming the value — a field omitted here is a field two
/// different computations can silently share a cache entry on.
pub trait MemoHash {
    /// Absorbs `self` into the key.
    fn memo_hash(&self, key: &mut MemoKey);
}

impl MemoHash for u64 {
    fn memo_hash(&self, key: &mut MemoKey) {
        key.absorb(*self);
    }
}

impl MemoHash for u32 {
    fn memo_hash(&self, key: &mut MemoKey) {
        key.absorb(u64::from(*self));
    }
}

impl MemoHash for usize {
    fn memo_hash(&self, key: &mut MemoKey) {
        key.absorb(*self as u64);
    }
}

impl MemoHash for bool {
    fn memo_hash(&self, key: &mut MemoKey) {
        key.absorb(u64::from(*self));
    }
}

impl MemoHash for f64 {
    fn memo_hash(&self, key: &mut MemoKey) {
        key.absorb(self.to_bits());
    }
}

impl MemoHash for str {
    fn memo_hash(&self, key: &mut MemoKey) {
        key.absorb_bytes(self.as_bytes());
    }
}

impl<T: MemoHash> MemoHash for Option<T> {
    fn memo_hash(&self, key: &mut MemoKey) {
        match self {
            None => key.absorb(0),
            Some(v) => {
                key.absorb(1);
                v.memo_hash(key);
            }
        }
    }
}

/// Hit/miss counters of a [`MemoCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed (and, when enabled, stored) the value.
    pub misses: u64,
}

impl MemoStats {
    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Component-wise sum of two counter sets.
    #[must_use]
    pub fn merged(&self, other: &MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

/// A sharded, content-addressed result cache.
///
/// Values are cloned out on every hit, so `V` should either be small
/// (plain stats structs) or an `Arc` around something big (a shared
/// trace buffer). A cache constructed with [`MemoCache::disabled`]
/// computes every lookup and stores nothing — the cold path, reachable
/// from every bench binary via `--no-memo`, where each trace is built
/// and dropped, uncached.
pub struct MemoCache<V> {
    shards: Vec<Mutex<HashMap<u128, V>>>,
    enabled: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V: Clone> MemoCache<V> {
    /// An empty, enabled cache.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A cache in bypass mode: every lookup recomputes, nothing is
    /// stored. Lookup keys are still counted as misses so hit-rate
    /// reporting stays meaningful.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// A cache that memoizes iff `enabled`.
    pub fn with_enabled(enabled: bool) -> Self {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            enabled,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Whether this cache stores results.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, V>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Returns the cached value for `key`, or computes, stores, and
    /// returns it.
    ///
    /// `compute` runs outside the shard lock, so memoized computations
    /// may freely perform nested lookups (even on this cache). If two
    /// threads race on the same key both compute the (identical) value
    /// and the first insert wins.
    pub fn get_or_compute(&self, key: u128, compute: impl FnOnce() -> V) -> V {
        if self.enabled {
            if let Some(v) = lock_shard(self.shard(key)).get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return v.clone();
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        if self.enabled {
            lock_shard(self.shard(key))
                .entry(key)
                .or_insert_with(|| v.clone());
        }
        v
    }

    /// Returns the cached value for `key` if present.
    pub fn get(&self, key: u128) -> Option<V> {
        if !self.enabled {
            return None;
        }
        lock_shard(self.shard(key)).get(&key).cloned()
    }

    /// Stores `value` under `key` unless an entry already exists
    /// (first-insert-wins, matching the racing-compute semantics of
    /// [`get_or_compute`](Self::get_or_compute)). Returns `true` when the
    /// value was stored. No-op (returning `false`) on a disabled cache.
    ///
    /// This is the journal-replay seeding path: a resumed run pre-loads
    /// cells recovered from the write-ahead journal before any compute
    /// happens, so lookups on those keys hit without recomputing.
    pub fn insert(&self, key: u128, value: V) -> bool {
        if !self.enabled {
            return false;
        }
        let mut shard = lock_shard(self.shard(key));
        if shard.contains_key(&key) {
            return false;
        }
        shard.insert(key, value);
        true
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            lock_shard(s).clear();
        }
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<V: Clone> Default for MemoCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

// `Debug` without requiring `V: Debug` — cached values can be large
// trace buffers.
impl<V> fmt::Debug for MemoCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoCache")
            .field("enabled", &self.enabled)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_field_sensitive() {
        let a = MemoKey::new("d").push_u64(1).push_f64(0.25).finish();
        let b = MemoKey::new("d").push_u64(1).push_f64(0.25).finish();
        assert_eq!(a, b);
        assert_ne!(a, MemoKey::new("d").push_u64(2).push_f64(0.25).finish());
        assert_ne!(a, MemoKey::new("d").push_u64(1).push_f64(0.5).finish());
        assert_ne!(a, MemoKey::new("e").push_u64(1).push_f64(0.25).finish());
    }

    #[test]
    fn field_order_and_domain_matter() {
        let ab = MemoKey::new("d").push_u64(7).push_u64(9).finish();
        let ba = MemoKey::new("d").push_u64(9).push_u64(7).finish();
        assert_ne!(ab, ba);
        // Length-prefixed strings: ("ab","c") vs ("a","bc") differ.
        let s1 = MemoKey::new("d").push_str("ab").push_str("c").finish();
        let s2 = MemoKey::new("d").push_str("a").push_str("bc").finish();
        assert_ne!(s1, s2);
    }

    #[test]
    fn cache_hits_after_first_compute() {
        let cache: MemoCache<u64> = MemoCache::new();
        let key = MemoKey::new("t").push_u64(3).finish();
        assert_eq!(cache.get_or_compute(key, || 9), 9);
        assert_eq!(cache.get_or_compute(key, || panic!("must hit")), 9);
        assert_eq!(cache.stats(), MemoStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_always_recomputes() {
        let cache: MemoCache<u64> = MemoCache::disabled();
        let key = MemoKey::new("t").push_u64(3).finish();
        let mut calls = 0;
        for _ in 0..3 {
            cache.get_or_compute(key, || {
                calls += 1;
                42
            });
        }
        assert_eq!(calls, 3);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache: MemoCache<u64> = MemoCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..200u64 {
                        let key = MemoKey::new("t").push_u64(i % 32).finish();
                        let v = cache.get_or_compute(key, || (i % 32) * 3);
                        assert_eq!(v, (i % 32) * 3);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 32);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 1600);
    }

    #[test]
    fn insert_is_first_insert_wins() {
        let cache: MemoCache<u64> = MemoCache::new();
        let key = MemoKey::new("seed").push_u64(1).finish();
        assert!(cache.insert(key, 10));
        assert!(!cache.insert(key, 20), "second insert loses");
        assert_eq!(cache.get(key), Some(10));
        // get_or_compute hits the seeded value without computing.
        assert_eq!(cache.get_or_compute(key, || panic!("must hit")), 10);

        let off: MemoCache<u64> = MemoCache::disabled();
        assert!(!off.insert(key, 10));
        assert_eq!(off.get(key), None);
    }

    #[test]
    fn poisoned_shard_recovers() {
        // Panic while holding a shard lock (via compute that panics inside
        // get_or_compute's *unlocked* section cannot poison; poison the
        // shard directly through a scoped thread instead).
        let cache: MemoCache<u64> = MemoCache::new();
        let key = MemoKey::new("p").push_u64(5).finish();
        assert!(cache.insert(key, 7));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock_shard(cache.shard(key));
            panic!("poison the shard");
        }));
        assert!(result.is_err());
        // The cache still serves reads and writes after the poisoning.
        assert_eq!(cache.get(key), Some(7));
        let key2 = MemoKey::new("p").push_u64(6).finish();
        assert_eq!(cache.get_or_compute(key2, || 11), 11);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn option_and_stats_helpers() {
        let mut key = MemoKey::new("o");
        None::<u64>.memo_hash(&mut key);
        let none = key.finish();
        let some = MemoKey::new("o").push(&Some(0u64)).finish();
        assert_ne!(none, some);
        let s = MemoStats { hits: 3, misses: 1 };
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(
            s.merged(&MemoStats { hits: 1, misses: 1 }),
            MemoStats { hits: 4, misses: 2 }
        );
    }
}
