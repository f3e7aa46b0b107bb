//! The edge's shared tile-chunk cache.
//!
//! One bounded store keyed by `(chunk, tile, layer)` — the unit a
//! viewport-class delivery system actually reuses across viewers. A hit
//! costs the edge nothing upstream; a miss pulls the layer over the
//! origin backhaul exactly once, however many clients are waiting on it.
//! Eviction is least-recently-used on a monotone logical tick (every
//! touch stamps a fresh, unique tick), so for a given access sequence
//! the eviction schedule is fully deterministic — the same property the
//! geometry [`VisibilityCache`](sperke_geo::VisibilityCache) pins down.
//!
//! # Recency queue
//!
//! Victims come from a recency queue of `(tick, key)` slots kept next
//! to the entry map, so eviction costs O(1) amortised rather than a scan
//! of every resident entry:
//!
//! * Every stamp — an insert, or a lookup hit — pushes one slot to the
//!   back. An entry's own `last_used` is the tick of its newest slot.
//! * Older slots are deleted lazily. A slot is *stale* once its key is
//!   gone or its tick is no longer the key's `last_used`; eviction pops
//!   from the front and skips stale slots.
//! * Ticks are unique and pushed in increasing order, and each resident
//!   entry owns exactly one live slot. The first live slot is therefore
//!   the entry with the minimum `last_used`: the victim a full
//!   `min_by_key` scan would pick. The eviction order — and with it every
//!   hit, miss and counter downstream — is unchanged by the index.
//! * Hit-heavy traffic that never evicts would grow the queue without
//!   bound, so once it holds more than `2 × len + 64` slots it is
//!   compacted to its live slots. At that point more than half the slots
//!   are stale, each paid for by the push that made it, so compaction
//!   costs O(1) amortised and the queue stays within that bound after
//!   every operation.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Identity of one cacheable unit: a tile's SVC layer for one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Chunk time index.
    pub chunk: u32,
    /// Tile index.
    pub tile: u16,
    /// SVC layer (0 = base).
    pub layer: u8,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    bytes: u64,
    last_used: u64,
}

/// Running cache counters. Byte fields balance exactly against origin
/// traffic: every miss and every prefetch moves its bytes over the
/// backhaul once, every hit moves none (see `tests/edge.rs` proptests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileCacheStats {
    /// Lookups answered from the cache (resident or already in flight;
    /// includes `coalesced_hits`).
    pub hits: u64,
    /// Lookups that triggered an origin fetch.
    pub misses: u64,
    /// Bytes served without touching the origin (includes
    /// `coalesced_hit_bytes`).
    pub hit_bytes: u64,
    /// Hits coalesced onto an origin fetch already in flight rather than
    /// answered by a resident entry; `hits - coalesced_hits` are the
    /// resident hits.
    pub coalesced_hits: u64,
    /// Bytes of the coalesced hits.
    pub coalesced_hit_bytes: u64,
    /// Bytes pulled from the origin on demand.
    pub miss_bytes: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Bytes evicted by the LRU bound.
    pub evicted_bytes: u64,
    /// Entries inserted by the crowd prefetcher.
    pub prefetches: u64,
    /// Bytes pulled from the origin by the crowd prefetcher.
    pub prefetch_bytes: u64,
}

/// Is the recency slot `(tick, key)` live — `key` resident and last
/// stamped at `tick`? Any other slot is stale.
fn is_live(entries: &HashMap<CacheKey, Entry>, tick: u64, key: CacheKey) -> bool {
    entries.get(&key).is_some_and(|e| e.last_used == tick)
}

/// A bounded, deterministic LRU over tile-chunk layers, sized in bytes.
///
/// A capacity of `0` disables caching entirely: every lookup misses and
/// nothing is ever stored — the no-cache baseline an edge is compared
/// against.
#[derive(Debug, Clone)]
pub struct TileCache {
    capacity_bytes: u64,
    used_bytes: u64,
    entries: HashMap<CacheKey, Entry>,
    /// `(tick, key)` per stamp, oldest first; see the module docs.
    recency: VecDeque<(u64, CacheKey)>,
    tick: u64,
    stats: TileCacheStats,
}

impl TileCache {
    /// A cache bounded to `capacity_bytes` (0 disables caching).
    pub fn new(capacity_bytes: u64) -> TileCache {
        TileCache {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            recency: VecDeque::new(),
            tick: 0,
            stats: TileCacheStats::default(),
        }
    }

    /// True when the capacity is zero (the no-cache baseline).
    pub fn is_disabled(&self) -> bool {
        self.capacity_bytes == 0
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The running counters.
    pub fn stats(&self) -> TileCacheStats {
        self.stats
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Queue the stamp `(tick, key)`, which the caller has just written
    /// to the entry's `last_used`, compacting the queue to its live slots
    /// once it outgrows `2 × len + 64`.
    fn push_recency(&mut self, tick: u64, key: CacheKey) {
        self.recency.push_back((tick, key));
        if self.recency.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.recency.retain(|&(t, k)| is_live(entries, t, k));
        }
    }

    /// Slots currently queued, live and stale.
    #[cfg(test)]
    fn recency_slots(&self) -> usize {
        self.recency.len()
    }

    /// Is `key` resident? Touches (refreshes) the entry on success and
    /// records a hit of `bytes`; records a miss otherwise. The caller
    /// decides what a miss means (origin fetch, coalesced wait, ...).
    pub fn lookup(&mut self, key: CacheKey, bytes: u64) -> bool {
        let tick = self.next_tick();
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                self.stats.hits += 1;
                self.stats.hit_bytes += bytes;
                self.push_recency(tick, key);
                true
            }
            None => {
                self.stats.misses += 1;
                self.stats.miss_bytes += bytes;
                false
            }
        }
    }

    /// Record a hit that never consults residency — a lookup coalesced
    /// onto an origin fetch already in flight. The bytes are served from
    /// the shared fetch, so upstream they cost nothing extra.
    pub fn record_coalesced_hit(&mut self, bytes: u64) {
        self.stats.hits += 1;
        self.stats.hit_bytes += bytes;
        self.stats.coalesced_hits += 1;
        self.stats.coalesced_hit_bytes += bytes;
    }

    /// Record a prefetch insertion decision (bytes will cross the
    /// backhaul once for it).
    pub fn record_prefetch(&mut self, bytes: u64) {
        self.stats.prefetches += 1;
        self.stats.prefetch_bytes += bytes;
    }

    /// Insert `key` (no-op when disabled, or when the layer alone
    /// exceeds the whole capacity). Evicts least-recently-used entries
    /// until the new entry fits, popping them off the front of the
    /// recency queue and skipping stale slots. The first live slot holds
    /// the minimum `last_used` of all resident entries, and ticks are
    /// unique, so the victim order is exactly that of a scan for the
    /// least-recently-used entry, hence deterministic.
    pub fn insert(&mut self, key: CacheKey, bytes: u64) {
        if self.is_disabled() || bytes > self.capacity_bytes {
            return;
        }
        if let Some(old) = self.entries.remove(&key) {
            self.used_bytes -= old.bytes;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let (tick, victim) = self
                .recency
                .pop_front()
                .expect("over-budget cache has a live slot");
            if !is_live(&self.entries, tick, victim) {
                continue;
            }
            let gone = self.entries.remove(&victim).expect("victim resident");
            self.used_bytes -= gone.bytes;
            self.stats.evictions += 1;
            self.stats.evicted_bytes += gone.bytes;
        }
        let tick = self.next_tick();
        self.entries.insert(
            key,
            Entry {
                bytes,
                last_used: tick,
            },
        );
        self.used_bytes += bytes;
        self.push_recency(tick, key);
    }

    /// Is `key` resident, without touching LRU state or counters?
    pub fn contains(&self, key: CacheKey) -> bool {
        self.entries.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(chunk: u32, tile: u16, layer: u8) -> CacheKey {
        CacheKey { chunk, tile, layer }
    }

    /// The reference LRU: victims chosen by a full `min_by_key` scan
    /// over `last_used`. The recency queue must reproduce it exactly.
    #[derive(Default)]
    struct ScanLru {
        capacity_bytes: u64,
        used_bytes: u64,
        entries: HashMap<CacheKey, Entry>,
        tick: u64,
        stats: TileCacheStats,
    }

    impl ScanLru {
        fn new(capacity_bytes: u64) -> ScanLru {
            ScanLru {
                capacity_bytes,
                ..Default::default()
            }
        }

        fn next_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn lookup(&mut self, key: CacheKey, bytes: u64) -> bool {
            let tick = self.next_tick();
            match self.entries.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = tick;
                    self.stats.hits += 1;
                    self.stats.hit_bytes += bytes;
                    true
                }
                None => {
                    self.stats.misses += 1;
                    self.stats.miss_bytes += bytes;
                    false
                }
            }
        }

        fn insert(&mut self, key: CacheKey, bytes: u64) {
            if self.capacity_bytes == 0 || bytes > self.capacity_bytes {
                return;
            }
            if let Some(old) = self.entries.remove(&key) {
                self.used_bytes -= old.bytes;
            }
            while self.used_bytes + bytes > self.capacity_bytes {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("over-budget cache is non-empty");
                let gone = self.entries.remove(&victim).expect("victim resident");
                self.used_bytes -= gone.bytes;
                self.stats.evictions += 1;
                self.stats.evicted_bytes += gone.bytes;
            }
            let tick = self.next_tick();
            self.entries.insert(
                key,
                Entry {
                    bytes,
                    last_used: tick,
                },
            );
            self.used_bytes += bytes;
        }

        fn record_coalesced_hit(&mut self, bytes: u64) {
            self.stats.hits += 1;
            self.stats.hit_bytes += bytes;
            self.stats.coalesced_hits += 1;
            self.stats.coalesced_hit_bytes += bytes;
        }

        fn record_prefetch(&mut self, bytes: u64) {
            self.stats.prefetches += 1;
            self.stats.prefetch_bytes += bytes;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The recency queue picks the same victims as the reference
        /// scan, in the same order: after every operation both caches
        /// agree on counters, bytes, size and residency.
        #[test]
        fn recency_queue_matches_the_reference_scan(
            cap_pick in 0usize..6,
            ops in proptest::collection::vec((0u8..5, 0u32..16, 1u64..41), 1..200),
        ) {
            // Disabled, smaller than any entry, a few entries wide.
            let capacity = [0u64, 1, 40, 64, 120, 300][cap_pick];
            let mut cache = TileCache::new(capacity);
            let mut oracle = ScanLru::new(capacity);
            let mut seen: Vec<CacheKey> = Vec::new();
            for (op, k, bytes) in ops {
                let mut target = key(k / 4, (k % 4) as u16, (k % 2) as u8);
                match op {
                    0 => {
                        let hit = cache.lookup(target, bytes);
                        prop_assert_eq!(hit, oracle.lookup(target, bytes));
                    }
                    1 | 2 => {
                        if op == 2 {
                            // Re-insert a resident key under a new size.
                            let mut resident: Vec<CacheKey> =
                                oracle.entries.keys().copied().collect();
                            resident.sort();
                            if let Some(&r) = resident.get(k as usize % resident.len().max(1)) {
                                target = r;
                            }
                        }
                        cache.insert(target, bytes);
                        oracle.insert(target, bytes);
                    }
                    3 => {
                        cache.record_coalesced_hit(bytes);
                        oracle.record_coalesced_hit(bytes);
                    }
                    _ => {
                        cache.record_prefetch(bytes);
                        oracle.record_prefetch(bytes);
                    }
                }
                if !seen.contains(&target) {
                    seen.push(target);
                }
                prop_assert_eq!(cache.stats(), oracle.stats);
                prop_assert_eq!(cache.used_bytes(), oracle.used_bytes);
                prop_assert_eq!(cache.len(), oracle.entries.len());
                for &s in &seen {
                    prop_assert_eq!(cache.contains(s), oracle.entries.contains_key(&s));
                }
                prop_assert!(cache.recency_slots() <= 2 * cache.len() + 64);
            }
        }
    }

    #[test]
    fn recency_queue_stays_bounded_under_hit_only_traffic() {
        // A flash crowd: a small resident set hit over and over, with no
        // evictions to drain the queue from the front.
        let mut c = TileCache::new(1 << 20);
        let keys: Vec<CacheKey> = (0..12).map(|i| key(i / 3, (i % 3) as u16, 0)).collect();
        for &k in &keys {
            c.insert(k, 1000);
        }
        let mut peak = 0;
        for i in 0..1_200_000usize {
            assert!(c.lookup(keys[i * 7 % keys.len()], 1000));
            let slots = c.recency_slots();
            assert!(
                slots <= 2 * c.len() + 64,
                "{slots} slots for {} entries after {i} hits",
                c.len()
            );
            peak = peak.max(slots);
        }
        assert_eq!(c.len(), keys.len());
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(
            peak,
            2 * keys.len() + 64,
            "compaction triggers at the bound"
        );
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = TileCache::new(1000);
        assert!(!c.lookup(key(0, 1, 0), 100));
        c.insert(key(0, 1, 0), 100);
        assert!(c.lookup(key(0, 1, 0), 100));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!((s.hit_bytes, s.miss_bytes), (100, 100));
        // A coalesced hit counts in the totals and apart from them.
        c.record_coalesced_hit(40);
        let s = c.stats();
        assert_eq!((s.hits, s.hit_bytes), (2, 140));
        assert_eq!((s.coalesced_hits, s.coalesced_hit_bytes), (1, 40));
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = TileCache::new(300);
        c.insert(key(0, 0, 0), 100);
        c.insert(key(0, 1, 0), 100);
        c.insert(key(0, 2, 0), 100);
        // Touch tile 0 so tile 1 is now the LRU victim.
        assert!(c.lookup(key(0, 0, 0), 100));
        c.insert(key(0, 3, 0), 100);
        assert!(c.contains(key(0, 0, 0)));
        assert!(!c.contains(key(0, 1, 0)), "LRU victim evicted");
        assert!(c.contains(key(0, 2, 0)));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().evicted_bytes, 100);
        assert_eq!(c.used_bytes(), 300);
    }

    #[test]
    fn disabled_cache_never_stores() {
        let mut c = TileCache::new(0);
        assert!(c.is_disabled());
        c.insert(key(0, 0, 0), 10);
        assert!(c.is_empty());
        assert!(!c.lookup(key(0, 0, 0), 10));
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn oversized_entry_is_not_cached() {
        let mut c = TileCache::new(50);
        c.insert(key(0, 0, 0), 51);
        assert!(c.is_empty());
        c.insert(key(0, 1, 0), 50);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn reinsert_replaces_without_double_count() {
        let mut c = TileCache::new(500);
        c.insert(key(1, 2, 0), 200);
        c.insert(key(1, 2, 0), 300);
        assert_eq!(c.used_bytes(), 300);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_schedule_is_deterministic() {
        // Same access sequence twice: identical stats and residency.
        let run = || {
            let mut c = TileCache::new(350);
            for i in 0..40u32 {
                let k = key(i % 7, (i % 5) as u16, (i % 2) as u8);
                if !c.lookup(k, 60 + (i as u64 % 3) * 10) {
                    c.insert(k, 60 + (i as u64 % 3) * 10);
                }
            }
            (c.stats(), c.used_bytes(), c.len())
        };
        assert_eq!(run(), run());
    }
}
