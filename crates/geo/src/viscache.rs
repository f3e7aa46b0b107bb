//! Memoized tile-visibility queries: the hot-path cache.
//!
//! Every layer of the stack — the rate adaptor, the HMP evaluators, the
//! live path, the fleet model — bottoms out in
//! [`Viewport::visible_tiles`], which casts a ray grid and runs
//! trig-heavy projection math per sample. The same gaze orientation is
//! re-queried many times per simulated second, so a [`VisibilityCache`]
//! memoizes *exact* results keyed by the orientation's f64 bit patterns
//! plus the grid shape and sample density. Because the key is the exact
//! bit pattern and the stored value is the exact computed result, a
//! cache hit is bit-identical to recomputation by construction — the
//! golden trace digests cannot tell the difference.
//!
//! The handle is an `Arc<Mutex<..>>` (like `TraceSink`): clones share
//! one memo, and a player config or crowd aggregator holding one stays
//! `Send + Sync`, so a sweep closure that captures it can run on every
//! worker thread. Determinism does not depend on the hit pattern: the key is
//! the exact bit pattern and the stored value the exact computed result,
//! so a hit and a recomputation are indistinguishable, whichever
//! sessions share the handle and in whatever order they query it.

use crate::tiling::{TileGrid, TileId};
use crate::viewport::{Viewport, VisibilityScratch};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

/// A fast multiply-rotate hasher for [`VisKey`] lookups (FxHash-style).
/// The memo map sits on the per-display hot path, where SipHash over
/// the 46-byte key costs more than the rest of a cache hit combined;
/// keys are trusted simulation state, so DoS hardening buys nothing.
/// Purely an internal detail: hit patterns and results are unchanged.
#[derive(Default)]
struct VisKeyHasher(u64);

impl Hasher for VisKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n as u64);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x517c_c1b7_2722_0a95)
            .rotate_left(5);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type VisKeyMap = HashMap<VisKey, Entry, BuildHasherDefault<VisKeyHasher>>;

/// Exact memoization key: the f64 bit patterns of the viewport's
/// orientation and FoV extents, the grid shape, and the sample density.
/// Two viewports compare equal here iff `visible_tiles` would perform
/// the identical computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VisKey {
    yaw: u64,
    pitch: u64,
    roll: u64,
    hfov: u64,
    vfov: u64,
    rows: u16,
    cols: u16,
    samples: u32,
}

impl VisKey {
    /// The key for one `(viewport, grid, samples)` query.
    pub fn new(viewport: &Viewport, grid: &TileGrid, samples: u32) -> VisKey {
        VisKey {
            yaw: viewport.orientation.yaw.to_bits(),
            pitch: viewport.orientation.pitch.to_bits(),
            roll: viewport.orientation.roll.to_bits(),
            hfov: viewport.hfov.to_bits(),
            vfov: viewport.vfov.to_bits(),
            rows: grid.rows,
            cols: grid.cols,
            samples,
        }
    }
}

/// Hit/miss/eviction counters of one cache, plus its occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VisCacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to compute (and store) a fresh result.
    pub misses: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// The LRU bound (0 when the cache is disabled).
    pub capacity: usize,
}

#[derive(Debug)]
struct Entry {
    tiles: Arc<[(TileId, f64)]>,
    /// Monotone use tick; strictly increasing over touches, so LRU
    /// eviction has a unique, deterministic victim.
    last_used: u64,
}

#[derive(Debug)]
struct CacheInner {
    capacity: usize,
    tick: u64,
    entries: VisKeyMap,
    scratch: VisibilityScratch,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded LRU memo of exact [`Viewport::visible_tiles`] results.
///
/// The handle is cheap to clone (`Arc`); clones share one cache, which
/// is how a cache is threaded through a session's subsystems. See the
/// [module docs](self) for the bit-exactness and threading contract.
///
/// ```
/// use sperke_geo::{Orientation, TileGrid, Viewport, VisibilityCache};
///
/// let cache = VisibilityCache::new(64);
/// let grid = TileGrid::new(4, 6);
/// let vp = Viewport::headset(Orientation::from_degrees(30.0, 10.0, 0.0));
/// let first = cache.visible_tiles(&vp, &grid, 16);
/// let again = cache.visible_tiles(&vp, &grid, 16); // memo hit
/// assert_eq!(first, again);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct VisibilityCache {
    inner: Option<Arc<Mutex<CacheInner>>>,
}

/// Lock the cache state, surviving a poisoned mutex (a panicking
/// worker must not mask the original failure with a second one).
fn lock(inner: &Mutex<CacheInner>) -> MutexGuard<'_, CacheInner> {
    inner.lock().unwrap_or_else(|p| p.into_inner())
}

/// Default LRU bound: generously covers a session's working set of
/// distinct (gaze, grid, density) queries while keeping the worst-case
/// eviction scan trivial.
pub const DEFAULT_VIS_CACHE_CAPACITY: usize = 256;

impl Default for VisibilityCache {
    fn default() -> Self {
        VisibilityCache::new(DEFAULT_VIS_CACHE_CAPACITY)
    }
}

impl VisibilityCache {
    /// A cache bounded to `capacity` entries (LRU eviction).
    pub fn new(capacity: usize) -> VisibilityCache {
        assert!(
            capacity > 0,
            "capacity must be positive; use disabled() to turn caching off"
        );
        VisibilityCache {
            inner: Some(Arc::new(Mutex::new(CacheInner {
                capacity,
                tick: 0,
                entries: VisKeyMap::with_capacity_and_hasher(
                    capacity.min(1024),
                    BuildHasherDefault::default(),
                ),
                scratch: VisibilityScratch::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }))),
        }
    }

    /// A no-op handle: every query recomputes and nothing is stored.
    /// Useful as an uncached baseline through the exact same call path.
    pub fn disabled() -> VisibilityCache {
        VisibilityCache { inner: None }
    }

    /// Whether this handle memoizes at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Memoized [`Viewport::visible_tiles`]: bit-identical results, with
    /// repeat queries answered by an `Arc` clone (no recomputation, no
    /// allocation).
    pub fn visible_tiles(
        &self,
        viewport: &Viewport,
        grid: &TileGrid,
        samples: u32,
    ) -> Arc<[(TileId, f64)]> {
        let inner = match &self.inner {
            None => return Arc::from(viewport.visible_tiles(grid, samples)),
            Some(inner) => inner,
        };
        let key = VisKey::new(viewport, grid, samples);
        let mut inner = lock(inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_used = tick;
            let tiles = Arc::clone(&entry.tiles);
            inner.hits += 1;
            return tiles;
        }
        inner.misses += 1;
        let mut out = Vec::new();
        viewport.visible_tiles_into(grid, samples, &mut inner.scratch, &mut out);
        let tiles: Arc<[(TileId, f64)]> = Arc::from(out);
        if inner.entries.len() >= inner.capacity {
            // Evict the least-recently-used entry. Ticks are unique, so
            // the victim is deterministic regardless of map iteration
            // order (results would be identical either way — eviction
            // only ever forces recomputation of the same exact value).
            if let Some(&victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.entries.remove(&victim);
                inner.evictions += 1;
            }
        }
        inner.entries.insert(
            key,
            Entry {
                tiles: Arc::clone(&tiles),
                last_used: tick,
            },
        );
        tiles
    }

    /// Memoized [`Viewport::visible_tile_set`]: the visible tile ids at
    /// the default sampling density, sorted by id. Identical to the
    /// uncached method.
    pub fn visible_tile_set(&self, viewport: &Viewport, grid: &TileGrid) -> Vec<TileId> {
        let mut tiles: Vec<TileId> = self
            .visible_tiles(viewport, grid, 16)
            .iter()
            .map(|&(t, _)| t)
            .collect();
        tiles.sort();
        tiles
    }

    /// Current counters and occupancy. A disabled handle reports zeros.
    pub fn stats(&self) -> VisCacheStats {
        match &self.inner {
            None => VisCacheStats::default(),
            Some(inner) => {
                let inner = lock(inner);
                VisCacheStats {
                    hits: inner.hits,
                    misses: inner.misses,
                    evictions: inner.evictions,
                    len: inner.entries.len(),
                    capacity: inner.capacity,
                }
            }
        }
    }

    /// Drop every memoized entry (counters survive).
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            lock(inner).entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::Orientation;

    fn vp(yaw: f64, pitch: f64) -> Viewport {
        Viewport::headset(Orientation::from_degrees(yaw, pitch, 0.0))
    }

    #[test]
    fn hit_returns_bit_identical_result() {
        let cache = VisibilityCache::new(8);
        let grid = TileGrid::new(4, 6);
        let v = vp(33.0, -12.0);
        let uncached = v.visible_tiles(&grid, 16);
        let miss = cache.visible_tiles(&v, &grid, 16);
        let hit = cache.visible_tiles(&v, &grid, 16);
        for (a, b) in uncached.iter().zip(miss.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert!(
            Arc::ptr_eq(&miss, &hit),
            "a hit shares the stored allocation"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = VisibilityCache::new(16);
        let grid_a = TileGrid::new(4, 6);
        let grid_b = TileGrid::new(2, 4);
        let v = vp(10.0, 5.0);
        let a = cache.visible_tiles(&v, &grid_a, 16);
        let b = cache.visible_tiles(&v, &grid_b, 16);
        let c = cache.visible_tiles(&v, &grid_a, 12);
        assert_eq!(
            cache.stats().misses,
            3,
            "grid shape and density are part of the key"
        );
        assert_ne!(a.len(), 0);
        assert_ne!(b.len(), 0);
        assert_ne!(c.len(), 0);
    }

    #[test]
    fn lru_evicts_oldest_and_never_changes_results() {
        let cache = VisibilityCache::new(2);
        let grid = TileGrid::new(4, 6);
        let views = [vp(0.0, 0.0), vp(45.0, 10.0), vp(-90.0, -20.0)];
        // Fill (2 misses), touch views[1], then overflow with views[2]:
        // views[0] is the LRU victim.
        cache.visible_tiles(&views[0], &grid, 16);
        cache.visible_tiles(&views[1], &grid, 16);
        cache.visible_tiles(&views[1], &grid, 16);
        cache.visible_tiles(&views[2], &grid, 16);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
        // The evicted query recomputes — to the same bits.
        let recomputed = cache.visible_tiles(&views[0], &grid, 16);
        let fresh = views[0].visible_tiles(&grid, 16);
        for (a, b) in recomputed.iter().zip(&fresh) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn tile_set_matches_uncached() {
        let cache = VisibilityCache::default();
        let grid = TileGrid::new(4, 6);
        for &(y, p) in &[(0.0, 0.0), (120.0, 33.0), (-77.0, -45.0)] {
            let v = vp(y, p);
            assert_eq!(cache.visible_tile_set(&v, &grid), v.visible_tile_set(&grid));
        }
    }

    #[test]
    fn disabled_handle_computes_and_stores_nothing() {
        let cache = VisibilityCache::disabled();
        let grid = TileGrid::new(4, 6);
        let v = vp(20.0, 0.0);
        let a = cache.visible_tiles(&v, &grid, 16);
        let b = cache.visible_tiles(&v, &grid, 16);
        assert!(!cache.is_enabled());
        assert!(!Arc::ptr_eq(&a, &b), "no memoization when disabled");
        assert_eq!(cache.stats(), VisCacheStats::default());
    }

    #[test]
    fn clones_share_one_cache() {
        let cache = VisibilityCache::new(8);
        let clone = cache.clone();
        let grid = TileGrid::new(4, 6);
        clone.visible_tiles(&vp(5.0, 5.0), &grid, 16);
        assert_eq!(cache.stats().misses, 1);
        cache.visible_tiles(&vp(5.0, 5.0), &grid, 16);
        assert_eq!(clone.stats().hits, 1);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        VisibilityCache::new(0);
    }
}
