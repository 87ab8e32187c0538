//! Plan cache: memoizes the planner's decisions across requests.
//!
//! An entry is the per-key part of serving a request — the plan and its
//! certified bound, microseconds of arithmetic to rebuild — plus a shared
//! handle to the chosen format's quantized and packed weights, which the
//! server keeps outside this cache (one set per format, never evicted).
//! Evicting an entry therefore drops no weights, and a miss re-derives
//! none.
//!
//! A plan depends on the model, the tolerance, the norm the tolerance is
//! expressed in, and the payload layout.  Tolerances are continuous, so
//! they are **bucketed downward in log space**: a request for tolerance
//! `τ` maps to the largest bucket floor `τ_b ≤ τ`, and the cached plan is
//! computed *at the floor*.  Its certified bound is therefore ≤ `τ_b ≤ τ`
//! — every request served from the bucket keeps a sound (merely slightly
//! conservative) guarantee.  With [`BUCKETS_PER_DECADE`] = 4, the floor is
//! at worst `10^(1/4) ≈ 1.78×` tighter than requested.
//!
//! Eviction is LRU over a fixed capacity; hit/miss counters feed the
//! server's stats surface.

use errflow_obs::ScopedCounter;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Log-space tolerance buckets per decade.
pub const BUCKETS_PER_DECADE: f64 = 4.0;

/// Maps a relative tolerance to its bucket index and the bucket's floor
/// tolerance (`floor ≤ tol`, the value plans are computed at).
pub fn bucket_tolerance(tol: f64) -> (i32, f64) {
    assert!(tol > 0.0 && tol.is_finite(), "tolerance must be positive");
    let mut idx = (tol.log10() * BUCKETS_PER_DECADE).floor() as i32;
    let mut floor = 10f64.powf(idx as f64 / BUCKETS_PER_DECADE);
    // Guard the exact-boundary case where rounding puts the floor a ulp
    // above the request; soundness requires floor ≤ tol.
    if floor > tol {
        idx -= 1;
        floor = 10f64.powf(idx as f64 / BUCKETS_PER_DECADE);
    }
    (idx, floor)
}

/// Cache key: everything a pipeline plan depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Fingerprint of the served model (one server serves one model today,
    /// but the key keeps cache entries valid if that ever changes).
    pub model_id: u64,
    /// Log-space tolerance bucket from [`bucket_tolerance`].
    pub tol_bucket: i32,
    /// Norm discriminant (0 = L2, 1 = L∞).
    pub norm: u8,
    /// Payload-layout discriminant (0 = feature-major, 1 = sample-major).
    pub layout: u8,
}

struct Entry<V> {
    value: Arc<V>,
    /// Monotonic last-use stamp; smallest = least recently used.
    stamp: u64,
}

/// A thread-safe LRU cache from [`PlanKey`] to prepared plans.
pub struct PlanCache<V> {
    capacity: usize,
    map: Mutex<(HashMap<PlanKey, Entry<V>>, u64)>,
    /// Per-instance hit/miss counters, mirrored into the process-wide
    /// `serve.plan_cache.{hits,misses}` registry metrics.
    hits: ScopedCounter,
    misses: ScopedCounter,
}

impl<V> PlanCache<V> {
    /// Creates a cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        PlanCache {
            capacity,
            map: Mutex::new((HashMap::new(), 0)),
            hits: ScopedCounter::new("serve.plan_cache.hits"),
            misses: ScopedCounter::new("serve.plan_cache.misses"),
        }
    }

    /// Returns the cached plan for `key`, building and inserting it with
    /// `build` on a miss.  The boolean is `true` on a hit.
    ///
    /// `build` runs under the cache lock, which intentionally serialises
    /// concurrent misses on the same key: one worker plans, the rest hit.
    /// The server's `build` is the plan arithmetic and an `Arc::clone`
    /// (microseconds); only the first build that selects a given weight
    /// format also quantizes and packs that format's weights under the
    /// lock, at most five times in a server's life.
    pub fn get_or_insert_with(&self, key: PlanKey, build: impl FnOnce() -> V) -> (Arc<V>, bool) {
        let mut guard = errflow_tensor::sync::lock_recover(&self.map);
        let (map, stamp) = &mut *guard;
        *stamp += 1;
        if let Some(e) = map.get_mut(&key) {
            e.stamp = *stamp;
            self.hits.inc();
            return (Arc::clone(&e.value), true);
        }
        self.misses.inc();
        if map.len() >= self.capacity {
            // `capacity > 0` and the map is at capacity, so an LRU entry
            // exists; a (theoretically) empty map just skips eviction.
            if let Some(lru) = map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                map.remove(&lru);
            }
        }
        let value = Arc::new(build());
        map.insert(
            key,
            Entry {
                value: Arc::clone(&value),
                stamp: *stamp,
            },
        );
        (value, false)
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        errflow_tensor::sync::lock_recover(&self.map).0.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache (this instance only).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to plan from scratch (this instance only).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: i32) -> PlanKey {
        PlanKey {
            model_id: 1,
            tol_bucket: b,
            norm: 0,
            layout: 0,
        }
    }

    #[test]
    fn bucket_floor_never_exceeds_tolerance() {
        let mut rng = errflow_tensor::rng::StdRng::seed_from_u64(0x5EED);
        for _ in 0..1000 {
            let tol = 10f64.powf(rng.gen_range(-8.0f64..1.0));
            let (_, floor) = bucket_tolerance(tol);
            assert!(floor <= tol, "floor {floor} > tol {tol}");
            // Never more than one bucket width below.
            assert!(
                floor > tol / 10f64.powf(1.0 / BUCKETS_PER_DECADE) * 0.999,
                "floor {floor} too far below tol {tol}"
            );
        }
    }

    #[test]
    fn bucketing_is_monotone_and_stable() {
        let (i1, f1) = bucket_tolerance(1e-3);
        let (i2, f2) = bucket_tolerance(1.2e-3);
        let (i3, _) = bucket_tolerance(9e-3);
        assert_eq!(i1, i2, "nearby tolerances share a bucket");
        assert_eq!(f1, f2);
        assert!(i3 > i1, "larger tolerance gets a larger bucket");
        // Exact power of ten is its own floor.
        let (_, f) = bucket_tolerance(1e-2);
        assert!((f - 1e-2).abs() < 1e-15);
    }

    #[test]
    fn hit_after_identical_miss() {
        let cache = PlanCache::new(4);
        let (v1, hit1) = cache.get_or_insert_with(key(0), || 42);
        let (v2, hit2) = cache.get_or_insert_with(key(0), || 99);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!((*v1, *v2), (42, 42), "hit returns the memoized value");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = PlanCache::new(2);
        cache.get_or_insert_with(key(0), || 0);
        cache.get_or_insert_with(key(1), || 1);
        // Touch key 0 so key 1 is the LRU.
        cache.get_or_insert_with(key(0), || 0);
        cache.get_or_insert_with(key(2), || 2);
        assert_eq!(cache.len(), 2);
        let (_, hit0) = cache.get_or_insert_with(key(0), || 0);
        assert!(hit0, "recently-used entry survived");
        let (_, hit1) = cache.get_or_insert_with(key(1), || 1);
        assert!(!hit1, "LRU entry was evicted");
    }

    #[test]
    fn distinct_key_fields_are_distinct_entries() {
        let cache = PlanCache::new(8);
        let base = key(0);
        cache.get_or_insert_with(base, || 0);
        for k in [
            PlanKey { norm: 1, ..base },
            PlanKey { layout: 1, ..base },
            PlanKey {
                model_id: 2,
                ..base
            },
            PlanKey {
                tol_bucket: 5,
                ..base
            },
        ] {
            let (_, hit) = cache.get_or_insert_with(k, || 1);
            assert!(!hit);
        }
        assert_eq!(cache.len(), 5);
    }
}
