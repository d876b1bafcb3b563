//! A byte-accounted LRU cache with hit/miss/eviction counters — the
//! serving layer's graph + pipeline cache.
//!
//! Capacity is expressed in *bytes*, not entries: every insertion carries
//! an explicit byte cost (the serving layer's `entry_bytes` models the
//! cost of cached pipelines) and eviction walks entries from
//! least-recently-used to most-recently-used until the new entry fits.
//! Entries larger than the whole capacity are rejected (and counted)
//! rather than thrashing the cache.
//!
//! The entries live in one `Vec` in least- to most-recently-used order:
//! a lookup scans it, a hit moves the entry to the back, and eviction
//! drops from the front. The scan is sized to the traffic. The
//! discrete-event simulator holds at most one entry per distinct
//! configuration (60 for the largest registry grid), and a 32 MiB server
//! shard holds at most ~1,700 of the smallest entries the serving layer
//! builds (19,320 bytes). Keys only need `PartialEq` (not `Eq` or
//! `Hash`), which keeps float-bearing keys (the serving layer's request
//! configurations carry an `f64` scale) usable without pretending they
//! are `Eq`. The property tests in `tests/serve.rs` lock the semantics —
//! promotion on hit, replacement releasing bytes, front-first eviction —
//! against a brute-force oracle.

/// A snapshot of the cache's accounting counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LruStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Successful insertions (including same-key replacements).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Insertions refused because the entry alone exceeds the capacity.
    pub rejected: u64,
    /// Bytes currently accounted to live entries.
    pub bytes_in_use: u64,
    /// Configured capacity in bytes.
    pub capacity_bytes: u64,
    /// Live entry count.
    pub entries: usize,
}

impl LruStats {
    /// Hit fraction over all lookups (`0.0` before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// One cached entry and its accounted byte cost.
#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    bytes: u64,
}

/// A byte-accounted LRU map from `K` to `V`.
///
/// # Example
///
/// ```
/// use gsuite_scenarios::ByteLru;
///
/// let mut cache: ByteLru<&str, u32> = ByteLru::new(100);
/// cache.insert("a", 1, 60);
/// cache.insert("b", 2, 60); // evicts "a": 120 > 100
/// assert_eq!(cache.get(&"a"), None);
/// assert_eq!(cache.get(&"b"), Some(&2));
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct ByteLru<K, V> {
    /// Live entries, least-recently-used first (the next eviction victim).
    entries: Vec<Entry<K, V>>,
    capacity: u64,
    used: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    rejected: u64,
}

impl<K: PartialEq, V> ByteLru<K, V> {
    /// An empty cache holding at most `capacity_bytes` of accounted entries.
    pub fn new(capacity_bytes: u64) -> Self {
        ByteLru {
            entries: Vec::new(),
            capacity: capacity_bytes,
            used: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            rejected: 0,
        }
    }

    fn position(&self, key: &K) -> Option<usize> {
        self.entries.iter().position(|e| e.key == *key)
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    /// Counts a hit or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let Some(i) = self.position(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.entries[i..].rotate_left(1);
        self.entries.last().map(|e| &e.value)
    }

    /// Whether `key` is cached, without touching recency or counters.
    pub fn contains(&self, key: &K) -> bool {
        self.position(key).is_some()
    }

    /// Inserts `key -> value` accounted at `bytes`, evicting from the LRU
    /// end until it fits. Replacing an existing key releases the old
    /// entry's bytes first (not counted as an eviction). Returns `false`
    /// (and counts a rejection) when `bytes` alone exceeds the capacity.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) -> bool {
        if bytes > self.capacity {
            self.rejected += 1;
            return false;
        }
        if let Some(i) = self.position(&key) {
            self.used -= self.entries.remove(i).bytes;
        }
        while self.used + bytes > self.capacity {
            self.evict_lru(1);
        }
        self.entries.push(Entry { key, value, bytes });
        self.used += bytes;
        self.insertions += 1;
        true
    }

    /// Drops up to `n` entries from the LRU end regardless of byte
    /// pressure, counting each as an eviction — the fault injector's
    /// "eviction storm" (cache poisoning) primitive. Returns how many
    /// entries were actually dropped.
    pub fn evict_lru(&mut self, n: usize) -> usize {
        let drop = n.min(self.entries.len());
        for entry in self.entries.drain(..drop) {
            self.used -= entry.bytes;
        }
        self.evictions += drop as u64;
        drop
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently accounted to live entries.
    pub fn bytes_in_use(&self) -> u64 {
        self.used
    }

    /// The keys in LRU-to-MRU order (front of the iterator is the next
    /// eviction victim) — the property-test observability hook.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|e| &e.key)
    }

    /// The current counter snapshot.
    pub fn stats(&self) -> LruStats {
        LruStats {
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            rejected: self.rejected,
            bytes_in_use: self.used,
            capacity_bytes: self.capacity,
            entries: self.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_promotes_to_mru() {
        let mut c: ByteLru<u32, u32> = ByteLru::new(30);
        c.insert(1, 10, 10);
        c.insert(2, 20, 10);
        c.insert(3, 30, 10);
        assert_eq!(c.get(&1), Some(&10)); // 1 is now MRU
        c.insert(4, 40, 10); // evicts 2, the LRU
        assert!(c.contains(&1) && c.contains(&3) && c.contains(&4));
        assert!(!c.contains(&2));
        assert_eq!(c.keys().copied().collect::<Vec<_>>(), vec![3, 1, 4]);
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let mut c: ByteLru<&str, ()> = ByteLru::new(100);
        assert!(!c.insert("huge", (), 101));
        assert!(c.is_empty());
        assert_eq!(c.stats().rejected, 1);
        assert!(c.insert("fits", (), 100));
        assert_eq!(c.bytes_in_use(), 100);
    }

    #[test]
    fn replacement_releases_old_bytes() {
        let mut c: ByteLru<&str, u32> = ByteLru::new(100);
        c.insert("a", 1, 80);
        c.insert("a", 2, 50);
        assert_eq!(c.bytes_in_use(), 50);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"a"), Some(&2));
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().insertions, 2);
    }

    #[test]
    fn hit_rate_counts_lookups() {
        let mut c: ByteLru<u8, ()> = ByteLru::new(10);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(1, (), 1);
        c.get(&1);
        c.get(&2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_storms_drop_from_the_lru_end() {
        let mut c: ByteLru<u32, ()> = ByteLru::new(100);
        c.insert(1, (), 10);
        c.insert(2, (), 10);
        c.insert(3, (), 10);
        assert_eq!(c.evict_lru(2), 2);
        assert_eq!(c.keys().copied().collect::<Vec<_>>(), vec![3]);
        assert_eq!(c.bytes_in_use(), 10);
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.evict_lru(5), 1, "bounded by live entries");
        assert!(c.is_empty());
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c: ByteLru<u8, ()> = ByteLru::new(0);
        assert!(c.insert(1, (), 0)); // zero-cost entries still fit
        assert!(!c.insert(2, (), 1));
        assert_eq!(c.stats().rejected, 1);
    }

    /// Under churn the cache holds at most what its bytes allow, and
    /// every displaced entry counts as one eviction.
    #[test]
    fn slab_slots_are_recycled_under_churn() {
        let mut c: ByteLru<u32, u32> = ByteLru::new(20);
        for round in 0..50u32 {
            c.insert(round, round, 10);
            assert!(c.len() <= 2);
        }
        assert_eq!(c.keys().copied().collect::<Vec<_>>(), vec![48, 49]);
        assert_eq!(c.bytes_in_use(), 20);
        assert_eq!(c.stats().evictions, 48);
    }

    /// Every key resolves to its own entry, however many are cached.
    #[test]
    fn distinct_keys_never_alias() {
        let mut c: ByteLru<u64, u64> = ByteLru::new(u64::MAX);
        for k in 0..512u64 {
            c.insert(k, k * 3, 1);
        }
        for k in 0..512u64 {
            assert_eq!(c.get(&k), Some(&(k * 3)), "key {k}");
        }
        assert_eq!(c.len(), 512);
    }
}
