//! A small bounded least-recently-used map keyed by `u64` request
//! hashes: eviction only, never invalidation (a key is derived from
//! everything its value depends on, so it cannot go stale). Not
//! thread-safe by itself; [`ServeState`](crate::ServeState) wraps each
//! of its maps (rendered responses, parsed workbenches, lint databases)
//! in a mutex.

use std::collections::HashMap;

#[derive(Debug)]
pub(crate) struct Lru<V> {
    map: HashMap<u64, (u64, V)>,
    cap: usize,
    tick: u64,
}

impl<V> Lru<V> {
    /// An empty map evicting past `cap` entries (`cap` 0 disables
    /// caching entirely).
    pub(crate) fn new(cap: usize) -> Self {
        Lru {
            map: HashMap::new(),
            cap,
            tick: 0,
        }
    }

    /// Current number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let (last, v) = self.map.get_mut(&key)?;
        *last = tick;
        Some(v)
    }

    /// Removes and returns a key's value, for an entry that is checked
    /// out for exclusive use and inserted back afterwards.
    pub(crate) fn take(&mut self, key: u64) -> Option<V> {
        self.map.remove(&key).map(|(_, v)| v)
    }

    /// Inserts a value, evicting the least recently used entry when the
    /// map would exceed its capacity.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, value));
        while self.map.len() > self.cap {
            let Some((&oldest, _)) = self.map.iter().min_by_key(|(_, (last, _))| *last) else {
                break;
            };
            self.map.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(1), Some(&"a")); // refresh 1
        lru.insert(3, "c"); // evicts 2
        assert_eq!(lru.get(2), None);
        assert_eq!(lru.get(1), Some(&"a"));
        assert_eq!(lru.get(3), Some(&"c"));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut lru = Lru::new(0);
        lru.insert(1, "a");
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.get(1), None);
    }
}
