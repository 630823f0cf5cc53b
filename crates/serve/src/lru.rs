//! A small bounded least-recently-used map keyed by `u64` request
//! hashes: eviction only, never invalidation (a key is derived from
//! everything its value depends on, so it cannot go stale). Not
//! thread-safe by itself; [`ServeState`](crate::ServeState) wraps each
//! of its maps (rendered responses, parsed workbenches, lint databases)
//! in a mutex.

use std::collections::{BTreeMap, HashMap};

#[derive(Debug)]
pub(crate) struct Lru<V> {
    /// Each key's value and the tick of its last use.
    map: HashMap<u64, (u64, V)>,
    /// Each entry's key by the tick of its last use, least recent first.
    order: BTreeMap<u64, u64>,
    cap: usize,
    tick: u64,
}

impl<V> Lru<V> {
    /// An empty map evicting past `cap` entries (`cap` 0 disables
    /// caching entirely).
    pub(crate) fn new(cap: usize) -> Self {
        Lru {
            map: HashMap::new(),
            order: BTreeMap::new(),
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
        self.order.remove(last);
        self.order.insert(tick, key);
        *last = tick;
        Some(v)
    }

    /// Removes and returns a key's value, for an entry that is checked
    /// out for exclusive use and inserted back afterwards.
    pub(crate) fn take(&mut self, key: u64) -> Option<V> {
        let (last, v) = self.map.remove(&key)?;
        self.order.remove(&last);
        Some(v)
    }

    /// Inserts a value, evicting the least recently used entry when the
    /// map would exceed its capacity.
    pub(crate) fn insert(&mut self, key: u64, value: V) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if let Some((last, _)) = self.map.insert(key, (self.tick, value)) {
            self.order.remove(&last);
        }
        self.order.insert(self.tick, key);
        while self.map.len() > self.cap {
            let Some((_, oldest)) = self.order.pop_first() else {
                break;
            };
            self.map.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The reference map: every entry with its tick, the oldest found by
    /// a scan at each eviction.
    struct ScanLru {
        map: HashMap<u64, (u64, u32)>,
        cap: usize,
        tick: u64,
    }

    impl ScanLru {
        fn get(&mut self, key: u64) -> Option<u32> {
            self.tick += 1;
            let (last, v) = self.map.get_mut(&key)?;
            *last = self.tick;
            Some(*v)
        }

        fn insert(&mut self, key: u64, value: u32) {
            if self.cap == 0 {
                return;
            }
            self.tick += 1;
            self.map.insert(key, (self.tick, value));
            while self.map.len() > self.cap {
                let oldest = *self
                    .map
                    .iter()
                    .min_by_key(|(_, (last, _))| *last)
                    .unwrap()
                    .0;
                self.map.remove(&oldest);
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Insert(u64, u32),
        Take(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..12).prop_map(Op::Get),
            (0u64..12, 0u32..1000).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u64..12).prop_map(Op::Take),
        ]
    }

    proptest! {
        /// Every operation answers as the scanning map does, so entries
        /// are evicted in the same order.
        #[test]
        fn evicts_as_the_scan_does(cap in 0usize..6, ops in prop::collection::vec(arb_op(), 0..200)) {
            let mut lru = Lru::new(cap);
            let mut reference = ScanLru { map: HashMap::new(), cap, tick: 0 };
            for op in ops {
                match op {
                    Op::Get(k) => prop_assert_eq!(lru.get(k).copied(), reference.get(k)),
                    Op::Insert(k, v) => {
                        lru.insert(k, v);
                        reference.insert(k, v);
                    }
                    Op::Take(k) => {
                        prop_assert_eq!(lru.take(k), reference.map.remove(&k).map(|(_, v)| v));
                    }
                }
                prop_assert_eq!(lru.len(), reference.map.len());
                prop_assert_eq!(lru.order.len(), lru.map.len());
            }
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut lru = Lru::new(0);
        lru.insert(1, "a");
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.get(1), None);
    }
}
