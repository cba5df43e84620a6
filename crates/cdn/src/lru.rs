//! A capacity-bounded LRU cache.
//!
//! Backs each CDN server's content cache. Implemented as a hash map into an
//! arena of doubly-linked nodes so that hit, insert, and evict are all
//! O(1) — these run on every simulated HTTP request, which is the hottest
//! loop in the roll-out scenario. Map and arena grow as keys arrive, so a
//! cache costs memory for the keys it holds, never for its bound: a
//! platform deploys thousands of servers whose caches mostly stay empty.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// A least-recently-used set holding at most `capacity` keys (values are
/// unit; the CDN cache only needs membership + recency).
#[derive(Debug, Clone)]
pub struct LruSet<K: Eq + Hash + Clone> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K>>,
    free: Vec<usize>,
    head: usize, // most recent
    tail: usize, // least recent
    capacity: usize,
}

impl<K: Eq + Hash + Clone> LruSet<K> {
    /// Creates a cache holding at most `capacity` keys; nothing is
    /// allocated until the first insert. Zero capacity is permitted and
    /// caches nothing.
    pub fn new(capacity: usize) -> Self {
        LruSet {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Checks membership and, on a hit, marks the key most-recently used.
    pub fn touch(&mut self, key: &K) -> bool {
        match self.map.get(key).copied() {
            Some(idx) => {
                if self.head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                true
            }
            None => false,
        }
    }

    /// Membership test without recency update.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts a key as most-recently used, evicting the least-recently
    /// used key if at capacity. Returns the evicted key, if any.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if self.touch(&key) {
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            self.unlink(tail);
            let old = self.nodes[tail].key.clone();
            self.map.remove(&old);
            self.free.push(tail);
            evicted = Some(old);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i].key = key.clone();
                i
            }
            None => {
                self.nodes.push(Node {
                    key: key.clone(),
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        evicted
    }

    /// Removes everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most- to least-recently used (test/diagnostic helper).
    pub fn keys_mru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut p = self.head;
        while p != NIL {
            out.push(self.nodes[p].key.clone());
            p = self.nodes[p].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_touch() {
        let mut c = LruSet::new(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), None);
        assert!(c.touch(&1));
        assert!(!c.touch(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = LruSet::new(2);
        c.insert(1);
        c.insert(2);
        // Touch 1 so 2 becomes LRU.
        c.touch(&1);
        assert_eq!(c.insert(3), Some(2));
        assert!(c.contains(&1));
        assert!(c.contains(&3));
        assert!(!c.contains(&2));
    }

    #[test]
    fn reinserting_existing_key_refreshes_without_evicting() {
        let mut c = LruSet::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.keys_mru(), vec![1, 2]);
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = LruSet::new(0);
        assert_eq!(c.insert(1), None);
        assert!(!c.contains(&1));
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_one() {
        let mut c = LruSet::new(1);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), Some(1));
        assert_eq!(c.keys_mru(), vec![2]);
    }

    #[test]
    fn clear_resets() {
        let mut c = LruSet::new(4);
        for i in 0..4 {
            c.insert(i);
        }
        c.clear();
        assert!(c.is_empty());
        c.insert(9);
        assert_eq!(c.keys_mru(), vec![9]);
    }

    #[test]
    fn mru_order_tracks_touches() {
        let mut c = LruSet::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(&2);
        assert_eq!(c.keys_mru(), vec![2, 3, 1]);
    }

    #[test]
    fn node_slots_are_reused_after_eviction() {
        let mut c = LruSet::new(2);
        for i in 0..100 {
            c.insert(i);
        }
        // Arena must not grow unboundedly: 2 live + ≤1 free slack.
        assert!(c.nodes.len() <= 3, "arena grew to {}", c.nodes.len());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Reference model: VecDeque front = MRU.
    #[derive(Default)]
    struct Model {
        order: VecDeque<u8>,
        cap: usize,
    }

    impl Model {
        fn touch(&mut self, k: u8) -> bool {
            if let Some(pos) = self.order.iter().position(|x| *x == k) {
                let v = self.order.remove(pos).unwrap();
                self.order.push_front(v);
                true
            } else {
                false
            }
        }

        fn insert(&mut self, k: u8) -> Option<u8> {
            if self.cap == 0 {
                return None;
            }
            if self.touch(k) {
                return None;
            }
            let evicted = if self.order.len() >= self.cap {
                self.order.pop_back()
            } else {
                None
            };
            self.order.push_front(k);
            evicted
        }
    }

    proptest! {
        /// The arena LRU behaves identically to a naive reference model
        /// under arbitrary interleavings of inserts, touches, membership
        /// tests and clears: same hits, same evicted keys, same recency
        /// order. Keys are drawn from a domain a little wider than the
        /// largest capacity, so the growing map and arena are driven both
        /// up to their bound and through eviction.
        #[test]
        fn matches_reference_model(
            cap in 0usize..=48,
            ops in proptest::collection::vec((0u8..16, 0u8..64), 0..400),
        ) {
            let mut lru = LruSet::new(cap);
            let mut model = Model { order: VecDeque::new(), cap };
            for (op, key) in ops {
                match op {
                    0 => {
                        lru.clear();
                        model.order.clear();
                    }
                    1..=3 => prop_assert_eq!(lru.contains(&key), model.order.contains(&key)),
                    4..=7 => prop_assert_eq!(lru.touch(&key), model.touch(key)),
                    _ => prop_assert_eq!(lru.insert(key), model.insert(key)),
                }
                prop_assert_eq!(lru.len(), model.order.len());
                prop_assert_eq!(lru.keys_mru(), model.order.iter().copied().collect::<Vec<_>>());
            }
        }
    }
}
