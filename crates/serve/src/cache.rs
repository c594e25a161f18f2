//! Content-addressed response memo: an LRU keyed by the request's
//! [`cache_key`](crate::protocol::cache_key) holding fully rendered
//! result strings under a byte budget.
//!
//! Entries are shared (`Arc<String>`), so the service hands a hit to
//! the reply frame without copying it out of the memo first, and a
//! fresh result or disk hit goes into the memo without a copy either.
//!
//! The list is woven through a slab of slots (index links, no pointer
//! chasing, no unsafe): `head` is most recently used, `tail` is the
//! eviction candidate. Accounting charges each entry its value length
//! plus a fixed per-slot overhead so a flood of tiny responses cannot
//! grow the map without bound.

use std::collections::HashMap;
use std::sync::Arc;

const NIL: usize = usize::MAX;
/// Fixed accounting overhead charged per cached entry (slot + map
/// bookkeeping), on top of the value bytes.
const SLOT_OVERHEAD: usize = 64;

#[derive(Debug)]
struct Slot {
    key: u64,
    value: Arc<String>,
    prev: usize,
    next: usize,
}

/// A byte-budgeted LRU of rendered responses.
#[derive(Debug)]
pub struct ResponseCache {
    budget: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResponseCache {
    /// An empty cache with the given byte budget. A zero budget caches
    /// nothing (every `get` misses, every `insert` is dropped).
    pub fn new(budget: usize) -> Self {
        ResponseCache {
            budget,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn cost(value: &str) -> usize {
        value.len() + SLOT_OVERHEAD
    }

    /// True when `key` is resident, with no side effects: recency,
    /// hit and miss accounting are all untouched.
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Looks a response up, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<&str> {
        let i = self.touch(key)?;
        Some(&self.slots[i].value)
    }

    /// [`get`](Self::get), sharing the entry instead of borrowing it.
    pub(crate) fn get_shared(&mut self, key: u64) -> Option<Arc<String>> {
        let i = self.touch(key)?;
        Some(Arc::clone(&self.slots[i].value))
    }

    /// The entry for `key` if it is resident, refreshing its recency
    /// but counting nothing: the caller decides whether the lookup
    /// ends in a hit ([`count_hit`](Self::count_hit)) or is repeated
    /// where the request is answered. A shard decides with this whether
    /// a request is a memo hit worth answering on the event thread, and
    /// answers it from the entry returned.
    pub(crate) fn peek_shared(&mut self, key: u64) -> Option<Arc<String>> {
        let i = self.refresh(key)?;
        Some(Arc::clone(&self.slots[i].value))
    }

    /// Counts a hit on an entry taken by [`peek_shared`](Self::peek_shared).
    pub(crate) fn count_hit(&mut self) {
        self.hits += 1;
    }

    /// Counts a lookup and, on a hit, moves the entry to the front.
    fn touch(&mut self, key: u64) -> Option<usize> {
        let found = self.refresh(key);
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Moves `key`'s entry, if resident, to the front.
    fn refresh(&mut self, key: u64) -> Option<usize> {
        let i = self.map.get(&key).copied()?;
        self.unlink(i);
        self.push_front(i);
        Some(i)
    }

    /// Inserts (or refreshes) a response, evicting least-recently-used
    /// entries until the budget holds. Values costing more than the
    /// whole budget are dropped rather than cached.
    pub fn insert(&mut self, key: u64, value: String) {
        self.insert_shared(key, Arc::new(value));
    }

    /// [`insert`](Self::insert) of an entry the caller keeps sharing.
    pub(crate) fn insert_shared(&mut self, key: u64, value: Arc<String>) {
        if Self::cost(&value) > self.budget {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.bytes -= Self::cost(&self.slots[i].value);
            self.bytes += Self::cost(&value);
            self.slots[i].value = value;
            self.unlink(i);
            self.push_front(i);
        } else {
            self.bytes += Self::cost(&value);
            let slot = Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            };
            let i = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = slot;
                    i
                }
                None => {
                    self.slots.push(slot);
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, i);
            self.push_front(i);
        }
        while self.bytes > self.budget {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "over budget with an empty list");
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.bytes -= Self::cost(&self.slots[victim].value);
            self.slots[victim].value = Arc::default();
            self.free.push(victim);
            self.evictions += 1;
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accounted bytes currently held (values + per-slot overhead).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries pushed out by the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_refresh() {
        let mut c = ResponseCache::new(1 << 16);
        assert!(c.get(1).is_none());
        c.insert(1, "one".into());
        c.insert(2, "two".into());
        assert_eq!(c.get(1), Some("one"));
        assert_eq!(c.len(), 2);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        // Refreshing a key replaces its value without growing the map.
        c.insert(1, "uno".into());
        assert_eq!(c.get(1), Some("uno"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used_under_byte_pressure() {
        // Room for exactly two entries of cost 100+64.
        let mut c = ResponseCache::new(2 * (100 + 64));
        let big = "x".repeat(100);
        c.insert(1, big.clone());
        c.insert(2, big.clone());
        assert_eq!(c.get(1).map(str::len), Some(100)); // 1 is now MRU
        c.insert(3, big.clone());
        assert_eq!(c.evictions(), 1);
        assert!(c.get(2).is_none(), "LRU key 2 evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert!(c.bytes() <= c.budget());
    }

    #[test]
    fn oversized_values_and_zero_budget_are_dropped() {
        let mut c = ResponseCache::new(32);
        c.insert(1, "y".repeat(1000));
        assert!(c.is_empty());
        let mut z = ResponseCache::new(0);
        z.insert(1, String::new());
        assert!(z.is_empty());
        assert!(z.get(1).is_none());
    }

    #[test]
    fn prop_bytes_accounting_matches_contents() {
        // Mirror the cache with an explicit MRU-front list and check
        // after every operation that `bytes()` equals the sum of entry
        // costs — the invariant the budget loop relies on. The budget
        // holds only a few entries, so inserts, refreshes (including
        // refresh-to-larger, which must evict *other* entries), hits,
        // misses, over-budget drops and evictions all interleave.
        lim_testkit::prop::check("cache_bytes_accounting", |rng| {
            let budget = 3 * (32 + SLOT_OVERHEAD);
            let mut c = ResponseCache::new(budget);
            let mut model: Vec<(u64, String)> = Vec::new();
            for _ in 0..200 {
                let key = rng.next_u64() % 8;
                if rng.next_u64() % 3 < 2 {
                    let len = (rng.next_u64() % 280) as usize;
                    let value = "v".repeat(len);
                    c.insert(key, value.clone());
                    // Values costing more than the whole budget are
                    // dropped and leave any previous entry untouched.
                    if ResponseCache::cost(&value) <= budget {
                        model.retain(|(k, _)| *k != key);
                        model.insert(0, (key, value));
                        let mut total: usize =
                            model.iter().map(|(_, v)| ResponseCache::cost(v)).sum();
                        while total > budget {
                            let (_, v) = model.pop().expect("over budget implies entries");
                            total -= ResponseCache::cost(&v);
                        }
                    }
                } else {
                    let got = c.get(key).map(str::to_owned);
                    match model.iter().position(|(k, _)| *k == key) {
                        Some(p) => {
                            let entry = model.remove(p);
                            assert_eq!(got.as_deref(), Some(entry.1.as_str()));
                            model.insert(0, entry);
                        }
                        None => assert!(got.is_none()),
                    }
                }
                let want: usize = model.iter().map(|(_, v)| ResponseCache::cost(v)).sum();
                assert_eq!(c.bytes(), want, "bytes() must equal the sum of entry costs");
                assert_eq!(c.len(), model.len());
                assert!(c.bytes() <= budget);
            }
        });
    }

    #[test]
    fn slots_are_recycled_after_eviction() {
        let mut c = ResponseCache::new(100 + 64);
        for key in 0..50 {
            c.insert(key, "x".repeat(100));
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 49);
        assert!(c.slots.len() <= 2, "evicted slots must be reused");
        assert_eq!(c.get(49).map(str::len), Some(100));
    }
}
