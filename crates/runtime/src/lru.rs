//! An exact least-recently-used map with O(1) touch and eviction.
//!
//! Entries live in a slab and are chained, most recent first, into a
//! doubly linked list through slab indices; a `HashMap` maps each key to
//! its slot. A hit moves its entry to the front. An insert into a full map
//! unlinks the entry at the back — the least recently used — and reuses
//! its slot, so neither path scans the entries.
//!
//! ```
//! use cp_runtime::lru::Lru;
//!
//! let mut lru = Lru::new(2);
//! lru.get_or_insert("a", 1);
//! lru.get_or_insert("b", 2);
//! assert_eq!(lru.get("a"), Some(&1)); // "b" is now the least recent
//! lru.get_or_insert("c", 3); // evicts "b"
//! assert_eq!(lru.get("b"), None);
//! assert_eq!(lru.keys().copied().collect::<Vec<_>>(), ["c", "a"]);
//! ```

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// The end of the recency list.
const NIL: u32 = u32::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    /// The next more recent entry.
    prev: u32,
    /// The next less recent entry.
    next: u32,
}

/// A bounded map that evicts its least recently used entry. See the
/// module docs.
pub struct Lru<K, V> {
    map: HashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    /// The most recently used slot.
    head: u32,
    /// The least recently used slot.
    tail: u32,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.clamp(1, NIL as usize),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The value under `key`, which becomes the most recently used entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let slot = *self.map.get(key)?;
        self.touch(slot);
        Some(&self.slots[slot as usize].value)
    }

    /// The value under `key`, inserting `value` first when the key is
    /// absent (a present entry keeps its value). Either way the entry
    /// becomes the most recently used; an insert into a full map evicts
    /// the least recently used entry.
    pub fn get_or_insert(&mut self, key: K, value: V) -> &V {
        if let Some(&slot) = self.map.get(&key) {
            self.touch(slot);
            return &self.slots[slot as usize].value;
        }
        let fresh = Slot { key: key.clone(), value, prev: NIL, next: NIL };
        let slot = if self.slots.len() < self.capacity {
            self.slots.push(fresh);
            (self.slots.len() - 1) as u32
        } else {
            let slot = self.tail;
            self.unlink(slot);
            let evicted = std::mem::replace(&mut self.slots[slot as usize], fresh);
            self.map.remove(&evicted.key);
            slot
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        &self.slots[slot as usize].value
    }

    /// The keys from the most to the least recently used.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        let mut slot = self.head;
        std::iter::from_fn(move || {
            let entry = self.slots.get(slot as usize)?;
            slot = entry.next;
            Some(&entry.key)
        })
    }

    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let entry = &mut self.slots[slot as usize];
        entry.prev = NIL;
        entry.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng, StdRng};

    fn keys(lru: &Lru<u32, u32>) -> Vec<u32> {
        lru.keys().copied().collect()
    }

    #[test]
    fn get_moves_an_entry_to_the_front() {
        let mut lru = Lru::new(3);
        for k in 1..=3 {
            lru.get_or_insert(k, k * 10);
        }
        assert_eq!(keys(&lru), [3, 2, 1]);
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(keys(&lru), [1, 3, 2]);
        assert_eq!(lru.get(&9), None);
        assert_eq!(keys(&lru), [1, 3, 2], "a miss touches nothing");
    }

    #[test]
    fn insert_into_a_full_map_evicts_the_least_recent() {
        let mut lru = Lru::new(2);
        lru.get_or_insert(1, 1);
        lru.get_or_insert(2, 2);
        lru.get(&1);
        lru.get_or_insert(3, 3);
        assert_eq!(keys(&lru), [3, 1]);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&2), None);
    }

    #[test]
    fn inserting_a_present_key_keeps_its_value_and_touches_it() {
        let mut lru = Lru::new(2);
        lru.get_or_insert(1, 10);
        lru.get_or_insert(2, 20);
        assert_eq!(*lru.get_or_insert(1, 99), 10);
        assert_eq!(keys(&lru), [1, 2]);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut lru = Lru::new(0);
        lru.get_or_insert(1, 1);
        lru.get_or_insert(2, 2);
        assert_eq!(keys(&lru), [2]);
        assert!(!lru.is_empty());
    }

    #[test]
    fn borrowed_lookups_work_for_string_keys() {
        let mut lru: Lru<String, u32> = Lru::new(4);
        lru.get_or_insert("host.example".to_string(), 7);
        assert_eq!(lru.get("host.example"), Some(&7));
    }

    /// The scan-for-oldest cache this type replaces, as the reference:
    /// every touch stamps a tick, and an insert past capacity evicts the
    /// smallest stamp.
    #[test]
    fn matches_a_tick_stamped_reference_on_random_traffic() {
        let mut rng = StdRng::seed_from_u64(5);
        for capacity in [1, 2, 7, 64] {
            let mut lru = Lru::new(capacity);
            let mut reference: HashMap<u32, (u32, u64)> = HashMap::new();
            let mut tick = 0u64;
            for step in 0..5_000u32 {
                let key = rng.gen_range(0..3 * capacity as u32 + 2);
                tick += 1;
                let hit = lru.get(&key).copied();
                let expected = reference.get_mut(&key).map(|(v, stamp)| {
                    *stamp = tick;
                    *v
                });
                assert_eq!(hit, expected, "step {step}: lookup of {key}");
                if hit.is_none() {
                    lru.get_or_insert(key, step);
                    reference.insert(key, (step, tick));
                    if reference.len() > capacity {
                        let oldest =
                            *reference.iter().min_by_key(|(_, (_, stamp))| *stamp).unwrap().0;
                        reference.remove(&oldest);
                    }
                }
                assert_eq!(lru.len(), reference.len());
            }
            let mut by_recency: Vec<(u32, u64)> =
                reference.iter().map(|(k, (_, stamp))| (*k, *stamp)).collect();
            by_recency.sort_by_key(|&(_, stamp)| std::cmp::Reverse(stamp));
            let expected: Vec<u32> = by_recency.into_iter().map(|(k, _)| k).collect();
            assert_eq!(keys(&lru), expected);
        }
    }
}
