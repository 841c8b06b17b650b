//! Cache-friendly hash structures for the BDD kernel: an open-addressed
//! [`UniqueTable`] (hash-consing) and a direct-mapped [`OpCache`]
//! (binary-operation memoization).
//!
//! Both replace `std::collections::HashMap`s that sat on the manager's
//! hottest paths. The wins are structural, not algorithmic:
//!
//! * keys and values live inline in one flat allocation (16-byte slots), so
//!   a probe is one cache line instead of a SipHash run plus pointer chase;
//! * hashing is the Fx multiply-rotate mix from [`crate::fx`];
//! * the op cache is *direct-mapped*: a colliding insert simply overwrites.
//!   A lost entry only costs a recomputation — results are unchanged
//!   because BDD operations are canonicalizing, which is exactly the
//!   trade CUDD-style packages make.
//!
//! The unique table is keyed by variable, `(var, lo, hi)`, not by level:
//! a level swap moves most nodes of the two levels without changing their
//! variable or children, so their entries stay put and only the nodes the
//! swap rewrites are retracted and re-interned ([`UniqueTable::remove`]).
//!
//! Both structures count hits and misses; the manager surfaces them through
//! [`BddStats`](crate::BddStats) and `dominoc run --stats`.

use crate::fx::hash3;

/// Slot value marking an empty unique-table slot. Valid node handles start
/// at 2 (the terminals are 0 and 1 and are never hash-consed), so 0 is free
/// to use as the sentinel.
const EMPTY: u32 = 0;

#[derive(Debug, Clone, Copy)]
struct UniqueSlot {
    var: u32,
    lo: u32,
    hi: u32,
    /// The interned node handle, or [`EMPTY`].
    value: u32,
}

const VACANT: UniqueSlot = UniqueSlot {
    var: 0,
    lo: 0,
    hi: 0,
    value: EMPTY,
};

/// Open-addressed hash table interning `(var, lo, hi)` → node handle.
///
/// Linear probing over a power-of-two slot array at ≤ 75% load. Handles are
/// dense `u32`s (BDD node indices ≥ 2), which keeps each slot at 16 bytes.
///
/// The manager derives every key from a node's level through the current
/// variable order, so a node keeps its key when a swap moves it.
///
/// # Example
///
/// ```
/// use domino_bdd::table::UniqueTable;
///
/// let mut t = UniqueTable::new();
/// assert_eq!(t.get(3, 0, 1), None);
/// t.insert(3, 0, 1, 2);
/// assert_eq!(t.get(3, 0, 1), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct UniqueTable {
    slots: Vec<UniqueSlot>,
    mask: usize,
    len: usize,
    hits: u64,
    misses: u64,
}

impl Default for UniqueTable {
    fn default() -> Self {
        Self::new()
    }
}

impl UniqueTable {
    /// An empty table with a small initial capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity_pow2(1 << 10)
    }

    /// Ensures at least `entries` keys fit without rehashing. Cheap while
    /// the table is still empty (it simply reallocates the slot array), so
    /// callers that know the workload size should reserve up front.
    pub fn reserve(&mut self, entries: usize) {
        let needed = (entries * 4 / 3 + 1).next_power_of_two();
        if needed > self.slots.len() {
            if self.len == 0 {
                let (hits, misses) = (self.hits, self.misses);
                *self = Self::with_capacity_pow2(needed);
                self.hits = hits;
                self.misses = misses;
            } else {
                while self.slots.len() < needed {
                    self.grow();
                }
            }
        }
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        UniqueTable {
            slots: vec![VACANT; cap],
            mask: cap - 1,
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of interned entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(hits, misses)` counters of [`UniqueTable::get`].
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up the handle interned for `(var, lo, hi)`, counting a hit
    /// or a miss.
    pub fn get(&mut self, var: u32, lo: u32, hi: u32) -> Option<u32> {
        let mut i = hash3(var, lo, hi) as usize & self.mask;
        loop {
            let slot = &self.slots[i];
            if slot.value == EMPTY {
                self.misses += 1;
                return None;
            }
            if slot.var == var && slot.lo == lo && slot.hi == hi {
                self.hits += 1;
                return Some(slot.value);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Interns `(var, lo, hi) → value`. The key must not already be
    /// present (the manager only inserts after a failed [`UniqueTable::get`]).
    pub fn insert(&mut self, var: u32, lo: u32, hi: u32, value: u32) {
        debug_assert_ne!(value, EMPTY, "node handles start at 2");
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = hash3(var, lo, hi) as usize & self.mask;
        while self.slots[i].value != EMPTY {
            debug_assert!(
                !(self.slots[i].var == var && self.slots[i].lo == lo && self.slots[i].hi == hi),
                "duplicate unique-table insert"
            );
            i = (i + 1) & self.mask;
        }
        self.slots[i] = UniqueSlot { var, lo, hi, value };
        self.len += 1;
    }

    /// Removes the entry for `(var, lo, hi)`, returning `true` when it was
    /// present. Uses backward-shift deletion: every entry whose probe chain
    /// ran through the vacated slot is shifted back, so no tombstones
    /// accumulate and [`UniqueTable::get`] stays a plain
    /// probe-until-vacant loop. Level swaps lean on this — a swap retracts
    /// the key of every node it rewrites and interns the rewritten one, and
    /// inside a sift it retracts the key of every node it kills.
    pub fn remove(&mut self, var: u32, lo: u32, hi: u32) -> bool {
        let mut i = hash3(var, lo, hi) as usize & self.mask;
        loop {
            let slot = self.slots[i];
            if slot.value == EMPTY {
                return false;
            }
            if slot.var == var && slot.lo == lo && slot.hi == hi {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.len -= 1;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let slot = self.slots[j];
            if slot.value == EMPTY {
                break;
            }
            let ideal = hash3(slot.var, slot.lo, slot.hi) as usize & self.mask;
            // Shift `j` into the hole iff its probe began at or before the
            // hole (cyclically) — i.e. the hole sits on its probe chain.
            if (j.wrapping_sub(ideal) & self.mask) >= (j.wrapping_sub(hole) & self.mask) {
                self.slots[hole] = slot;
                hole = j;
            }
        }
        self.slots[hole] = VACANT;
        true
    }

    /// Vacates every slot, keeping capacity and the hit/miss counters.
    /// Compaction rebuilds the table through this after remapping handles.
    pub fn clear(&mut self) {
        self.slots.fill(VACANT);
        self.len = 0;
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![VACANT; 0]);
        let cap = old.len() * 2;
        self.slots = vec![VACANT; cap];
        self.mask = cap - 1;
        for slot in old {
            if slot.value == EMPTY {
                continue;
            }
            let mut i = hash3(slot.var, slot.lo, slot.hi) as usize & self.mask;
            while self.slots[i].value != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// Operation tag in an [`OpCache`] slot; `0` marks a vacant slot.
#[derive(Debug, Clone, Copy)]
struct OpSlot {
    tag: u32,
    a: u32,
    b: u32,
    result: u32,
}

const OP_VACANT: OpSlot = OpSlot {
    tag: 0,
    a: 0,
    b: 0,
    result: 0,
};

/// Direct-mapped memoization cache for `(op, a, b) → result`.
///
/// Exactly one slot per hash index: a colliding insert evicts the previous
/// entry. Lookups are a single indexed load and compare — no probing — and
/// an evicted entry only costs recomputation, never correctness, because
/// the memoized operations are deterministic.
///
/// `op` tags are small nonzero integers chosen by the caller (the manager
/// uses and/or/xor/not).
///
/// # Example
///
/// ```
/// use domino_bdd::table::OpCache;
///
/// let mut c = OpCache::new();
/// assert_eq!(c.get(1, 4, 7), None);
/// c.insert(1, 4, 7, 9);
/// assert_eq!(c.get(1, 4, 7), Some(9));
/// ```
#[derive(Debug, Clone)]
pub struct OpCache {
    slots: Vec<OpSlot>,
    mask: usize,
    occupied: usize,
    hits: u64,
    misses: u64,
}

impl Default for OpCache {
    fn default() -> Self {
        Self::new()
    }
}

impl OpCache {
    /// An empty cache with a small initial capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity_pow2(1 << 11)
    }

    /// Ensures at least `entries` slots exist (rounded up to a power of
    /// two). Cheap while the cache is empty.
    pub fn reserve(&mut self, entries: usize) {
        let needed = entries.next_power_of_two();
        if needed > self.slots.len() {
            if self.occupied == 0 {
                *self = Self::with_capacity_pow2(needed);
            } else {
                let hits = self.hits;
                let misses = self.misses;
                let mut grown = Self::with_capacity_pow2(needed);
                for slot in &self.slots {
                    if slot.tag != 0 {
                        grown.insert(slot.tag, slot.a, slot.b, slot.result);
                    }
                }
                grown.hits = hits;
                grown.misses = misses;
                *self = grown;
            }
        }
    }

    fn with_capacity_pow2(cap: usize) -> Self {
        debug_assert!(cap.is_power_of_two());
        OpCache {
            slots: vec![OP_VACANT; cap],
            mask: cap - 1,
            occupied: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of live (non-evicted) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// `true` if no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// `(hits, misses)` counters of [`OpCache::get`].
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Looks up `(op, a, b)`, counting a hit or a miss. `op` must be
    /// nonzero.
    pub fn get(&mut self, op: u32, a: u32, b: u32) -> Option<u32> {
        debug_assert_ne!(op, 0);
        let slot = &self.slots[hash3(op, a, b) as usize & self.mask];
        if slot.tag == op && slot.a == a && slot.b == b {
            self.hits += 1;
            Some(slot.result)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Stores `(op, a, b) → result`, evicting whatever occupied the slot.
    pub fn insert(&mut self, op: u32, a: u32, b: u32, result: u32) {
        debug_assert_ne!(op, 0);
        let i = hash3(op, a, b) as usize & self.mask;
        if self.slots[i].tag == 0 {
            self.occupied += 1;
        }
        self.slots[i] = OpSlot {
            tag: op,
            a,
            b,
            result,
        };
    }

    /// Vacates every slot, keeping capacity and the hit/miss counters. A
    /// memoized result is only valid while its operand handles denote the
    /// functions they had when it was stored, so compaction (which renumbers
    /// handles) must drop the cache wholesale.
    pub fn clear(&mut self) {
        self.slots.fill(OP_VACANT);
        self.occupied = 0;
    }

    /// Doubles the slot array (rehashing live entries) while the occupancy
    /// is above 75%. The manager calls this as the node arena grows so the
    /// cache keeps pace with the working set.
    pub fn maybe_grow(&mut self) {
        while self.occupied * 4 > self.slots.len() * 3 {
            let old = std::mem::replace(&mut self.slots, vec![OP_VACANT; 0]);
            let cap = old.len() * 2;
            self.slots = vec![OP_VACANT; cap];
            self.mask = cap - 1;
            self.occupied = 0;
            for slot in old {
                if slot.tag != 0 {
                    let i = hash3(slot.tag, slot.a, slot.b) as usize & self.mask;
                    if self.slots[i].tag == 0 {
                        self.occupied += 1;
                    }
                    self.slots[i] = slot;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn unique_table_grows_past_initial_capacity() {
        let mut t = UniqueTable::with_capacity_pow2(4);
        for i in 0..10_000u32 {
            t.insert(i % 7, i, i + 1, i + 2);
        }
        assert_eq!(t.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(t.get(i % 7, i, i + 1), Some(i + 2), "key {i}");
        }
        let (hits, misses) = t.counters();
        assert_eq!(hits, 10_000);
        assert_eq!(misses, 0);
    }

    #[test]
    fn unique_table_matches_hashmap_reference() {
        // Deterministic pseudo-random workload mirroring manager usage:
        // lookup first, insert on miss.
        let mut t = UniqueTable::new();
        let mut reference: HashMap<(u32, u32, u32), u32> = HashMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next_value = 2u32;
        for _ in 0..50_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let var = (state >> 48) as u32 % 64;
            let lo = (state >> 24) as u32 % 512;
            let hi = state as u32 % 512;
            let expect = reference.get(&(var, lo, hi)).copied();
            assert_eq!(t.get(var, lo, hi), expect);
            if expect.is_none() {
                reference.insert((var, lo, hi), next_value);
                t.insert(var, lo, hi, next_value);
                next_value += 1;
            }
        }
        assert_eq!(t.len(), reference.len());
    }

    #[test]
    fn unique_table_remove_matches_hashmap_reference() {
        // Interleaved insert/remove/get workload against a HashMap model,
        // exercising the backward-shift paths (dense keys force long probe
        // chains at 75% load).
        let mut t = UniqueTable::with_capacity_pow2(8);
        let mut reference: HashMap<(u32, u32, u32), u32> = HashMap::new();
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut next_value = 2u32;
        for step in 0..50_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let var = (state >> 48) as u32 % 8;
            let lo = (state >> 24) as u32 % 64;
            let hi = state as u32 % 64;
            let key = (var, lo, hi);
            if step % 3 == 2 {
                let expect = reference.remove(&key).is_some();
                assert_eq!(t.remove(var, lo, hi), expect, "step {step}");
            } else {
                let expect = reference.get(&key).copied();
                assert_eq!(t.get(var, lo, hi), expect, "step {step}");
                if expect.is_none() {
                    reference.insert(key, next_value);
                    t.insert(var, lo, hi, next_value);
                    next_value += 1;
                }
            }
            assert_eq!(t.len(), reference.len());
        }
        // Every surviving key still answers after all the shifting.
        for (&(var, lo, hi), &v) in &reference {
            assert_eq!(t.get(var, lo, hi), Some(v));
        }
    }

    #[test]
    fn unique_table_remove_shifts_probe_chains_back() {
        // Force one shared probe chain: with 8 slots, keys hashing to the
        // same bucket collide by construction after enough inserts.
        let mut t = UniqueTable::with_capacity_pow2(8);
        for i in 0..5u32 {
            t.insert(1, i, 0, i + 2);
        }
        assert!(t.remove(1, 0, 0));
        assert!(!t.remove(1, 0, 0), "double remove reports absence");
        for i in 1..5u32 {
            assert_eq!(t.get(1, i, 0), Some(i + 2), "key {i} lost after shift");
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn clears_keep_capacity_and_counters() {
        let mut t = UniqueTable::with_capacity_pow2(16);
        t.insert(1, 2, 3, 4);
        assert_eq!(t.get(1, 2, 3), Some(4));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(1, 2, 3), None);
        let (hits, misses) = t.counters();
        assert_eq!((hits, misses), (1, 1), "counters survive clear");

        let mut c = OpCache::with_capacity_pow2(4);
        c.insert(1, 2, 3, 4);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(1, 2, 3), None);
    }

    #[test]
    fn op_cache_is_direct_mapped() {
        let mut c = OpCache::with_capacity_pow2(2);
        c.insert(1, 10, 20, 30);
        // With two slots, some other key must collide eventually.
        let mut evicted = false;
        for i in 0..16u32 {
            c.insert(2, i, i, i);
            if c.get(1, 10, 20).is_none() {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "direct-mapped cache never evicted");
        assert!(c.len() <= 2);
    }

    #[test]
    fn op_cache_grow_preserves_entries() {
        let mut c = OpCache::with_capacity_pow2(4);
        for i in 0..64u32 {
            c.insert(1, i, i, i + 100);
            c.maybe_grow();
        }
        assert!(c.slots.len() > 4, "cache never grew");
        // Every live slot must still answer with its own value (growth
        // rehashes, it never corrupts).
        let live = (0..64u32)
            .filter(|&i| {
                let r = c.get(1, i, i);
                assert!(r.is_none() || r == Some(i + 100));
                r.is_some()
            })
            .count();
        assert_eq!(live, c.len());
    }
}
