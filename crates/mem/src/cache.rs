//! Set-associative cache array with LRU replacement and pluggable
//! per-line state.

use crate::LineAddr;
use std::fmt::Debug;
use std::ops::Range;

/// Identifies a line within the array (set, way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineId {
    /// Set index.
    pub set: usize,
    /// Way within the set.
    pub way: usize,
}

/// Cache geometry.
#[derive(Debug, Clone)]
pub struct CacheParams {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheParams {
    /// Geometry for a cache of `bytes` capacity with `line_bytes` lines
    /// and the given associativity (paper Table 2: 32 KB 8-way L1s,
    /// 4 MB 16-bank L2).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn with_capacity(bytes: usize, line_bytes: usize, ways: usize) -> CacheParams {
        let lines = bytes / line_bytes;
        assert!(lines.is_multiple_of(ways), "capacity must divide into sets");
        CacheParams { sets: lines / ways, ways }
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Lines invalidated by flash/self-invalidation.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Way<S> {
    tag: LineAddr,
    state: S,
    /// Higher = more recently used.
    lru: u64,
}

/// An evicted line returned to the caller (for writebacks).
#[derive(Debug, Clone)]
pub struct EvictedLine<S> {
    /// The line's address.
    pub line: LineAddr,
    /// Its state at eviction.
    pub state: S,
}

/// A set-associative array storing per-line state `S`.
///
/// The array is purely structural: protocols decide what states mean,
/// which lines are victims (`insert` evicts LRU) and what to do with
/// evicted state.
///
/// Storage is one flat slot arena plus a per-set `(base, len)` index.
/// A set claims `ways` contiguous slots on its first insert and holds
/// its resident lines in `slots[base..base + len]`, in insertion order.
/// The index is allocated on the cache's first insert, so building a
/// cache — or looking lines up in one that was never filled — allocates
/// nothing, and a simulation run pays only for the sets it touches.
/// The arena never grows beyond `sets × ways` slots.
///
/// ```
/// use hsim_mem::{Cache, CacheParams, LineAddr};
///
/// let mut l1: Cache<bool> = Cache::new(CacheParams::with_capacity(32 * 1024, 64, 8));
/// assert!(l1.lookup(LineAddr(7)).is_none());
/// l1.insert(LineAddr(7), true);
/// assert_eq!(l1.lookup(LineAddr(7)), Some(&mut true));
/// assert_eq!(l1.stats().misses, 1);
/// assert_eq!(l1.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache<S> {
    params: CacheParams,
    /// Per set: (first claimed slot, resident ways); `UNCLAIMED` until
    /// the set's first insert. Empty until the cache's first insert.
    index: Vec<(u32, u32)>,
    /// Claimed slots, `ways` per set; those past a set's `len` are stale.
    slots: Vec<Way<S>>,
    clock: u64,
    stats: CacheStats,
}

const UNCLAIMED: u32 = u32::MAX;

impl<S: Clone + Debug> Cache<S> {
    /// Create an empty cache. Allocates nothing until the first insert.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has no sets or no ways, or if its
    /// `sets × ways` slots do not fit the 32-bit slot index.
    pub fn new(params: CacheParams) -> Cache<S> {
        let CacheParams { sets, ways } = params;
        assert!(sets > 0, "cache geometry {sets} sets x {ways} ways has no sets");
        assert!(ways > 0, "cache geometry {sets} sets x {ways} ways has no ways");
        assert!(
            sets.checked_mul(ways).is_some_and(|n| n < UNCLAIMED as usize),
            "cache geometry {sets} sets x {ways} ways overflows the slot index"
        );
        Cache {
            params,
            index: Vec::new(),
            slots: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) % self.params.sets
    }

    /// Slot range of the lines resident in `set` (empty if unclaimed).
    fn resident(&self, set: usize) -> Range<usize> {
        match self.index.get(set) {
            Some(&(base, len)) if len > 0 => base as usize..(base + len) as usize,
            _ => 0..0,
        }
    }

    /// Slot holding `line`, if resident.
    fn find(&self, line: LineAddr) -> Option<usize> {
        let r = self.resident(self.set_of(line));
        let start = r.start;
        self.slots[r].iter().position(|w| w.tag == line).map(|i| start + i)
    }

    /// Look up a line; hits bump LRU. Counted in the statistics.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut S> {
        self.clock += 1;
        match self.find(line) {
            Some(i) => {
                self.stats.hits += 1;
                let w = &mut self.slots[i];
                w.lru = self.clock;
                Some(&mut w.state)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peek without touching LRU or statistics.
    pub fn peek(&self, line: LineAddr) -> Option<&S> {
        self.find(line).map(|i| &self.slots[i].state)
    }

    /// Insert (or overwrite) a line, evicting LRU if the set is full.
    /// Lines for which `pinned` returns true are never chosen as
    /// victims (DeNovo keeps registered lines until they are downgraded;
    /// see the coherence crate).
    pub fn insert_with_pin(
        &mut self,
        line: LineAddr,
        state: S,
        pinned: impl Fn(&S) -> bool,
    ) -> Option<EvictedLine<S>> {
        self.clock += 1;
        let way = Way { tag: line, state, lru: self.clock };
        if let Some(i) = self.find(line) {
            self.slots[i] = way;
            return None;
        }
        let ways = self.params.ways;
        if self.index.is_empty() {
            self.index = vec![(UNCLAIMED, 0); self.params.sets];
        }
        let set = self.set_of(line);
        let (base, len) = &mut self.index[set];
        if *base == UNCLAIMED {
            *base = self.slots.len() as u32;
            self.slots.resize(self.slots.len() + ways, way.clone());
        }
        let (base, len_now) = (*base as usize, *len as usize);
        if len_now < ways {
            *len += 1;
            self.slots[base + len_now] = way;
            return None;
        }
        // Choose LRU among unpinned ways; if all pinned, evict absolute
        // LRU anyway (structural necessity).
        let set_slots = &mut self.slots[base..base + ways];
        let victim = set_slots
            .iter()
            .enumerate()
            .filter(|(_, w)| !pinned(&w.state))
            .min_by_key(|(_, w)| w.lru)
            .or_else(|| set_slots.iter().enumerate().min_by_key(|(_, w)| w.lru))
            .map(|(i, _)| i)
            .expect("a full set has ways");
        self.stats.evictions += 1;
        let old = std::mem::replace(&mut set_slots[victim], way);
        Some(EvictedLine { line: old.tag, state: old.state })
    }

    /// Insert with no pinning.
    pub fn insert(&mut self, line: LineAddr, state: S) -> Option<EvictedLine<S>> {
        self.insert_with_pin(line, state, |_| false)
    }

    /// Remove a specific line, returning its state. The set's other
    /// lines keep their order.
    pub fn remove(&mut self, line: LineAddr) -> Option<S> {
        let i = self.find(line)?;
        let set = self.set_of(line);
        let end = self.resident(set).end;
        self.slots[i..end].rotate_left(1);
        self.index[set].1 -= 1;
        Some(self.slots[end - 1].state.clone())
    }

    /// Invalidate every line for which `victim` returns true (flash /
    /// self-invalidation); returns how many were dropped. Surviving
    /// lines keep their order within each set.
    pub fn invalidate_where(&mut self, victim: impl Fn(&LineAddr, &S) -> bool) -> u64 {
        let mut n = 0;
        for (base, len) in &mut self.index {
            if *len == 0 {
                continue;
            }
            let ways = &mut self.slots[*base as usize..][..*len as usize];
            let mut kept = 0;
            for i in 0..ways.len() {
                if victim(&ways[i].tag, &ways[i].state) {
                    n += 1;
                } else {
                    ways.swap(kept, i);
                    kept += 1;
                }
            }
            *len = kept as u32;
        }
        self.stats.invalidations += n;
        n
    }

    /// Iterate over all resident lines, set by set.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &S)> + '_ {
        (0..self.index.len())
            .flat_map(move |set| &self.slots[self.resident(set)])
            .map(|w| (w.tag, &w.state))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.index.iter().map(|&(_, len)| len as usize).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache<u8> {
        // 2 sets x 2 ways.
        Cache::new(CacheParams { sets: 2, ways: 2 })
    }

    #[test]
    fn capacity_geometry() {
        let p = CacheParams::with_capacity(32 * 1024, 64, 8);
        assert_eq!(p.sets * p.ways * 64, 32 * 1024);
    }

    #[test]
    #[should_panic(expected = "cache geometry 0 sets x 8 ways has no sets")]
    fn geometry_without_sets_is_rejected() {
        // 32 bytes of 64-byte lines: no line fits.
        let _: Cache<u8> = Cache::new(CacheParams::with_capacity(32, 64, 8));
    }

    #[test]
    #[should_panic(expected = "cache geometry 4 sets x 0 ways has no ways")]
    fn geometry_without_ways_is_rejected() {
        let _: Cache<u8> = Cache::new(CacheParams { sets: 4, ways: 0 });
    }

    #[test]
    #[should_panic(expected = "cache geometry 1048576 sets x 4096 ways overflows the slot index")]
    fn geometry_beyond_the_slot_index_is_rejected() {
        let _: Cache<u8> = Cache::new(CacheParams { sets: 1 << 20, ways: 1 << 12 });
    }

    #[test]
    fn untouched_cache_allocates_nothing() {
        let mut c: Cache<u8> = Cache::new(CacheParams { sets: 256, ways: 16 });
        assert!(c.lookup(LineAddr(3)).is_none());
        assert!(c.peek(LineAddr(3)).is_none());
        assert_eq!(c.remove(LineAddr(3)), None);
        assert_eq!(c.invalidate_where(|_, _| true), 0);
        assert_eq!((c.index.capacity(), c.slots.capacity()), (0, 0));
        c.insert(LineAddr(3), 1);
        c.insert(LineAddr(259), 2);
        assert_eq!(c.slots.len(), 16, "one set claims its ways, no more");
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        c.insert(LineAddr(4), 7);
        assert_eq!(c.lookup(LineAddr(4)), Some(&mut 7));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn miss_on_absent() {
        let mut c = tiny();
        assert_eq!(c.lookup(LineAddr(4)), None);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0.
        c.insert(LineAddr(0), 0);
        c.insert(LineAddr(2), 2);
        c.lookup(LineAddr(0)); // 2 is now LRU
        let ev = c.insert(LineAddr(4), 4).expect("eviction");
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.peek(LineAddr(0)).is_some());
    }

    #[test]
    fn pinned_lines_survive() {
        let mut c = tiny();
        c.insert(LineAddr(0), 9); // pinned (state 9)
        c.insert(LineAddr(2), 1);
        let ev = c.insert_with_pin(LineAddr(4), 5, |s| *s == 9).expect("eviction");
        assert_eq!(ev.line, LineAddr(2), "unpinned line must be the victim");
        assert!(c.peek(LineAddr(0)).is_some());
    }

    #[test]
    fn invalidate_where_is_selective() {
        let mut c = tiny();
        c.insert(LineAddr(0), 1);
        c.insert(LineAddr(1), 2);
        c.insert(LineAddr(2), 1);
        let n = c.invalidate_where(|_, s| *s == 1);
        assert_eq!(n, 2);
        assert_eq!(c.len(), 1);
        assert!(c.peek(LineAddr(1)).is_some());
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn remove_returns_state() {
        let mut c = tiny();
        c.insert(LineAddr(3), 8);
        assert_eq!(c.remove(LineAddr(3)), Some(8));
        assert_eq!(c.remove(LineAddr(3)), None);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = tiny();
        c.insert(LineAddr(0), 1);
        assert!(c.insert(LineAddr(0), 2).is_none());
        assert_eq!(c.peek(LineAddr(0)), Some(&2));
        assert_eq!(c.len(), 1);
    }
}
