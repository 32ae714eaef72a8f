//! Differential tests for the memory-hierarchy structures: the flat
//! `Cache` and `Mshr` of `hsim-mem` against straightforward reference
//! models — a `Vec` of ways per set and a `BTreeMap` of in-flight
//! lines — driven by seeded random operation streams.
//!
//! The reference models are the structures' earlier implementations,
//! kept here only as oracles. Every return value, and the resident
//! lines, occupancy and statistics after every step, must match.

mod rng;

use drfrlx::sim::mem::{Cache, CacheParams, CacheStats, Cycle, LineAddr, Mshr, MshrOutcome};
use rng::SplitMix64;
use std::collections::BTreeMap;

// ---------------------------------------------------------------- cache

#[derive(Debug, Clone)]
struct RefWay {
    tag: LineAddr,
    state: u8,
    lru: u64,
}

/// One `Vec` of ways per set, allocated up front.
struct RefCache {
    ways: usize,
    sets: Vec<Vec<RefWay>>,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(params: &CacheParams) -> RefCache {
        RefCache {
            ways: params.ways,
            sets: vec![Vec::new(); params.sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) % self.sets.len()
    }

    fn lookup(&mut self, line: LineAddr) -> Option<u8> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        match self.sets[set].iter_mut().find(|w| w.tag == line) {
            Some(w) => {
                w.lru = clock;
                self.stats.hits += 1;
                Some(w.state)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn peek(&self, line: LineAddr) -> Option<u8> {
        self.sets[self.set_of(line)].iter().find(|w| w.tag == line).map(|w| w.state)
    }

    fn insert_with_pin(
        &mut self,
        line: LineAddr,
        state: u8,
        pinned: impl Fn(&u8) -> bool,
    ) -> Option<(LineAddr, u8)> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter_mut().find(|w| w.tag == line) {
            w.state = state;
            w.lru = clock;
            return None;
        }
        if ways.len() < self.ways {
            ways.push(RefWay { tag: line, state, lru: clock });
            return None;
        }
        let victim = ways
            .iter()
            .enumerate()
            .filter(|(_, w)| !pinned(&w.state))
            .min_by_key(|(_, w)| w.lru)
            .or_else(|| ways.iter().enumerate().min_by_key(|(_, w)| w.lru))
            .map(|(i, _)| i)
            .expect("set is full");
        self.stats.evictions += 1;
        let old = std::mem::replace(&mut ways[victim], RefWay { tag: line, state, lru: clock });
        Some((old.tag, old.state))
    }

    fn remove(&mut self, line: LineAddr) -> Option<u8> {
        let set = self.set_of(line);
        let i = self.sets[set].iter().position(|w| w.tag == line)?;
        Some(self.sets[set].remove(i).state)
    }

    fn invalidate_where(&mut self, victim: impl Fn(&LineAddr, &u8) -> bool) -> u64 {
        let mut n = 0;
        for set in &mut self.sets {
            set.retain(|w| {
                let dropped = victim(&w.tag, &w.state);
                n += u64::from(dropped);
                !dropped
            });
        }
        self.stats.invalidations += n;
        n
    }

    fn lines(&self) -> Vec<(LineAddr, u8)> {
        self.sets.iter().flatten().map(|w| (w.tag, w.state)).collect()
    }
}

fn stats_key(s: CacheStats) -> (u64, u64, u64, u64) {
    (s.hits, s.misses, s.evictions, s.invalidations)
}

/// One cache operation, with the arguments it was drawn with.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup(u64),
    Peek(u64),
    Insert(u64, u8),
    /// Insert pinning every state whose bit is set in the mask.
    InsertPinned(u64, u8, u8),
    Remove(u64),
    /// Invalidate states in the mask, and lines with `tag % 3 == k`
    /// when `k < 3`.
    Invalidate(u8, u64),
}

/// Apply `op` to both caches and assert that they agree.
fn step(cache: &mut Cache<u8>, reference: &mut RefCache, op: CacheOp, ctx: &str) {
    match op {
        CacheOp::Lookup(a) => {
            let got = cache.lookup(LineAddr(a)).map(|s| *s);
            assert_eq!(got, reference.lookup(LineAddr(a)), "{ctx}");
        }
        CacheOp::Peek(a) => {
            assert_eq!(cache.peek(LineAddr(a)).copied(), reference.peek(LineAddr(a)), "{ctx}");
        }
        CacheOp::Insert(a, s) => {
            let got = cache.insert(LineAddr(a), s).map(|e| (e.line, e.state));
            assert_eq!(got, reference.insert_with_pin(LineAddr(a), s, |_| false), "{ctx}");
        }
        CacheOp::InsertPinned(a, s, mask) => {
            let pinned = |s: &u8| mask >> s & 1 == 1;
            let got = cache.insert_with_pin(LineAddr(a), s, pinned).map(|e| (e.line, e.state));
            assert_eq!(got, reference.insert_with_pin(LineAddr(a), s, pinned), "{ctx}");
        }
        CacheOp::Remove(a) => {
            assert_eq!(cache.remove(LineAddr(a)), reference.remove(LineAddr(a)), "{ctx}");
        }
        CacheOp::Invalidate(mask, k) => {
            let victim = |l: &LineAddr, s: &u8| mask >> s & 1 == 1 || l.0 % 3 == k;
            assert_eq!(cache.invalidate_where(victim), reference.invalidate_where(victim), "{ctx}");
        }
    }
    assert_eq!(cache.len(), reference.sets.iter().map(Vec::len).sum::<usize>(), "{ctx}");
    assert_eq!(cache.is_empty(), reference.sets.iter().all(Vec::is_empty), "{ctx}");
    // Set by set, each set's lines in order: `remove` and
    // `invalidate_where` must keep the survivors' order.
    let lines: Vec<(LineAddr, u8)> = cache.iter().map(|(l, s)| (l, *s)).collect();
    assert_eq!(lines, reference.lines(), "{ctx}");
    assert_eq!(stats_key(cache.stats()), stats_key(reference.stats), "{ctx}");
}

/// A random line: mostly a few hot sets, so big geometries fill,
/// evict and empty sets too, with tags a little beyond the ways.
fn gen_line(r: &mut SplitMix64, p: &CacheParams) -> u64 {
    let set = if r.below(4) == 0 { r.below(p.sets as u64) } else { r.below(p.sets.min(5) as u64) };
    set + p.sets as u64 * r.below(p.ways as u64 + 3)
}

fn gen_cache_op(r: &mut SplitMix64, p: &CacheParams) -> CacheOp {
    let a = gen_line(r, p);
    let s = r.below(8) as u8;
    match r.below(100) {
        0..=29 => CacheOp::Lookup(a),
        30..=39 => CacheOp::Peek(a),
        40..=64 => CacheOp::Insert(a, s),
        65..=79 => CacheOp::InsertPinned(a, s, r.next_u64() as u8),
        80..=93 => CacheOp::Remove(a),
        // Sometimes everything, so whole sets empty and refill.
        _ if r.below(3) == 0 => CacheOp::Invalidate(0xFF, 3),
        _ => CacheOp::Invalidate(r.next_u64() as u8 & r.next_u64() as u8, r.below(6)),
    }
}

const GEOMETRIES: [(usize, usize); 4] = [(1, 1), (2, 4), (64, 8), (256, 16)];

#[test]
fn flat_cache_matches_the_vec_of_sets_reference() {
    let mut r = SplitMix64::new(0xCAC4_E000);
    for (sets, ways) in GEOMETRIES {
        let params = CacheParams { sets, ways };
        for case in 0..48 {
            let mut cache: Cache<u8> = Cache::new(params.clone());
            let mut reference = RefCache::new(&params);
            let len = 1 + r.below(400);
            for i in 0..len {
                let mut op = gen_cache_op(&mut r, &params);
                // Open every stream with accesses to a never-filled cache.
                if i < 4 && matches!(op, CacheOp::Insert(..) | CacheOp::InsertPinned(..)) {
                    op = CacheOp::Lookup(gen_line(&mut r, &params));
                }
                let ctx = format!("{sets}x{ways} case {case}, step {i}: {op:?}");
                step(&mut cache, &mut reference, op, &ctx);
            }
        }
    }
}

#[test]
fn flat_cache_edge_cases_match_the_reference() {
    use CacheOp::*;
    // 2 sets x 2 ways: even lines map to set 0, odd lines to set 1.
    let script = [
        // Never-filled cache: misses, no resident lines, nothing to drop.
        Lookup(4),
        Peek(5),
        Remove(4),
        Invalidate(0xFF, 3),
        // Remove of the last (only) way, then of a line that is gone.
        Insert(4, 1),
        Remove(4),
        Remove(4),
        Lookup(4),
        // Fill set 0, empty it by invalidation, refill past its ways.
        Insert(0, 1),
        Insert(2, 2),
        Insert(1, 3),
        Invalidate(0b110, 3),
        Lookup(0),
        Insert(6, 4),
        Insert(8, 5),
        Insert(10, 6),
        // Remove the middle way of a full set, then evict.
        Insert(0, 0),
        Remove(10),
        Insert(12, 7),
        InsertPinned(14, 1, 0xFF),
        InsertPinned(16, 2, 0b1000_0000),
        // Overwrite in place: no eviction, no new slot.
        Insert(16, 3),
        Invalidate(0, 1),
        Invalidate(0, 0),
        Insert(3, 1),
        Insert(5, 1),
        Lookup(3),
        Insert(7, 1),
    ];
    let params = CacheParams { sets: 2, ways: 2 };
    let mut cache: Cache<u8> = Cache::new(params.clone());
    let mut reference = RefCache::new(&params);
    for (i, op) in script.into_iter().enumerate() {
        step(&mut cache, &mut reference, op, &format!("step {i}: {op:?}"));
    }
}

// ----------------------------------------------------------------- MSHR

/// The in-flight lines in a `BTreeMap`.
struct RefMshr {
    capacity: usize,
    inflight: BTreeMap<LineAddr, Cycle>,
    counters: (u64, u64, u64),
}

impl RefMshr {
    fn request(&mut self, now: Cycle, line: LineAddr) -> MshrOutcome {
        self.inflight.retain(|_, done| *done > now);
        if let Some(&done) = self.inflight.get(&line) {
            self.counters.1 += 1;
            return MshrOutcome::Coalesced(done);
        }
        if self.inflight.len() >= self.capacity {
            self.counters.2 += 1;
            return MshrOutcome::Full(self.inflight.values().copied().min().unwrap_or(now));
        }
        self.counters.0 += 1;
        self.inflight.insert(line, Cycle::MAX);
        MshrOutcome::Allocated
    }

    fn pending(&mut self, now: Cycle, line: LineAddr) -> Option<Cycle> {
        self.inflight.retain(|_, done| *done > now);
        self.inflight.get(&line).copied()
    }

    fn set_completion(&mut self, line: LineAddr, done: Cycle) {
        if let Some(d) = self.inflight.get_mut(&line) {
            *d = done;
        }
    }
}

#[test]
fn flat_mshr_matches_the_btreemap_reference() {
    let mut r = SplitMix64::new(0x3458_0000);
    for capacity in [1usize, 2, 128] {
        let mut saw_full = 0;
        for case in 0..64 {
            let mut mshr = Mshr::new(capacity);
            let mut reference =
                RefMshr { capacity, inflight: BTreeMap::new(), counters: (0, 0, 0) };
            let lines = capacity as u64 + 1 + r.below(capacity as u64 + 4);
            let mut now: Cycle = 0;
            for i in 0..1 + r.below(600) {
                // Big files need many requests per cycle to fill up.
                if r.below(capacity as u64 / 4 + 1) == 0 {
                    now += [0, 1, 3, 20][r.below(4) as usize];
                }
                let line = LineAddr(r.below(lines));
                let ctx = format!("capacity {capacity} case {case}, step {i} at {now}");
                match r.below(10) {
                    0..=4 => {
                        let got = mshr.request(now, line);
                        saw_full += usize::from(matches!(got, MshrOutcome::Full(_)));
                        assert_eq!(got, reference.request(now, line), "{ctx}: request {line:?}");
                        if got == MshrOutcome::Allocated && r.below(4) != 0 {
                            let done = now + 1 + r.below(80);
                            mshr.set_completion(line, done);
                            reference.set_completion(line, done);
                        }
                    }
                    5..=7 => {
                        let got = mshr.pending(now, line);
                        assert_eq!(got, reference.pending(now, line), "{ctx}: pending {line:?}");
                    }
                    // Late or stray completions, including for lines
                    // that are not in flight.
                    _ => {
                        let done = now + r.below(40);
                        mshr.set_completion(line, done);
                        reference.set_completion(line, done);
                    }
                }
                assert_eq!(mshr.live(), reference.inflight.len(), "{ctx}");
                assert_eq!(mshr.counters(), reference.counters, "{ctx}");
            }
        }
        assert!(saw_full > 0, "capacity {capacity}: streams must fill the MSHR file");
    }
}
