//! Randomized property tests over generated programs and request
//! streams: the DRF guarantee (Theorem 3.1), enumerator soundness,
//! model monotonicity, and substrate invariants.
//!
//! Uses the repo-local deterministic generator ([`rng`]) instead of an
//! external property-testing crate so the whole workspace builds with
//! zero network dependencies (see README "Offline builds"). Every case
//! is derived from a fixed seed, so failures reproduce bit-for-bit.

mod rng;

use drfrlx::model::axiomatic::enumerate_axiomatic;
use drfrlx::model::emit::emit;
use drfrlx::model::exec::{enumerate_sc, EnumLimits};
use drfrlx::model::parse::parse as parse_litmus;
use drfrlx::model::program::{Program, RmwOp};
use drfrlx::model::quantum::has_quantum;
use drfrlx::model::syscentric::compare_with_sc;
use drfrlx::sim::mem::{Cache, CacheParams, LineAddr, StoreBuffer};
use drfrlx::{check_program, MemoryModel, OpClass};
use rng::SplitMix64;

/// One generated memory operation.
#[derive(Debug, Clone)]
enum GenOp {
    Load(OpClass, u8),
    Store(OpClass, u8, i64),
    Add(OpClass, u8, i64),
}

const CLASSES: [OpClass; 6] = [
    OpClass::Data,
    OpClass::Paired,
    OpClass::Unpaired,
    OpClass::Commutative,
    OpClass::NonOrdering,
    OpClass::Speculative,
];

fn gen_op(r: &mut SplitMix64) -> GenOp {
    let class = CLASSES[r.below(CLASSES.len() as u64) as usize];
    let loc = r.below(2) as u8;
    let v = r.below(2) as i64;
    match r.below(3) {
        0 => GenOp::Load(class, loc),
        1 => GenOp::Store(class, loc, v),
        _ => GenOp::Add(class, loc, v),
    }
}

/// A random thread body of 1..4 operations.
fn gen_thread(r: &mut SplitMix64) -> Vec<GenOp> {
    let n = 1 + r.below(3) as usize;
    (0..n).map(|_| gen_op(r)).collect()
}

fn build(threads: &[Vec<GenOp>]) -> Program {
    let mut p = Program::new("generated");
    for ops in threads {
        let mut t = p.thread();
        for op in ops {
            match op {
                GenOp::Load(c, l) => {
                    let r = t.load(*c, format!("x{l}"));
                    t.observe(r);
                }
                GenOp::Store(c, l, v) => {
                    t.store(*c, format!("x{l}"), *v);
                }
                GenOp::Add(c, l, v) => {
                    t.rmw(*c, format!("x{l}"), RmwOp::FetchAdd, *v);
                }
            }
        }
    }
    p.build()
}

/// Run `cases` generated two-thread programs through `f`.
fn for_each_program(seed: u64, cases: usize, mut f: impl FnMut(&Program)) {
    let mut r = SplitMix64::new(seed);
    for case in 0..cases {
        let a = gen_thread(&mut r);
        let b = gen_thread(&mut r);
        let p = build(&[a.clone(), b.clone()]);
        let guard = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&p)));
        if let Err(e) = guard {
            eprintln!("failing case {case}: {a:?} / {b:?}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Every enumerated execution is genuinely SC: replaying its total
/// order yields exactly the recorded values and final memory.
#[test]
fn enumerator_only_produces_sc_executions() {
    for_each_program(0xD5F0_0001, 64, |p| {
        let execs = enumerate_sc(p, &EnumLimits::default()).expect("enumerable");
        assert!(!execs.is_empty());
        for e in &execs {
            let mut mem = std::collections::BTreeMap::new();
            for &id in &e.order {
                let ev = &e.events[id];
                if ev.access.reads() {
                    let expect = mem.get(&ev.loc).copied().unwrap_or(0);
                    assert_eq!(ev.rval.unwrap(), expect, "load must see last store");
                }
                if ev.access.writes() {
                    mem.insert(ev.loc, ev.wval.unwrap());
                }
            }
            for (loc, v) in &mem {
                assert_eq!(e.result.memory[loc], *v);
            }
        }
    });
}

/// Theorem 3.1, fuzzed: a program the checker declares DRFrlx
/// race-free only produces SC memory results on the relaxed machine.
/// (Quantum-free programs; quantum's guarantee is stated against an
/// unbounded random domain.)
#[test]
fn race_free_programs_stay_sc_on_the_relaxed_machine() {
    for_each_program(0xD5F0_0002, 64, |p| {
        if has_quantum(p) {
            return;
        }
        let limits = EnumLimits::default();
        let report = check_program(p, MemoryModel::Drfrlx);
        if report.is_race_free() {
            let cmp = compare_with_sc(p, MemoryModel::Drfrlx, &limits).expect("explorable");
            assert!(
                cmp.is_sc_only(),
                "Theorem 3.1 violated: non-SC results {:?} for {:?}",
                cmp.non_sc_results,
                p
            );
        }
    });
}

/// The axiomatic and operational formulations of the system-centric
/// model agree on every reachable memory result — two independent
/// implementations of the same relaxed system.
#[test]
fn axiomatic_equals_operational() {
    for_each_program(0xD5F0_0003, 64, |p| {
        for model in MemoryModel::ALL {
            let ax = enumerate_axiomatic(p, model, 2_000_000).expect("axiomatic enumerable");
            let op = drfrlx::model::syscentric::explore_relaxed(p, model, &EnumLimits::default())
                .expect("machine enumerable");
            let ax_mem: std::collections::BTreeSet<_> =
                ax.iter().map(|r| r.memory.clone()).collect();
            assert_eq!(ax_mem, op.memory_results(), "model {model} on {p:?}");
        }
    });
}

/// The textual litmus format round-trips: emitting a random program
/// and re-parsing it preserves executions and checker verdicts.
#[test]
fn litmus_text_roundtrips() {
    for_each_program(0xD5F0_0004, 64, |p| {
        let q = parse_litmus(&emit(p)).expect("emitted text parses");
        let limits = EnumLimits::default();
        let ea = enumerate_sc(p, &limits).expect("enumerable");
        let eb = enumerate_sc(&q, &limits).expect("enumerable");
        assert_eq!(ea.len(), eb.len());
        for model in MemoryModel::ALL {
            assert_eq!(
                check_program(p, model).is_race_free(),
                check_program(&q, model).is_race_free()
            );
        }
    });
}

/// Model monotonicity: DRFrlx race-freedom survives upgrading every
/// atomic to a stronger class (the DRF1 and DRF0 views).
#[test]
fn race_freedom_is_monotone_under_upgrading() {
    for_each_program(0xD5F0_0005, 64, |p| {
        if check_program(p, MemoryModel::Drfrlx).is_race_free() {
            assert!(check_program(p, MemoryModel::Drf1).is_race_free());
            assert!(check_program(p, MemoryModel::Drf0).is_race_free());
        }
    });
}

/// The cache array behaves exactly like a reference LRU model.
#[test]
fn cache_matches_reference_lru() {
    let mut r = SplitMix64::new(0xD5F0_0006);
    for _case in 0..128 {
        let len = 1 + r.below(119) as usize;
        let addrs: Vec<u64> = (0..len).map(|_| r.below(24)).collect();
        let mut cache: Cache<u8> = Cache::new(CacheParams { sets: 2, ways: 4 });
        let mut reference: Vec<(u64, usize)> = Vec::new(); // (line, last use)
        for (time, &a) in addrs.iter().enumerate() {
            let set = a % 2;
            let hit = cache.lookup(LineAddr(a)).is_some();
            let ref_hit = reference.iter().any(|&(l, _)| l == a);
            assert_eq!(hit, ref_hit, "at access {time} to {a} in {addrs:?}");
            if ref_hit {
                reference.retain(|&(l, _)| l != a);
            } else {
                cache.insert(LineAddr(a), 0);
                let in_set: Vec<usize> = reference
                    .iter()
                    .enumerate()
                    .filter(|(_, &(l, _))| l % 2 == set)
                    .map(|(i, _)| i)
                    .collect();
                if in_set.len() >= 4 {
                    // Evict the LRU entry of that set.
                    let victim = *in_set.iter().min_by_key(|&&i| reference[i].1).expect("set full");
                    reference.remove(victim);
                }
            }
            reference.push((a, time));
        }
    }
}

/// Store buffers never lose a drain deadline: flush completes no
/// earlier than the latest pending entry.
#[test]
fn store_buffer_flush_covers_all_entries() {
    let mut r = SplitMix64::new(0xD5F0_0007);
    for _case in 0..128 {
        let len = 1 + r.below(19) as usize;
        let drains: Vec<u64> = (0..len).map(|_| 1 + r.below(999)).collect();
        let mut sb = StoreBuffer::new(32);
        let mut max_drain = 0;
        for (i, &d) in drains.iter().enumerate() {
            sb.push(0, LineAddr(i as u64), d);
            max_drain = max_drain.max(d);
        }
        let flushed = sb.flush(0);
        assert!(flushed >= max_drain, "flush {flushed} < {max_drain} for {drains:?}");
        assert!(sb.is_empty());
    }
}
