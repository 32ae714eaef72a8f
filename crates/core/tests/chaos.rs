//! Chaos suite for the checker's one execution path: deterministic
//! fault injection (panics, stalls, budget exhaustion) must always come
//! back as a structured `Degraded`/`Inconclusive` report — never a
//! process abort — and checkpoint/resume must reproduce the
//! uninterrupted report exactly.

use drfrlx_core::checker::{
    check_program_outcome, check_program_with, CheckOptions, CheckOutcome, CheckReport,
    CheckResilience, RaceKey,
};
use drfrlx_core::exec::{EnumLimits, Reduction};
use drfrlx_core::resilience::{Budget, EngineId, ExhaustReason, Fault, FaultPlan, RunStatus};
use drfrlx_core::{MemoryModel, OpClass, Program};
use std::sync::Arc;
use std::time::Duration;

/// A program whose interleaving tree overflows the 512-execution
/// sharding probe: every store conflicts (same location), so sleep
/// sets prune nothing and 3 threads × 3 stores give 9!/(3!)^3 =
/// 1 680 interleavings.
fn wide() -> Program {
    let mut p = Program::new("wide");
    for t in 0..3 {
        let mut th = p.thread();
        for i in 0..3 {
            th.store(OpClass::Data, "x", (t * 3 + i) as i64);
        }
    }
    p.build()
}

/// Everything a report asserts on, comparable.
#[allow(clippy::type_complexity)]
fn sig(r: &CheckReport) -> (usize, usize, usize, usize, bool, Vec<(RaceKey, usize, String)>) {
    (
        r.executions,
        r.pruned,
        r.memo_pruned,
        r.table_peak,
        r.is_race_free(),
        r.races.iter().map(|f| (f.key, f.exec_index, f.description.clone())).collect(),
    )
}

fn keys(r: &CheckReport) -> Vec<RaceKey> {
    r.races.iter().map(|f| f.key).collect()
}

fn opts(threads: usize) -> CheckOptions {
    CheckOptions { threads, early_exit: false, ..CheckOptions::default() }
}

fn outcome(p: &Program, o: &CheckOptions, res: &CheckResilience) -> CheckOutcome {
    check_program_outcome(p, MemoryModel::Drfrlx, o, res).expect("no checkpoint to mismatch")
}

#[test]
fn parallel_outcome_matches_the_serial_strict_view() {
    let p = wide();
    for reduction in [Reduction::SleepSet, Reduction::SleepSetMemo] {
        let o = CheckOptions { reduction, ..opts(1) };
        let strict = check_program_with(&p, MemoryModel::Drfrlx, &o).unwrap();
        let out = outcome(&p, &CheckOptions { reduction, ..opts(4) }, &CheckResilience::default());
        assert_eq!(out.status, RunStatus::Complete, "{reduction:?}");
        // Memoization folds the wide tree into the probe; plain sleep
        // sets shard it, so the pool itself is compared.
        assert!(reduction == Reduction::SleepSetMemo || out.total_shards > 1, "the tree shards");
        assert_eq!(out.shards.len(), out.total_shards, "{reduction:?}");
        assert_eq!(sig(&out.report()), sig(&strict), "{reduction:?}");
    }
}

#[test]
fn a_lost_shard_reraises_its_own_panic_in_the_strict_view() {
    let p = wide();
    let res = CheckResilience {
        fault_plan: Some(FaultPlan::pinned(EngineId::Checker, 3, 2, Fault::Panic)),
        ..CheckResilience::default()
    };
    let mut out = outcome(&p, &opts(2), &res);
    let panic = out.panic.take();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drfrlx_core::resilience::strict(&out.status, panic)
    }))
    .expect_err("a degraded run panics the strict view");
    let msg = payload.downcast_ref::<String>().expect("formatted panic message");
    assert!(msg.contains("unit 3 attempt 1"), "{msg}");
}

#[test]
fn injected_panic_is_retried_and_the_run_completes() {
    let p = wide();
    let plain = check_program_with(&p, MemoryModel::Drfrlx, &opts(1)).unwrap();
    let res = CheckResilience {
        fault_plan: Some(FaultPlan::pinned(EngineId::Checker, 2, 1, Fault::Panic)),
        ..CheckResilience::default()
    };
    let out = outcome(&p, &opts(1), &res);
    assert_eq!(out.status, RunStatus::Complete, "one panic is absorbed by the retry");
    assert_eq!(sig(&out.report()), sig(&plain));
}

#[test]
fn injected_stall_is_retried_and_the_run_completes() {
    let p = wide();
    let plain = check_program_with(&p, MemoryModel::Drfrlx, &opts(1)).unwrap();
    let res = CheckResilience {
        fault_plan: Some(FaultPlan::pinned(EngineId::Checker, 0, 1, Fault::Stall)),
        ..CheckResilience::default()
    };
    let out = outcome(&p, &opts(1), &res);
    assert_eq!(out.status, RunStatus::Complete);
    assert_eq!(sig(&out.report()), sig(&plain));
}

#[test]
fn repeated_panic_degrades_instead_of_aborting() {
    let p = wide();
    let plain = check_program_with(&p, MemoryModel::Drfrlx, &opts(1)).unwrap();
    let res = CheckResilience {
        fault_plan: Some(FaultPlan::pinned(EngineId::Checker, 3, 2, Fault::Panic)),
        ..CheckResilience::default()
    };
    for threads in [1, 4] {
        let out = outcome(&p, &opts(threads), &res);
        assert_eq!(out.status, RunStatus::Degraded { lost: vec![3] }, "t={threads}");
        // Prefix-soundness: a degraded report never invents races.
        for k in keys(&out.report()) {
            assert!(keys(&plain).contains(&k), "t={threads}: degraded race {k:?} not in full set");
        }
        assert!(out.report().executions < plain.executions, "t={threads}");
    }
}

#[test]
fn execution_budget_yields_inconclusive_with_a_frontier() {
    let p = wide();
    let plain = check_program_with(&p, MemoryModel::Drfrlx, &opts(1)).unwrap();
    // Above the probe budget (so the run shards), below the full tree.
    let o = CheckOptions {
        limits: EnumLimits { max_executions: 600, ..EnumLimits::default() },
        ..opts(1)
    };
    let out = outcome(&p, &o, &CheckResilience::default());
    match &out.status {
        RunStatus::Inconclusive { reason, frontier } => {
            assert_eq!(*reason, ExhaustReason::Executions { limit: 600 });
            assert!(!frontier.is_empty());
            assert_eq!(
                frontier.len() + out.shards.len(),
                out.total_shards,
                "every shard is either completed or on the frontier"
            );
        }
        s => panic!("expected Inconclusive, got {s:?}"),
    }
    // Prefix-soundness: explored ≤ unbudgeted, races ⊆ unbudgeted.
    assert!(out.report().executions <= plain.executions);
    for k in keys(&out.report()) {
        assert!(keys(&plain).contains(&k));
    }
}

#[test]
fn an_expired_deadline_yields_inconclusive_not_an_abort() {
    let p = wide();
    let o = CheckOptions {
        limits: EnumLimits {
            budget: Some(Arc::new(Budget::with_timeout(Duration::from_secs(0)))),
            ..EnumLimits::default()
        },
        ..opts(2)
    };
    let out = outcome(&p, &o, &CheckResilience::default());
    match out.status {
        RunStatus::Inconclusive { reason, .. } => {
            assert!(
                matches!(reason, ExhaustReason::Deadline | ExhaustReason::Cancelled),
                "got {reason:?}"
            );
        }
        s => panic!("expected Inconclusive, got {s:?}"),
    }
}

#[test]
fn cancellation_mid_run_keeps_a_sound_prefix() {
    let p = wide();
    let budget = Arc::new(Budget::unlimited());
    budget.cancel();
    let o = CheckOptions {
        limits: EnumLimits { budget: Some(budget), ..EnumLimits::default() },
        ..opts(1)
    };
    let out = outcome(&p, &o, &CheckResilience::default());
    match out.status {
        RunStatus::Inconclusive { reason: ExhaustReason::Cancelled, .. } => {}
        s => panic!("expected Inconclusive(Cancelled), got {s:?}"),
    }
}

#[test]
fn resume_reproduces_the_uninterrupted_report_exactly() {
    let p = wide();
    let uninterrupted = outcome(&p, &opts(1), &CheckResilience::default());
    assert_eq!(uninterrupted.status, RunStatus::Complete);

    // Leg 1: a tight execution budget interrupts the run mid-plan.
    let tight = CheckOptions {
        limits: EnumLimits { max_executions: 600, ..EnumLimits::default() },
        ..opts(1)
    };
    let leg1 = outcome(&p, &tight, &CheckResilience::default());
    assert!(matches!(leg1.status, RunStatus::Inconclusive { .. }));
    assert!(!leg1.shards.is_empty(), "the interruption left completed shards to checkpoint");

    // Leg 2: resume from leg 1's completed shards with the full budget.
    let res = CheckResilience {
        fault_plan: None,
        total_shards: leg1.total_shards,
        completed: leg1.shards,
    };
    let leg2 = outcome(&p, &opts(1), &res);
    assert_eq!(leg2.status, RunStatus::Complete);
    assert_eq!(sig(&leg2.report()), sig(&uninterrupted.report()), "resumed == uninterrupted");
    assert_eq!(leg2.shards.len(), uninterrupted.shards.len());
}

#[test]
fn seeded_fault_plans_are_deterministic_and_never_abort() {
    let p = wide();
    for seed in 1..=5u64 {
        let res = CheckResilience {
            fault_plan: Some(FaultPlan::seeded(seed)),
            ..CheckResilience::default()
        };
        let a = outcome(&p, &opts(1), &res);
        let b = outcome(&p, &opts(1), &res);
        assert_eq!(a.status, b.status, "seed {seed}");
        assert_eq!(sig(&a.report()), sig(&b.report()), "seed {seed}");
        // A seeded plan never injects at attempt 1 in exactly the
        // spots it hit at attempt 0 unless the hash says so, so some
        // shards may be lost — but the run must always end in a
        // structured status.
        match &a.status {
            RunStatus::Complete | RunStatus::Degraded { .. } | RunStatus::Inconclusive { .. } => {}
        }
    }
}

#[test]
fn a_probe_complete_checkpoint_resumes_to_the_same_report() {
    let mut p = Program::new("sb");
    for (mine, theirs) in [("x", "y"), ("y", "x")] {
        let mut th = p.thread();
        th.store(OpClass::NonOrdering, mine, 1);
        let r = th.load(OpClass::NonOrdering, theirs);
        th.observe(r);
    }
    let p = p.build();
    let full = outcome(&p, &opts(1), &CheckResilience::default());
    assert_eq!(full.total_shards, 1, "a tiny tree finishes inside the probe");
    let res = CheckResilience { fault_plan: None, total_shards: 1, completed: full.shards.clone() };
    let resumed = outcome(&p, &opts(1), &res);
    assert_eq!(resumed.status, RunStatus::Complete);
    assert_eq!(sig(&resumed.report()), sig(&full.report()), "resumed == uninterrupted");
    // A plan size that fits neither the probe nor the freshly cut plan
    // is refused rather than merged.
    let bad = CheckResilience { total_shards: 100_000, ..res };
    let err = check_program_outcome(&p, MemoryModel::Drfrlx, &opts(1), &bad).err();
    assert!(err.is_some_and(|e| e.contains("100000 shards")));
}
