//! The engine-shared work pool: claim order, retries, skip sets, the
//! saturation cutoff, budget trips and the strict reading of a run.

use drfrlx_core::resilience::{
    strict, Attempt, Budget, EngineId, ExhaustReason, Fault, FaultPlan, Pool, RunStatus,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

#[test]
fn results_come_back_in_unit_order_at_any_thread_count() {
    for threads in [1, 2, 4] {
        let run = Pool::new(EngineId::Sweep, threads).run(50, &|j, _| Attempt::Done(j * j));
        assert_eq!(run.status, RunStatus::Complete, "t={threads}");
        assert!(!run.early_exit && run.lost.is_empty() && run.panic.is_none());
        let want: Vec<Option<usize>> = (0..50).map(|j| Some(j * j)).collect();
        assert_eq!(run.results, want, "t={threads}");
    }
}

#[test]
fn a_saturated_unit_cuts_off_every_unit_above_it() {
    for threads in [1, 3] {
        let ran = Mutex::new(Vec::new());
        let run = Pool::new(EngineId::Checker, threads).run(40, &|j, _| {
            ran.lock().unwrap().push(j);
            if j == 7 || j == 20 {
                Attempt::Saturated(j)
            } else {
                Attempt::Done(j)
            }
        });
        assert_eq!(run.status, RunStatus::Complete, "t={threads}");
        assert!(run.early_exit);
        let kept: Vec<usize> = run.results.iter().flatten().copied().collect();
        assert_eq!(kept, (0..=7).collect::<Vec<_>>(), "t={threads}");
        if threads == 1 {
            assert_eq!(*ran.lock().unwrap(), (0..=7).collect::<Vec<_>>(), "serial stops at 7");
        }
    }
}

#[test]
fn skipped_units_never_run_and_are_not_left_on_the_frontier() {
    let skip = [1, 4, 5];
    let pool = Pool { skip: &skip, ..Pool::new(EngineId::Checker, 2) };
    let run = pool.run(8, &|j, _| {
        assert!(!skip.contains(&j), "skipped unit {j} ran");
        Attempt::Done(j)
    });
    assert_eq!(run.status, RunStatus::Complete);
    let ran: Vec<usize> = run.results.iter().flatten().copied().collect();
    assert_eq!(ran, vec![0, 2, 3, 6, 7]);
}

#[test]
fn failed_attempts_climb_and_pass_their_attempt_number() {
    let pool = Pool { attempts: 3, ..Pool::new(EngineId::Conform, 1) };
    // Unit 0 succeeds on its third attempt; unit 1 fails all three.
    let run = pool.run(3, &|j, attempt| match (j, attempt) {
        (0, 2) => Attempt::Done(attempt),
        (0 | 1, _) => Attempt::Failed,
        _ => Attempt::Done(attempt),
    });
    assert_eq!(run.results, vec![Some(2), None, Some(0)]);
    assert_eq!(run.status, RunStatus::Degraded { lost: vec![1] });
    assert_eq!(run.lost, vec![1]);
    assert!(run.panic.is_none(), "lost without panicking");
}

#[test]
fn a_budget_trip_leaves_later_units_and_lost_ones_on_the_frontier() {
    let plan = FaultPlan::pinned(EngineId::Sweep, 1, 2, Fault::Panic);
    let pool = Pool { faults: Some(plan), ..Pool::new(EngineId::Sweep, 1) };
    let run = pool.run(6, &|j, _| {
        if j == 3 {
            Attempt::Exhausted(ExhaustReason::Executions { limit: 9 })
        } else {
            Attempt::Done(j)
        }
    });
    assert_eq!(run.results, vec![Some(0), None, Some(2), None, None, None]);
    assert_eq!(
        run.status,
        RunStatus::Inconclusive {
            reason: ExhaustReason::Executions { limit: 9 },
            frontier: vec![1, 3, 4, 5],
        }
    );
    assert_eq!(run.lost, vec![1]);
}

#[test]
fn a_cancelled_budget_runs_nothing() {
    let budget = Budget::unlimited();
    budget.cancel();
    let calls = AtomicUsize::new(0);
    let pool = Pool { budget: Some(&budget), ..Pool::new(EngineId::Sweep, 2) };
    let run = pool.run(5, &|j, _| {
        calls.fetch_add(1, Ordering::Relaxed);
        Attempt::Done(j)
    });
    assert_eq!(calls.load(Ordering::Relaxed), 0);
    assert_eq!(
        run.status,
        RunStatus::Inconclusive { reason: ExhaustReason::Cancelled, frontier: (0..5).collect() }
    );
}

#[test]
fn the_strict_reading_maps_each_status() {
    assert_eq!(strict(&RunStatus::Complete, None), Ok(()));
    let inconclusive =
        RunStatus::Inconclusive { reason: ExhaustReason::Deadline, frontier: vec![] };
    assert_eq!(strict(&inconclusive, None), Err(ExhaustReason::Deadline));
    // A unit that panics on every attempt is lost; the strict reading
    // re-raises the unit's own payload.
    let run = Pool::new(EngineId::Sweep, 2).run(4, &|j, _| -> Attempt<usize> {
        if j == 2 {
            std::panic::panic_any(format!("unit {j} is broken"));
        }
        Attempt::Done(j)
    });
    assert_eq!(run.status, RunStatus::Degraded { lost: vec![2] });
    let payload = catch_unwind(AssertUnwindSafe(|| strict(&run.status, run.panic)))
        .expect_err("a degraded run panics the strict reading");
    assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("unit 2 is broken"));
}
