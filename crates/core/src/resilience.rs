//! Resilience primitives shared by the three compute engines: budgets
//! with cooperative cancellation, structured exhaustion reasons,
//! deterministic fault injection, and the one work [`Pool`] every
//! engine runs its units on.
//!
//! The execution layer treats resource exhaustion as a *first-class
//! outcome* rather than a crash (herd reports partial exploration when
//! enumeration is cut short; this layer does the same). Four pieces
//! compose:
//!
//! * [`Budget`] — a shared, cooperatively-polled resource bound:
//!   wall-clock deadline, approximate memory high-water and an
//!   explicit cancel flag. The enumerator polls it amortized in the
//!   DFS hot loop ([`crate::exec`]); the pool polls it per attempt.
//!   A watchdog thread past the deadline only has to call
//!   [`Budget::cancel`] — every poll site then unwinds with
//!   [`crate::exec::EnumError::Cancelled`].
//! * [`ExhaustReason`] / [`RunStatus`] — the structured vocabulary for
//!   "the run did not finish": `Inconclusive` carries what was
//!   explored and which shards remain (the frontier), `Degraded`
//!   names the shards lost to panics after retry. Both are reports,
//!   never aborts.
//! * [`FaultPlan`] — seeded, deterministic fault injection (SplitMix64,
//!   the same discipline as `drfrlx_conform::schedule_params`):
//!   whether shard `u` of engine `e` panics, stalls or exhausts on
//!   attempt `a` is a pure function of `(seed, e, u, a)`, so every
//!   chaos run is replayable from its seed alone. All injection is off
//!   unless a plan is supplied.
//! * [`Pool`] — the single worker pool behind checker shards, sweep
//!   jobs and fuzz-campaign programs. A run with no budget, no fault
//!   plan and nothing to skip is simply the default value of the same
//!   path; the engines' strict entry points read its [`PoolRun`]
//!   through [`strict`].

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// SplitMix64 finalizer — the same mixer as the in-tree PRNG.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A shared resource bound polled cooperatively by the engines.
///
/// The execution-count budget stays where it always lived
/// ([`crate::exec::EnumLimits::max_executions`], a shared atomic
/// counter); `Budget` adds the bounds that need wall-clock or external
/// intervention: a deadline, an approximate per-engine memory
/// high-water, and a cancel flag anyone (a watchdog, a signal handler,
/// a test) may set.
#[derive(Debug, Default)]
pub struct Budget {
    cancel: AtomicBool,
    deadline: Option<Instant>,
    max_memory_bytes: Option<usize>,
}

impl Budget {
    /// A budget with no bounds — only explicit [`Budget::cancel`] can
    /// trip it.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget { deadline: Some(Instant::now() + timeout), ..Budget::default() }
    }

    /// Cap the approximate per-engine memory high-water (journal,
    /// memo table, relation carriers — an estimate, not an allocator
    /// measurement).
    pub fn with_max_memory(mut self, bytes: usize) -> Budget {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Request cooperative cancellation; every poll site unwinds soon
    /// after.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Has someone called [`Budget::cancel`]?
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The deadline watchdog: stalled units may never reach a poll
    /// site, so a sleeping sidecar flips the cancel flag the moment the
    /// deadline passes — every poll site and every injected stall then
    /// unwinds cooperatively. Returns once `done` is set (the setter
    /// unparks this thread, so a finished run never waits out a sleep)
    /// or the flag is flipped.
    fn watch(&self, done: &AtomicBool) {
        let Some(deadline) = self.deadline else { return };
        while !done.load(Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                self.cancel();
                return;
            }
            std::thread::park_timeout(deadline - now);
        }
    }

    /// One cooperative poll: `Err` when the budget is exhausted.
    /// `approx_memory_bytes` is the caller's current memory estimate
    /// (pass 0 to skip the memory check).
    ///
    /// # Errors
    ///
    /// [`ExhaustReason::Cancelled`] if the cancel flag is set,
    /// [`ExhaustReason::Deadline`] past the deadline,
    /// [`ExhaustReason::Memory`] past the memory cap.
    pub fn check(&self, approx_memory_bytes: usize) -> Result<(), ExhaustReason> {
        if self.cancelled() {
            return Err(ExhaustReason::Cancelled);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(ExhaustReason::Deadline);
            }
        }
        if let Some(cap) = self.max_memory_bytes {
            if approx_memory_bytes > cap {
                return Err(ExhaustReason::Memory { limit: cap });
            }
        }
        Ok(())
    }
}

/// Why a run stopped short of full exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustReason {
    /// The shared execution counter hit
    /// [`crate::exec::EnumLimits::max_executions`].
    Executions {
        /// The configured limit.
        limit: usize,
    },
    /// The wall-clock deadline passed.
    Deadline,
    /// Someone called [`Budget::cancel`] (watchdog, signal, test).
    Cancelled,
    /// The approximate memory high-water passed its cap.
    Memory {
        /// The configured cap in bytes.
        limit: usize,
    },
}

impl fmt::Display for ExhaustReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustReason::Executions { limit } => {
                write!(f, "execution budget ({limit}) exhausted")
            }
            ExhaustReason::Deadline => write!(f, "wall-clock deadline expired"),
            ExhaustReason::Cancelled => write!(f, "cancelled"),
            ExhaustReason::Memory { limit } => {
                write!(f, "approximate memory high-water passed {limit} bytes")
            }
        }
    }
}

/// How a resilient run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every unit of work finished; the report is exactly what an
    /// unbudgeted, fault-free run produces.
    Complete,
    /// Some units were lost to panics (or injected faults) even after
    /// retry; the report covers every other unit.
    Degraded {
        /// Indices of the lost units (shards or jobs), ascending.
        lost: Vec<usize>,
    },
    /// A global budget ran out before every unit finished. The report
    /// covers the completed units — a sound prefix — and `frontier`
    /// names the units still to run (the input to `--resume`).
    Inconclusive {
        /// What ran out.
        reason: ExhaustReason,
        /// Indices of units not completed, ascending.
        frontier: Vec<usize>,
    },
}

impl RunStatus {
    /// Did every unit finish?
    pub fn is_complete(&self) -> bool {
        matches!(self, RunStatus::Complete)
    }
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStatus::Complete => write!(f, "complete"),
            RunStatus::Degraded { lost } => {
                write!(f, "degraded ({} unit(s) lost: {lost:?})", lost.len())
            }
            RunStatus::Inconclusive { reason, frontier } => {
                write!(f, "inconclusive ({reason}; {} unit(s) unfinished)", frontier.len())
            }
        }
    }
}

/// What one attempt at a [`Pool`] unit produced.
pub enum Attempt<T> {
    /// The unit finished.
    Done(T),
    /// The unit finished and its result alone settles the run: units
    /// above it need not run (early exit).
    Saturated(T),
    /// This attempt failed without panicking (a campaign rung whose
    /// oracle ran out of executions); the next attempt may succeed.
    Failed,
    /// A global budget ran out: the run stops and the unit goes back
    /// on the frontier.
    Exhausted(ExhaustReason),
}

/// A panic payload caught from a lost unit, kept so a strict caller
/// can re-raise it.
pub type Panic = Box<dyn Any + Send + 'static>;

/// How long an injected stall waits for the watchdog's cancellation
/// before giving up on its own — bounds chaos runs whose deadline is
/// far off or absent.
const STALL_FALLBACK: Duration = Duration::from_millis(25);

/// The one work pool of the three engines: checker shards, sweep jobs
/// and fuzz-campaign programs are all units of a `Pool` run.
///
/// Units are claimed by atomic index (a plain serial loop at
/// `threads == 1`) and run under `catch_unwind`; each gets up to
/// `attempts` tries, and the attempt number is passed to the unit so
/// it can back off on a retry. A seeded [`FaultPlan`] injects panics,
/// stalls and exhaustion per `(engine, unit, attempt)`. The budget is
/// polled before every attempt, and a watchdog thread is armed only
/// when the budget has a deadline. Units listed in `skip` never run;
/// a [`Attempt::Saturated`] unit lowers the cutoff above which no unit
/// is claimed or kept. With the defaults of [`Pool::new`] nothing is
/// injected, polled or skipped.
pub struct Pool<'a> {
    /// Which engine the units belong to (the fault-plan key).
    pub engine: EngineId,
    /// Worker threads; clamped to `1..=units`.
    pub threads: usize,
    /// Tries per unit before it is reported lost.
    pub attempts: usize,
    /// Shared resource budget, polled before every attempt.
    pub budget: Option<&'a Budget>,
    /// Deterministic fault injection (chaos testing only).
    pub faults: Option<FaultPlan>,
    /// Units that already completed elsewhere (a checkpoint), ascending.
    pub skip: &'a [usize],
    /// A cutoff carried over from such completed units.
    pub cutoff: Option<usize>,
}

/// The result of a [`Pool::run`].
pub struct PoolRun<T> {
    /// One slot per unit: `Some` for every unit that completed at or
    /// below the cutoff, `None` for skipped, lost, unfinished or
    /// cut-off units.
    pub results: Vec<Option<T>>,
    /// How the run ended: `Degraded` names the lost units, and
    /// `Inconclusive`'s frontier the units still to run (lost ones
    /// included).
    pub status: RunStatus,
    /// Did a saturated unit (or the carried-over cutoff) cut the run
    /// short?
    pub early_exit: bool,
    /// Units that failed every attempt, ascending (the status names
    /// them too, merged into the frontier when the run is
    /// inconclusive).
    pub lost: Vec<usize>,
    /// The panic of the first lost unit, if it was lost to panics.
    pub panic: Option<Panic>,
}

/// The strict reading of a run's status: `Ok` when complete, the
/// reason when inconclusive, and a degraded run re-raises `panic` (the
/// first lost unit's payload) so a strict caller sees the original
/// failure.
///
/// # Errors
///
/// The [`ExhaustReason`] of an `Inconclusive` status.
pub fn strict(status: &RunStatus, panic: Option<Panic>) -> Result<(), ExhaustReason> {
    match status {
        RunStatus::Complete => Ok(()),
        RunStatus::Inconclusive { reason, .. } => Err(*reason),
        RunStatus::Degraded { lost } => resume_unwind(
            panic
                .unwrap_or_else(|| Box::new(format!("unit {} lost to an injected fault", lost[0]))),
        ),
    }
}

impl<'a> Pool<'a> {
    /// A pool of `threads` workers for `engine`: one retry per unit,
    /// no budget, no faults, nothing skipped.
    pub fn new(engine: EngineId, threads: usize) -> Pool<'a> {
        Pool { engine, threads, attempts: 2, budget: None, faults: None, skip: &[], cutoff: None }
    }

    /// Run units `0..n`; `unit(j, attempt)` does the work of unit `j`.
    /// Results come back in unit order whatever the thread count.
    pub fn run<T: Send>(
        &self,
        n: usize,
        unit: &(dyn Fn(usize, usize) -> Attempt<T> + Sync),
    ) -> PoolRun<T> {
        let tripped: OnceLock<ExhaustReason> = OnceLock::new();
        let cutoff = AtomicUsize::new(self.cutoff.unwrap_or(usize::MAX));
        let lost: Mutex<Vec<(usize, Option<Panic>)>> = Mutex::new(Vec::new());
        // One unit through its attempts: `None` when it did not finish,
        // either left on the frontier by a budget trip or recorded lost.
        let run_one = |j: usize| -> Option<T> {
            let mut panic = None;
            for attempt in 0..self.attempts {
                if tripped.get().is_some() {
                    return None;
                }
                if let Some(Err(r)) = self.budget.map(|b| b.check(0)) {
                    let _ = tripped.set(r);
                    return None;
                }
                let fault = self.faults.and_then(|pl| pl.fault_for(self.engine, j, attempt));
                match fault {
                    Some(Fault::Stall) => {
                        self.stall();
                        continue;
                    }
                    Some(Fault::Exhaust) => continue,
                    _ => {}
                }
                let r = catch_unwind(AssertUnwindSafe(|| {
                    if fault == Some(Fault::Panic) {
                        panic!("injected fault: {:?} unit {j} attempt {attempt}", self.engine);
                    }
                    unit(j, attempt)
                }));
                match r {
                    Ok(Attempt::Done(v)) => return Some(v),
                    Ok(Attempt::Saturated(v)) => {
                        cutoff.fetch_min(j, Ordering::Relaxed);
                        return Some(v);
                    }
                    Ok(Attempt::Failed) => {}
                    Ok(Attempt::Exhausted(r)) => {
                        let _ = tripped.set(r);
                        return None;
                    }
                    Err(p) => panic = Some(p),
                }
            }
            lost.lock().expect("lost units").push((j, panic));
            None
        };
        // Claims past the cutoff or after a trip are never needed: the
        // cutoff only falls and claims only rise.
        let stop = |j: usize| j > cutoff.load(Ordering::Relaxed) || tripped.get().is_some();
        let skipped = |j: usize| self.skip.binary_search(&j).is_ok();

        let threads = self.threads.clamp(1, n.max(1));
        let (done, next) = (AtomicBool::new(false), AtomicUsize::new(0));
        // Parallel workers fill per-unit cells; the serial loop writes
        // its results directly and takes no lock.
        let cells: Vec<Mutex<Option<T>>> =
            (0..if threads == 1 { 0 } else { n }).map(|_| Mutex::new(None)).collect();
        let serial = std::thread::scope(|s| {
            let watchdog = self.budget.filter(|b| b.deadline().is_some()).map(|b| {
                let done = &done;
                s.spawn(move || b.watch(done))
            });
            let serial = if threads == 1 {
                let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
                for (j, slot) in results.iter_mut().enumerate() {
                    if stop(j) {
                        break;
                    }
                    if !skipped(j) {
                        *slot = run_one(j);
                    }
                }
                Some(results)
            } else {
                let workers: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| loop {
                            let j = next.fetch_add(1, Ordering::Relaxed);
                            if j >= n || stop(j) {
                                break;
                            }
                            if !skipped(j) {
                                let out = run_one(j);
                                *cells[j].lock().expect("pool slot") = out;
                            }
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().expect("pool workers catch every unit panic");
                }
                None
            };
            done.store(true, Ordering::Release);
            if let Some(w) = watchdog {
                w.thread().unpark();
            }
            serial
        });
        let mut results = serial.unwrap_or_else(|| {
            cells.into_iter().map(|c| c.into_inner().expect("pool slot")).collect()
        });

        let cut = cutoff.load(Ordering::Relaxed);
        let mut lost = lost.into_inner().expect("lost units");
        lost.retain(|&(j, _)| j <= cut);
        lost.sort_unstable_by_key(|&(j, _)| j);
        let lost_at = |j: usize| lost.binary_search_by_key(&j, |&(k, _)| k).is_ok();
        let mut frontier = Vec::new();
        for (j, slot) in results.iter_mut().enumerate() {
            if j > cut {
                *slot = None;
            } else if slot.is_none() && !skipped(j) && !lost_at(j) {
                frontier.push(j);
            }
        }
        let lost_units: Vec<usize> = lost.iter().map(|&(j, _)| j).collect();
        let status = if !frontier.is_empty() {
            frontier.extend_from_slice(&lost_units);
            frontier.sort_unstable();
            let reason = tripped.get().copied().unwrap_or(ExhaustReason::Cancelled);
            RunStatus::Inconclusive { reason, frontier }
        } else if !lost_units.is_empty() {
            RunStatus::Degraded { lost: lost_units.clone() }
        } else {
            RunStatus::Complete
        };
        let panic = lost.into_iter().find_map(|(_, p)| p);
        PoolRun { results, status, early_exit: cut != usize::MAX, lost: lost_units, panic }
    }

    /// An injected [`Fault::Stall`]: hold the unit until the watchdog
    /// cancels the budget (or the fallback window elapses), then return
    /// so the attempt counts as failed — the same classification either
    /// way, keeping reports deterministic.
    fn stall(&self) {
        let cap = Instant::now() + STALL_FALLBACK;
        while !self.budget.is_some_and(Budget::cancelled) && Instant::now() < cap {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Which compute engine a fault-injection point belongs to. Part of
/// the [`FaultPlan`] hash input, so one seed drives distinct fault
/// schedules per engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineId {
    /// The streaming checker's shard pool (`drfrlx-core::exec`).
    Checker,
    /// The simulation sweep pool (`hsim-sys::run_matrix`).
    Sweep,
    /// The conformance harness (`drfrlx-conform`).
    Conform,
}

impl EngineId {
    fn tag(self) -> u64 {
        match self {
            EngineId::Checker => 0x1000_0001,
            EngineId::Sweep => 0x1000_0002,
            EngineId::Conform => 0x1000_0003,
        }
    }
}

/// A fault a [`FaultPlan`] may inject at a shard/job boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The unit panics (caught by the unit's `catch_unwind`).
    Panic,
    /// The unit stalls until the watchdog cancels it (or a bounded
    /// fallback wait elapses) and is then treated as failed.
    Stall,
    /// The unit reports budget exhaustion without doing its work.
    Exhaust,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fault::Panic => "injected panic",
            Fault::Stall => "injected stall",
            Fault::Exhaust => "injected budget exhaustion",
        })
    }
}

/// Deterministic fault injection: a pure function from
/// `(seed, engine, unit, attempt)` to an optional [`Fault`], SplitMix64
/// through and through — the same replayability discipline as the
/// conformance harness's `schedule_params`. With no plan (the
/// default everywhere) nothing is ever injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Seeded(u64),
    Pinned { engine: EngineId, unit: usize, attempts: usize, fault: Fault },
}

impl FaultPlan {
    /// The seeded plan: roughly one unit-attempt in five draws a
    /// fault, split evenly across the three kinds.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan { mode: Mode::Seeded(seed) }
    }

    /// A surgical plan for tests: inject `fault` at `(engine, unit)`
    /// for the first `attempts` attempts, nothing anywhere else. With
    /// `attempts == 1` the retry succeeds; with `attempts >= 2` the
    /// unit is lost.
    pub fn pinned(engine: EngineId, unit: usize, attempts: usize, fault: Fault) -> FaultPlan {
        FaultPlan { mode: Mode::Pinned { engine, unit, attempts, fault } }
    }

    /// The fault (if any) to inject when `engine` starts `unit` on
    /// `attempt` (0 = first try, 1 = retry).
    pub fn fault_for(&self, engine: EngineId, unit: usize, attempt: usize) -> Option<Fault> {
        match self.mode {
            Mode::Pinned { engine: e, unit: u, attempts, fault } => {
                (e == engine && u == unit && attempt < attempts).then_some(fault)
            }
            Mode::Seeded(seed) => {
                let h = mix64(
                    mix64(seed ^ engine.tag())
                        ^ mix64(unit as u64 ^ 0x5851_F42D_4C95_7F2D)
                        ^ mix64(attempt as u64 ^ 0x1405_7B7E_F767_814F),
                );
                match h % 16 {
                    0 => Some(Fault::Panic),
                    1 => Some(Fault::Stall),
                    2 => Some(Fault::Exhaust),
                    _ => None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.check(usize::MAX / 2).is_ok());
        assert!(!b.cancelled());
    }

    #[test]
    fn cancel_trips_every_poll() {
        let b = Budget::unlimited();
        b.cancel();
        assert_eq!(b.check(0), Err(ExhaustReason::Cancelled));
    }

    #[test]
    fn elapsed_deadline_trips() {
        let b = Budget::with_timeout(Duration::from_secs(0));
        assert_eq!(b.check(0), Err(ExhaustReason::Deadline));
    }

    #[test]
    fn memory_cap_compares_the_estimate() {
        let b = Budget::unlimited().with_max_memory(1000);
        assert!(b.check(1000).is_ok());
        assert_eq!(b.check(1001), Err(ExhaustReason::Memory { limit: 1000 }));
    }

    #[test]
    fn fault_plan_is_a_pure_function() {
        let plan = FaultPlan::seeded(42);
        for unit in 0..64 {
            for attempt in 0..2 {
                for engine in [EngineId::Checker, EngineId::Sweep, EngineId::Conform] {
                    assert_eq!(
                        plan.fault_for(engine, unit, attempt),
                        plan.fault_for(engine, unit, attempt),
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_plans_inject_every_fault_kind_somewhere() {
        let plan = FaultPlan::seeded(1);
        let mut kinds = std::collections::BTreeSet::new();
        for unit in 0..512 {
            if let Some(f) = plan.fault_for(EngineId::Checker, unit, 0) {
                kinds.insert(format!("{f:?}"));
            }
        }
        assert_eq!(kinds.len(), 3, "512 units should draw all three fault kinds");
    }

    #[test]
    fn engines_get_distinct_fault_schedules() {
        let plan = FaultPlan::seeded(7);
        let per_engine = |e: EngineId| -> Vec<Option<Fault>> {
            (0..256).map(|u| plan.fault_for(e, u, 0)).collect()
        };
        assert_ne!(per_engine(EngineId::Checker), per_engine(EngineId::Sweep));
        assert_ne!(per_engine(EngineId::Sweep), per_engine(EngineId::Conform));
    }

    #[test]
    fn pinned_plan_is_surgical() {
        let plan = FaultPlan::pinned(EngineId::Sweep, 3, 1, Fault::Panic);
        assert_eq!(plan.fault_for(EngineId::Sweep, 3, 0), Some(Fault::Panic));
        assert_eq!(plan.fault_for(EngineId::Sweep, 3, 1), None, "retry succeeds");
        assert_eq!(plan.fault_for(EngineId::Sweep, 2, 0), None);
        assert_eq!(plan.fault_for(EngineId::Checker, 3, 0), None);
    }

    #[test]
    fn run_status_displays() {
        assert_eq!(RunStatus::Complete.to_string(), "complete");
        let d = RunStatus::Degraded { lost: vec![2, 5] };
        assert!(d.to_string().contains("[2, 5]"));
        let i = RunStatus::Inconclusive {
            reason: ExhaustReason::Executions { limit: 10 },
            frontier: vec![1],
        };
        assert!(i.to_string().contains("execution budget (10)"));
        assert!(!i.is_complete());
    }
}
