//! Whole-program DRF checking — the streaming race-check pipeline.
//!
//! A DRF-family model is a contract: *if* the program is race-free in
//! every SC execution (of its quantum-equivalent program, for DRFrlx),
//! *then* the system guarantees SC (quantum-equivalent) results.
//! [`check_program`] discharges the programmer's half of the contract
//! by streaming every SC execution through the Listing 7 race
//! detectors:
//!
//! * **DRF0** — every atomic is viewed as paired; illegal = data races
//!   (§2.3.2 with only data/atomic distinguished).
//! * **DRF1** — relaxed classes are viewed as unpaired (sound: stronger
//!   than annotated); illegal = data races.
//! * **DRFrlx** — classes as annotated; illegal = data, commutative,
//!   non-ordering, quantum and speculative races, detected on the
//!   quantum-equivalent program when quantum atomics are present.
//!
//! The one execution path ([`check_program_outcome`], read strictly by
//! [`check_program_with`]) runs the sharded streaming enumerator with
//! sleep-set partial-order reduction: executions are analyzed as they
//! complete, nothing is materialized, and the check exits early once
//! every [`crate::races::attainable_kinds`] kind has a witness (the
//! verdict can no longer change). Budgets, fault plans and checkpoints
//! are values of that path, not a second one. The materializing
//! pre-streaming behavior survives as [`check_program_reference`] for
//! differential testing and benchmarking.

use crate::classes::{MemoryModel, OpClass};
use crate::exec::{
    enumerate_sc, enumerate_sc_quantum, visit_sc_outcome, EnumError, EnumLimits, EnumStats,
    Execution, ExecutionVisitor, Reduction, ResilienceOptions,
};
use crate::program::Program;
use crate::quantum::has_quantum;
use crate::races::{attainable_kinds, Race, RaceDetector, RaceKind};
use crate::resilience::{strict, FaultPlan, Panic, RunStatus};
use std::collections::BTreeSet;

/// The verdict of a whole-program check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every SC execution (of the quantum-equivalent program) is free of
    /// illegal races: the program upholds its half of the contract and
    /// the system must appear SC.
    RaceFree,
    /// At least one SC execution contains an illegal race: the model
    /// makes no guarantee for this program.
    Racy,
}

/// One illegal race found during checking, with its provenance.
#[derive(Debug, Clone)]
pub struct FoundRace {
    /// Index of the execution (in explored order) exhibiting it.
    pub exec_index: usize,
    /// The racing pair and race kind.
    pub race: Race,
    /// Static identity of the race (see [`RaceKey`]) — the stable way
    /// to compare races across reductions and thread counts.
    pub key: RaceKey,
    /// Human-readable description of the two events.
    pub description: String,
}

/// Result of [`check_program`].
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Program name.
    pub program: String,
    /// Model the program was checked against.
    pub model: MemoryModel,
    /// Number of SC executions explored (analyzed). With partial-order
    /// reduction or early exit this is the work actually done, not the
    /// full interleaving count.
    pub executions: usize,
    /// Scheduling subtrees skipped by partial-order reduction.
    pub pruned: usize,
    /// Subtrees skipped by duplicate-state memoization
    /// ([`Reduction::SleepSetMemo`]); zero otherwise.
    pub memo_pruned: usize,
    /// Peak number of entries in the memo visited-table across shards.
    pub table_peak: usize,
    /// Whether the quantum transformation was applied.
    pub quantum_transformed: bool,
    /// Distinct illegal races — one representative per
    /// `(kind, instruction pair)`, keyed by static `(tid, iid)` so the
    /// list is stable under partial-order reduction.
    pub races: Vec<FoundRace>,
    /// The overall verdict.
    pub verdict: Verdict,
}

impl CheckReport {
    /// Did the program uphold the contract?
    pub fn is_race_free(&self) -> bool {
        self.verdict == Verdict::RaceFree
    }

    /// Distinct race kinds found.
    pub fn race_kinds(&self) -> Vec<RaceKind> {
        let mut out: Vec<RaceKind> = Vec::new();
        for r in &self.races {
            if !out.contains(&r.race.kind) {
                out.push(r.race.kind);
            }
        }
        out.sort();
        out
    }

    /// Does the report contain a race of the given kind?
    pub fn has_race_kind(&self, kind: RaceKind) -> bool {
        self.races.iter().any(|r| r.race.kind == kind)
    }
}

/// How the streaming checker runs.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Enumeration limits (execution budget, quantum domain).
    pub limits: EnumLimits,
    /// Worker threads for the sharded walk. The result is identical at
    /// any thread count; more threads only finish sooner.
    pub threads: usize,
    /// Search-space pruning. [`Reduction::SleepSet`] is sound for
    /// verdicts, race kinds and result sets (see DESIGN.md).
    pub reduction: Reduction,
    /// Stop exploring once every attainable race kind has a witness.
    pub early_exit: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            limits: EnumLimits::default(),
            threads: 1,
            reduction: Reduction::SleepSet,
            early_exit: true,
        }
    }
}

/// How each model views a program's annotations (see module docs).
fn model_view(p: &Program, model: MemoryModel) -> Program {
    match model {
        MemoryModel::Drf0 => {
            p.map_classes(|c| if c.is_atomic() { OpClass::Paired } else { OpClass::Data })
        }
        MemoryModel::Drf1 => p.map_classes(|c| match c {
            c if c.is_relaxed() => OpClass::Unpaired,
            // DRF1 predates one-sided synchronization: upgraded to paired.
            OpClass::Acquire | OpClass::Release => OpClass::Paired,
            c => c,
        }),
        MemoryModel::Drfrlx => p.clone(),
    }
}

/// Static identity of a racing pair: kind plus the two `(tid, iid)`
/// instruction coordinates, order-normalized. Stable across
/// interleavings, shards, reduction strategy and thread count — unlike
/// event ids or execution indices.
pub type RaceKey = (RaceKind, (usize, usize), (usize, usize));

/// The streaming race checker: one per shard. Analyzes each execution
/// as it completes and keeps one witness per static race key.
struct RaceCollector<'p> {
    view: &'p Program,
    detector: RaceDetector,
    attainable: &'p [RaceKind],
    early_exit: bool,
    explored: usize,
    keys: BTreeSet<RaceKey>,
    races: Vec<FoundRace>,
    found_kinds: BTreeSet<RaceKind>,
}

impl<'p> RaceCollector<'p> {
    fn new(view: &'p Program, attainable: &'p [RaceKind], early_exit: bool) -> RaceCollector<'p> {
        RaceCollector {
            view,
            detector: RaceDetector::for_program(view),
            attainable,
            early_exit,
            explored: 0,
            keys: BTreeSet::new(),
            races: Vec::new(),
            found_kinds: BTreeSet::new(),
        }
    }

    /// Can this collector's verdict still change? Once every attainable
    /// kind has a witness the answer is no.
    fn saturated(&self) -> bool {
        !self.attainable.is_empty() && self.attainable.iter().all(|k| self.found_kinds.contains(k))
    }
}

impl ExecutionVisitor for RaceCollector<'_> {
    fn visit(&mut self, e: &Execution) -> bool {
        let analysis = self.detector.analyze(e);
        for race in analysis.races() {
            let (ea, eb) = (&e.events[race.a], &e.events[race.b]);
            let mut pair = [(ea.tid, ea.iid), (eb.tid, eb.iid)];
            pair.sort_unstable();
            let key = (race.kind, pair[0], pair[1]);
            if self.keys.insert(key) {
                self.found_kinds.insert(race.kind);
                self.races.push(FoundRace {
                    exec_index: self.explored,
                    key,
                    description: format!(
                        "{}: {} between {} and {}",
                        self.view.name(),
                        race.kind,
                        crate::pretty::event_label(self.view, ea),
                        crate::pretty::event_label(self.view, eb),
                    ),
                    race,
                });
            }
        }
        self.explored += 1;
        !(self.early_exit && self.saturated())
    }
}

/// Check `p` against `model` on the streaming pipeline, with explicit
/// options: sharded enumeration, partial-order reduction, parallel
/// workers and early exit. The strict view of
/// [`check_program_outcome`] for a fresh, fault-free run; the report
/// is deterministic — identical at any `threads`.
///
/// # Errors
///
/// Returns [`EnumError`] if enumeration exceeds the configured limits.
pub fn check_program_with(
    p: &Program,
    model: MemoryModel,
    opts: &CheckOptions,
) -> Result<CheckReport, EnumError> {
    let mut out = check_program_outcome(p, model, opts, &CheckResilience::default())
        .expect("a fresh run has no checkpoint to mismatch");
    strict(&out.status, out.panic.take())?;
    Ok(out.into_report())
}

/// One completed shard of a check — the unit of checkpoint/resume.
/// The shard plan is a deterministic function of the program and
/// options, so an index recorded by one process names the same
/// subtree in the next.
#[derive(Debug, Clone)]
pub struct ShardRecord {
    /// Index in the deterministic shard plan.
    pub index: usize,
    /// The shard's explored/pruned counts.
    pub stats: EnumStats,
    /// Did this shard alone witness every attainable race kind?
    pub saturated: bool,
    /// Races found in this shard, shard-local `exec_index`.
    pub races: Vec<FoundRace>,
}

/// Resilience options for [`check_program_outcome`]. The default is a
/// fresh run: no faults, no checkpoint. The budget (deadline / cancel
/// / memory cap) travels inside [`CheckOptions::limits`] so the DFS hot
/// loop can poll it.
#[derive(Debug, Clone, Default)]
pub struct CheckResilience {
    /// Deterministic fault injection (chaos testing only).
    pub fault_plan: Option<FaultPlan>,
    /// Completed-shard records from a previous run's checkpoint; they
    /// are not re-run and merge into the final report as-is.
    pub completed: Vec<ShardRecord>,
    /// The checkpoint's plan size (`CheckOutcome::total_shards`), which
    /// `completed` indexes into; 0 for a fresh run.
    pub total_shards: usize,
}

/// Result of a check: how the run ended, plus the per-shard state a
/// checkpoint serializes and the report merges.
pub struct CheckOutcome {
    /// How the run ended.
    pub status: RunStatus,
    /// Every completed shard — previous runs' (from the checkpoint)
    /// plus this run's — in index order. This is the checkpoint
    /// payload.
    pub shards: Vec<ShardRecord>,
    /// Size of the deterministic shard plan (1 when the serial probe
    /// finished the whole tree).
    pub total_shards: usize,
    /// The panic of the first lost shard, for strict callers to
    /// re-raise.
    pub panic: Option<Panic>,
    program: String,
    model: MemoryModel,
    quantum_transformed: bool,
    frontier_pruned: usize,
}

impl CheckOutcome {
    /// The merged report. Under [`RunStatus::Inconclusive`] or
    /// [`RunStatus::Degraded`] it covers the completed shards — a sound
    /// prefix: every listed race is real (races are only ever found by
    /// exploring real executions), but absence of races is not yet a
    /// verdict.
    pub fn report(&self) -> CheckReport {
        self.merge(self.shards.iter().map(|r| (r.stats, r.races.clone())))
    }

    /// [`CheckOutcome::report`], consuming the shard records.
    pub fn into_report(mut self) -> CheckReport {
        let shards = std::mem::take(&mut self.shards);
        self.merge(shards.into_iter().map(|r| (r.stats, r.races)))
    }

    /// The deterministic merge: shards in index order, races deduped
    /// by static key, execution indices offset by prior shards' work —
    /// so a resumed run reproduces the uninterrupted report exactly.
    fn merge(&self, shards: impl Iterator<Item = (EnumStats, Vec<FoundRace>)>) -> CheckReport {
        let mut stats = EnumStats { pruned: self.frontier_pruned, ..EnumStats::default() };
        let mut keys: BTreeSet<RaceKey> = BTreeSet::new();
        let mut races: Vec<FoundRace> = Vec::new();
        for (shard, found) in shards {
            for mut f in found {
                if keys.insert(f.key) {
                    f.exec_index += stats.explored;
                    races.push(f);
                }
            }
            stats.absorb(shard);
        }
        let verdict = if races.is_empty() { Verdict::RaceFree } else { Verdict::Racy };
        CheckReport {
            program: self.program.clone(),
            model: self.model,
            executions: stats.explored,
            pruned: stats.pruned,
            memo_pruned: stats.memo_pruned,
            table_peak: stats.table_peak,
            quantum_transformed: self.quantum_transformed,
            races,
            verdict,
        }
    }
}

/// Check `p` against `model`: the checker's one execution path.
/// Panic-isolated shards with one retry (backing off
/// [`Reduction::SleepSetMemo`] to [`Reduction::SleepSet`]),
/// cooperative budgets with a deadline watchdog, deterministic fault
/// injection, and resume over a checkpoint's completed shards.
/// Exhaustion comes back as [`RunStatus::Inconclusive`], lost shards
/// as [`RunStatus::Degraded`], never an error or abort.
///
/// Determinism: with the same program, options, fault plan and
/// completed set, the merged report and status are identical at
/// `threads: 1`; at higher thread counts the *completed* prefix under
/// a real budget trip depends on timing, but every reported race is
/// still drawn from the same deterministic per-shard sets
/// (prefix-soundness).
///
/// # Errors
///
/// A checkpoint whose `total_shards` or shard indices do not fit this
/// program's plan.
pub fn check_program_outcome(
    p: &Program,
    model: MemoryModel,
    opts: &CheckOptions,
    res: &CheckResilience,
) -> Result<CheckOutcome, String> {
    let view = model_view(p, model);
    let quantum = model == MemoryModel::Drfrlx && has_quantum(&view);
    let attainable = attainable_kinds(&view);
    // More workers than cores is pure oversubscription: the shards are
    // CPU-bound and the report is worker-count-invariant, so extra
    // threads can only add scheduling overhead.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cutoff = |records: &[ShardRecord]| {
        records.iter().filter(|r| opts.early_exit && r.saturated).map(|r| r.index).min()
    };
    let mut completed: Vec<usize> = res.completed.iter().map(|r| r.index).collect();
    completed.sort_unstable();
    let ropts = ResilienceOptions {
        fault_plan: res.fault_plan,
        completed,
        completed_explored: res.completed.iter().map(|r| r.stats.explored).sum(),
        completed_cutoff: cutoff(&res.completed),
        total_shards: res.total_shards,
    };
    let run = visit_sc_outcome(
        &view,
        &opts.limits,
        quantum,
        opts.reduction,
        opts.threads.min(cores.max(1)),
        &|| RaceCollector::new(&view, &attainable, opts.early_exit),
        &|v: &RaceCollector| opts.early_exit && v.saturated(),
        &ropts,
    )?;
    let mut shards = res.completed.clone();
    shards.extend(run.shards.into_iter().map(|(index, v, stats)| ShardRecord {
        index,
        stats,
        saturated: v.saturated(),
        races: v.races,
    }));
    shards.sort_by_key(|r| r.index);
    // A shard this run saturated may sit below checkpointed ones; the
    // uninterrupted run would have stopped there.
    if let Some(cut) = cutoff(&shards) {
        shards.retain(|r| r.index <= cut);
    }
    Ok(CheckOutcome {
        status: run.status,
        shards,
        total_shards: run.total_shards,
        panic: run.panic,
        program: p.name().to_string(),
        model,
        quantum_transformed: quantum,
        frontier_pruned: run.frontier_pruned,
    })
}

/// Check `p` against `model` with explicit limits on the default
/// streaming pipeline (POR on, early exit on, single worker).
///
/// # Errors
///
/// Returns [`EnumError`] if enumeration exceeds the configured limits.
pub fn try_check_program(
    p: &Program,
    model: MemoryModel,
    limits: &EnumLimits,
) -> Result<CheckReport, EnumError> {
    check_program_with(
        p,
        model,
        &CheckOptions { limits: limits.clone(), ..CheckOptions::default() },
    )
}

/// The retained materializing reference checker: enumerate **every** SC
/// execution into a `Vec`, then analyze the vector. Differential tests
/// and the checker benchmark compare the streaming pipeline against
/// this; new code should use [`check_program_with`].
///
/// # Errors
///
/// Returns [`EnumError`] if enumeration exceeds the configured limits.
pub fn check_program_reference(
    p: &Program,
    model: MemoryModel,
    limits: &EnumLimits,
) -> Result<CheckReport, EnumError> {
    let view = model_view(p, model);
    let quantum = model == MemoryModel::Drfrlx && has_quantum(&view);
    let execs: Vec<Execution> =
        if quantum { enumerate_sc_quantum(&view, limits)? } else { enumerate_sc(&view, limits)? };
    let attainable = attainable_kinds(&view);
    let mut collector = RaceCollector::new(&view, &attainable, false);
    for e in &execs {
        collector.visit(e);
    }
    let races = collector.races;
    let verdict = if races.is_empty() { Verdict::RaceFree } else { Verdict::Racy };
    Ok(CheckReport {
        program: p.name().to_string(),
        model,
        executions: execs.len(),
        pruned: 0,
        memo_pruned: 0,
        table_peak: 0,
        quantum_transformed: quantum,
        races,
        verdict,
    })
}

/// Check `p` against `model` with default limits.
///
/// # Panics
///
/// Panics if enumeration exceeds the default execution limit; use
/// [`try_check_program`] to control limits and handle the error.
pub fn check_program(p: &Program, model: MemoryModel) -> CheckReport {
    try_check_program(p, model, &EnumLimits::default())
        .expect("SC enumeration exceeded default limits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RmwOp;

    /// Event counter (Listing 2, reduced): racy commutative increments.
    fn event_counter() -> Program {
        let mut p = Program::new("event_counter");
        p.thread().rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        p.thread().rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        p.build()
    }

    #[test]
    fn event_counter_fails_drf0_and_drf1_as_relaxed() {
        // Viewed as DRF0/DRF1 the increments become paired/unpaired
        // atomics — atomics may race, so the program is legal under
        // those models too (just slower on hardware). The interesting
        // contrast is with a *data*-annotated version.
        assert!(check_program(&event_counter(), MemoryModel::Drf0).is_race_free());
        assert!(check_program(&event_counter(), MemoryModel::Drf1).is_race_free());
        assert!(check_program(&event_counter(), MemoryModel::Drfrlx).is_race_free());
    }

    #[test]
    fn data_annotated_counter_is_racy_under_every_model() {
        let mut p = Program::new("data_counter");
        p.thread().rmw(OpClass::Data, "c", RmwOp::FetchAdd, 1);
        p.thread().rmw(OpClass::Data, "c", RmwOp::FetchAdd, 1);
        let p = p.build();
        for model in MemoryModel::ALL {
            let r = check_program(&p, model);
            assert!(!r.is_race_free(), "{model} must flag the data race");
            assert!(r.has_race_kind(RaceKind::Data));
        }
    }

    #[test]
    fn quantum_program_is_checked_on_equivalent_program() {
        let mut p = Program::new("split_counter_read");
        p.thread().rmw(OpClass::Quantum, "c0", RmwOp::FetchAdd, 1);
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Quantum, "c0");
            t.observe(r);
        }
        let r = check_program(&p.build(), MemoryModel::Drfrlx);
        assert!(r.quantum_transformed);
        assert!(r.is_race_free());
    }

    #[test]
    fn report_metadata_is_populated() {
        let r = check_program(&event_counter(), MemoryModel::Drfrlx);
        assert_eq!(r.program, "event_counter");
        assert_eq!(r.model, MemoryModel::Drfrlx);
        assert_eq!(r.executions, 2);
        assert!(!r.quantum_transformed);
        assert!(r.race_kinds().is_empty());
    }

    #[test]
    fn mislabeled_commutative_exchange_flagged_only_by_drfrlx() {
        // DRF0/DRF1 view the exchanges as paired/unpaired atomics —
        // legal. DRFrlx checks the commutative contract and rejects.
        let mut p = Program::new("bad_comm");
        p.thread().rmw(OpClass::Commutative, "c", RmwOp::Exchange, 5);
        p.thread().rmw(OpClass::Commutative, "c", RmwOp::FetchAdd, 1);
        let p = p.build();
        assert!(check_program(&p, MemoryModel::Drf0).is_race_free());
        assert!(check_program(&p, MemoryModel::Drf1).is_race_free());
        let r = check_program(&p, MemoryModel::Drfrlx);
        assert!(r.has_race_kind(RaceKind::Commutative));
    }

    #[test]
    fn streaming_agrees_with_reference_on_every_model() {
        let mut p = Program::new("mixed");
        {
            let mut t = p.thread();
            t.store(OpClass::Data, "x", 1);
            t.store(OpClass::Unpaired, "f", 1);
        }
        {
            let mut t = p.thread();
            let f = t.load(OpClass::Unpaired, "f");
            t.observe(f);
            let d = t.load(OpClass::Data, "x");
            t.observe(d);
        }
        let p = p.build();
        let limits = EnumLimits::default();
        for model in MemoryModel::ALL {
            let reference = check_program_reference(&p, model, &limits).unwrap();
            for threads in [1usize, 4] {
                let opts = CheckOptions { threads, ..CheckOptions::default() };
                let streamed = check_program_with(&p, model, &opts).unwrap();
                assert_eq!(streamed.verdict, reference.verdict, "{model} t={threads}");
                assert_eq!(streamed.race_kinds(), reference.race_kinds(), "{model} t={threads}");
                assert_eq!(
                    streamed.races.is_empty(),
                    reference.races.is_empty(),
                    "{model} t={threads}"
                );
            }
        }
    }

    #[test]
    fn early_exit_stops_after_saturation() {
        // Data-only program: the data race saturates the attainable
        // kinds on the first racy execution.
        let mut p = Program::new("dd");
        p.thread().store(OpClass::Data, "x", 1);
        p.thread().store(OpClass::Data, "x", 2);
        let p = p.build();
        let eager = check_program_with(&p, MemoryModel::Drfrlx, &CheckOptions::default()).unwrap();
        assert!(!eager.is_race_free());
        let full = check_program_with(
            &p,
            MemoryModel::Drfrlx,
            &CheckOptions { early_exit: false, ..CheckOptions::default() },
        )
        .unwrap();
        assert!(eager.executions <= full.executions);
        assert_eq!(eager.race_kinds(), full.race_kinds());
    }
}
