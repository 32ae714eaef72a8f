//! The conformance harness: run a compiled litmus kernel across the
//! configuration × schedule matrix and compare the observed outcome
//! set against the axiomatic oracle.
//!
//! ## Soundness vs coverage
//!
//! * **Soundness** (the verdict): `observed ⊆ allowed` per
//!   configuration. A violation means the simulator produced a final
//!   state no SC interleaving of the program can produce — a simulator
//!   bug, since every DRF-family model admits at least the SC
//!   outcomes and the engine's functional semantics are
//!   issue-atomic.
//! * **Coverage** (the diagnostic): `|observed ∩ allowed| / |allowed|`
//!   — the fraction of allowed outcomes some schedule actually
//!   witnessed. Low coverage never fails a test by itself; it flags
//!   that the schedule family is too tame to exercise the program.
//!
//! Everything here is deterministic: jobs are laid out config-major ×
//! schedule-minor, the sweep returns reports in job order regardless
//! of worker count, outcome sets are `BTreeSet`s, and the oracle's
//! shard set depends only on the program.
//!
//! There is one execution path, [`check_conformance_outcome`]; a
//! budget and a fault plan are values of its [`ConformResilience`],
//! and [`check_conformance`] is its strict view.

use crate::compile::{try_compile, CompiledLitmus};
use crate::outcome::{allowed_outcomes, Outcome};
use crate::schedule::schedule_params;
use drfrlx_bridge::LowerError;
use drfrlx_core::exec::{EnumError, EnumLimits, EnumStats};
use drfrlx_core::program::Program;
use drfrlx_core::resilience::{strict, Panic, RunStatus};
use drfrlx_core::{MemoryModel, SystemConfig};
use drfrlx_litmus::{all_tests, Category};
use hsim_sys::{run_matrix_outcome, MatrixResilience, RunReport, SimJob, SysParams};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Why a conformance run produced no report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConformError {
    /// The program cannot be lowered onto the simulator.
    Lower(LowerError),
    /// The oracle could not enumerate the program within its limits.
    Oracle(EnumError),
}

impl fmt::Display for ConformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformError::Lower(e) => e.fmt(f),
            ConformError::Oracle(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ConformError {}

impl From<LowerError> for ConformError {
    fn from(e: LowerError) -> Self {
        ConformError::Lower(e)
    }
}

impl From<EnumError> for ConformError {
    fn from(e: EnumError) -> Self {
        ConformError::Oracle(e)
    }
}

/// Options for one conformance run.
#[derive(Debug, Clone)]
pub struct ConformOptions {
    /// Configurations to simulate (default: all nine).
    pub configs: Vec<SystemConfig>,
    /// Schedules per configuration (index 0 is always the pristine
    /// platform).
    pub schedules: usize,
    /// Root seed of the schedule family.
    pub seed: u64,
    /// Worker threads for both the simulation matrix and the oracle.
    pub threads: usize,
    /// Oracle enumeration limits.
    pub limits: EnumLimits,
}

impl Default for ConformOptions {
    fn default() -> Self {
        ConformOptions {
            configs: SystemConfig::extended().to_vec(),
            schedules: 128,
            seed: 1,
            threads: 1,
            limits: EnumLimits::default(),
        }
    }
}

/// Observed outcomes and soundness verdict for one configuration.
#[derive(Debug, Clone)]
pub struct ConfigVerdict {
    /// The protocol × model cell.
    pub config: SystemConfig,
    /// Every final state some schedule produced.
    pub observed: BTreeSet<Outcome>,
    /// `observed \ allowed` — non-empty means the simulator is
    /// unsound for this program under this configuration.
    pub violations: Vec<Outcome>,
}

/// The full conformance result for one program.
#[derive(Debug, Clone)]
pub struct ConformReport {
    /// Program name.
    pub name: String,
    /// The oracle's allowed (SC) outcome set.
    pub allowed: BTreeSet<Outcome>,
    /// Oracle enumeration statistics.
    pub oracle_stats: EnumStats,
    /// One verdict per configuration, in option order.
    pub verdicts: Vec<ConfigVerdict>,
}

impl ConformReport {
    /// No configuration observed an outcome outside the allowed set.
    pub fn sound(&self) -> bool {
        self.verdicts.iter().all(|v| v.violations.is_empty())
    }

    /// Union of observed outcomes across every configuration.
    pub fn observed_union(&self) -> BTreeSet<Outcome> {
        let mut u = BTreeSet::new();
        for v in &self.verdicts {
            u.extend(v.observed.iter().cloned());
        }
        u
    }

    /// Allowed outcomes witnessed by at least one configuration,
    /// over the allowed count (1.0 when the allowed set is empty).
    pub fn coverage(&self) -> f64 {
        Self::ratio(&self.observed_union(), &self.allowed)
    }

    /// Coverage restricted to configurations running `model`.
    pub fn coverage_under(&self, model: MemoryModel) -> f64 {
        let mut u = BTreeSet::new();
        for v in self.verdicts.iter().filter(|v| v.config.model == model) {
            u.extend(v.observed.iter().cloned());
        }
        Self::ratio(&u, &self.allowed)
    }

    /// Allowed outcomes witnessed (across all configurations), as a
    /// count — the coverage numerator.
    pub fn witnessed(&self) -> usize {
        self.observed_union().intersection(&self.allowed).count()
    }

    /// The coverage numerator restricted to `model` configurations.
    pub fn witnessed_under(&self, model: MemoryModel) -> usize {
        let mut u = BTreeSet::new();
        for v in self.verdicts.iter().filter(|v| v.config.model == model) {
            u.extend(v.observed.iter().cloned());
        }
        u.intersection(&self.allowed).count()
    }

    fn ratio(observed: &BTreeSet<Outcome>, allowed: &BTreeSet<Outcome>) -> f64 {
        if allowed.is_empty() {
            return 1.0;
        }
        observed.intersection(allowed).count() as f64 / allowed.len() as f64
    }
}

/// The simulation jobs of one conformance run: config-major ×
/// schedule-minor, in `opts.configs` order. [`report_from_runs`]
/// expects reports in exactly this order.
pub fn conform_jobs(shape: &CompiledLitmus, opts: &ConformOptions) -> Vec<SimJob> {
    let kernel: Arc<dyn hsim_gpu::Kernel> = Arc::new(shape.clone());
    let base = SysParams::integrated();
    let name = shape.program.name();
    let mut jobs = Vec::with_capacity(opts.configs.len() * opts.schedules.max(1));
    for &config in &opts.configs {
        for s in 0..opts.schedules.max(1) {
            let mut job = SimJob::new(
                format!("{name}:{config}:s{s}"),
                Arc::clone(&kernel),
                config,
                &schedule_params(&base, opts.seed, s),
            );
            job.validate = false;
            jobs.push(job);
        }
    }
    jobs
}

/// Fold simulation reports (in [`conform_jobs`] order) and the
/// axiomatic oracle into a [`ConformReport`].
///
/// # Errors
///
/// Returns [`EnumError::TooManyExecutions`] when the oracle cannot
/// enumerate the program within `opts.limits`.
pub fn report_from_runs(
    shape: &CompiledLitmus,
    opts: &ConformOptions,
    reports: &[RunReport],
) -> Result<ConformReport, EnumError> {
    fold_report(shape, opts, &opts.limits, &|i| reports.get(i))
}

/// Shared fold: oracle + per-config observed sets, with the report for
/// job `i` looked up through `report_at` (absent reports are skipped).
fn fold_report<'a>(
    shape: &CompiledLitmus,
    opts: &ConformOptions,
    limits: &EnumLimits,
    report_at: &dyn Fn(usize) -> Option<&'a RunReport>,
) -> Result<ConformReport, EnumError> {
    let (allowed, oracle_stats) = allowed_outcomes(shape, limits, opts.threads)?;
    let per = opts.schedules.max(1);
    let verdicts = opts
        .configs
        .iter()
        .enumerate()
        .map(|(ci, &config)| {
            let observed: BTreeSet<Outcome> = (ci * per..(ci + 1) * per)
                .filter_map(report_at)
                .map(|r| Outcome::from_sim_memory(shape, &r.memory))
                .collect();
            let violations = observed.difference(&allowed).cloned().collect();
            ConfigVerdict { config, observed, violations }
        })
        .collect();
    Ok(ConformReport { name: shape.program.name().to_string(), allowed, oracle_stats, verdicts })
}

/// Run the full conformance loop for one program — the strict view of
/// [`check_conformance_outcome`] with no budget and no fault plan.
///
/// # Errors
///
/// [`ConformError::Lower`] when the program cannot be lowered onto the
/// simulator; [`ConformError::Oracle`] when the oracle cannot
/// enumerate it within `opts.limits` (the simulation side ran by then,
/// but without an allowed set there is no verdict). A simulation job
/// that panics on its retry too re-raises its panic.
pub fn check_conformance(
    p: &Program,
    opts: &ConformOptions,
) -> Result<ConformReport, ConformError> {
    let out = check_conformance_outcome(p, opts, &ConformResilience::default())?;
    strict(&out.status, out.panic).map_err(|r| ConformError::Oracle(r.into()))?;
    Ok(out.report.expect("a complete run has an oracle"))
}

/// Resilience controls for a conformance run: the sweep's policy. The
/// budget also bounds the axiomatic oracle's enumerator (unless
/// `opts.limits.budget` already carries one); the fault plan faults
/// simulation jobs under `EngineId::Sweep` and fuzz-campaign programs
/// under `EngineId::Conform`. The default — no budget, no fault plan —
/// is the plain run.
pub type ConformResilience = MatrixResilience;

/// The outcome of a conformance run.
pub struct ConformOutcome {
    /// The report, when the oracle produced an allowed set. `None`
    /// only when the oracle itself was exhausted — without an allowed
    /// set there is no verdict.
    pub report: Option<ConformReport>,
    /// How the run ended. `Degraded`'s `lost` names simulation job
    /// indices (in [`conform_jobs`] order) whose observations are
    /// missing; an oracle failure maps to `Inconclusive` with an
    /// empty frontier.
    pub status: RunStatus,
    /// The panic of the first lost simulation job, for strict callers
    /// to re-raise.
    pub panic: Option<Panic>,
}

/// The conformance harness's one execution path: the simulation
/// matrix runs through [`run_matrix_outcome`] (per-job `catch_unwind`
/// with one retry, budget polled before every attempt, deterministic
/// fault injection), and an oracle enumeration failure becomes a
/// structured `Inconclusive` status instead of an `Err`.
///
/// A `Degraded` report is still meaningful: lost jobs contribute no
/// observed outcome, and since the verdict is `observed ⊆ allowed`, a
/// partial observed set can only under-report coverage — it never
/// invents a violation (prefix-soundness).
///
/// # Errors
///
/// Fails, before anything runs, when the program cannot be lowered
/// onto the simulator.
pub fn check_conformance_outcome(
    p: &Program,
    opts: &ConformOptions,
    res: &ConformResilience,
) -> Result<ConformOutcome, LowerError> {
    let shape = try_compile(p)?;
    let jobs = conform_jobs(&shape, opts);
    let matrix = run_matrix_outcome(&jobs, opts.threads, res);
    let mut limits = opts.limits.clone();
    if limits.budget.is_none() {
        limits.budget = res.budget.clone();
    }
    let report_at = |i: usize| matrix.reports.get(i).and_then(Option::as_ref);
    let (report, status) = match fold_report(&shape, opts, &limits, &report_at) {
        Ok(report) => (Some(report), matrix.status),
        Err(e) => {
            (None, RunStatus::Inconclusive { reason: e.exhaust_reason(), frontier: Vec::new() })
        }
    };
    Ok(ConformOutcome { report, status, panic: matrix.panic })
}

/// Is `p` *demonstrably* unsound under `opts` — i.e. did some
/// configuration observe a disallowed outcome? Oracle overflow and
/// programs that cannot be lowered count as "not demonstrated" (the
/// shrinker predicate must only accept programs whose disagreement
/// reproduces).
pub fn is_unsound(p: &Program, opts: &ConformOptions) -> bool {
    matches!(check_conformance(p, opts), Ok(report) if !report.sound())
}

/// The Table-1 use-case corpus as `(name, program)` pairs.
pub fn table1_corpus() -> Vec<(String, Program)> {
    all_tests()
        .into_iter()
        .filter(|t| t.category == Category::UseCase)
        .map(|t| (t.name.to_string(), (t.build)()))
        .collect()
}

/// Conformance over the whole Table-1 corpus, one report per test.
///
/// # Errors
///
/// Propagates the first lowering or oracle enumeration failure.
pub fn run_corpus(opts: &ConformOptions) -> Result<Vec<ConformReport>, ConformError> {
    table1_corpus().iter().map(|(_, p)| check_conformance(p, opts)).collect()
}

/// Conformance over the [template corpus](crate::templates), one
/// report per program.
///
/// # Errors
///
/// Propagates the first lowering or oracle enumeration failure.
pub fn run_template_corpus(opts: &ConformOptions) -> Result<Vec<ConformReport>, ConformError> {
    crate::templates::template_corpus().iter().map(|(_, p)| check_conformance(p, opts)).collect()
}

/// One line of the corpus table: a test row or the total row. Both
/// render through the same format string, so the table stays aligned
/// by construction.
struct CorpusRow {
    name: String,
    allowed: usize,
    observed: usize,
    coverage: f64,
    drf0_cov: f64,
    sound: bool,
}

impl CorpusRow {
    fn from_report(r: &ConformReport) -> Self {
        CorpusRow {
            name: r.name.clone(),
            allowed: r.allowed.len(),
            observed: r.observed_union().len(),
            coverage: r.coverage(),
            drf0_cov: r.coverage_under(MemoryModel::Drf0),
            sound: r.sound(),
        }
    }

    fn render(&self) -> String {
        format!(
            "{:<26} {:>7} {:>9} {:>9.3} {:>9.3}  {}\n",
            self.name,
            self.allowed,
            self.observed,
            self.coverage,
            self.drf0_cov,
            if self.sound { "SOUND" } else { "VIOLATION" }
        )
    }
}

/// Render corpus reports as the stable text table committed to
/// `results/conform.txt`.
pub fn render_corpus(reports: &[ConformReport], opts: &ConformOptions) -> String {
    let mut out = String::new();
    out.push_str("Conformance: litmus corpus vs simulator (observed ⊆ allowed)\n");
    let configs: Vec<&str> = opts.configs.iter().map(|c| c.abbrev()).collect();
    out.push_str(&format!(
        "configs: {}   schedules/config: {}   seed: {}\n\n",
        configs.join(" "),
        opts.schedules,
        opts.seed
    ));
    out.push_str(&format!(
        "{:<26} {:>7} {:>9} {:>9} {:>9}  verdict\n",
        "test", "allowed", "observed", "coverage", "drf0-cov"
    ));
    let (mut tot_allowed, mut tot_wit, mut tot_wit0) = (0usize, 0usize, 0usize);
    let mut all_sound = true;
    for r in reports {
        all_sound &= r.sound();
        tot_allowed += r.allowed.len();
        tot_wit += r.witnessed();
        tot_wit0 += r.witnessed_under(MemoryModel::Drf0);
        out.push_str(&CorpusRow::from_report(r).render());
    }
    let agg = |w: usize| if tot_allowed == 0 { 1.0 } else { w as f64 / tot_allowed as f64 };
    let total = CorpusRow {
        name: "total".to_string(),
        allowed: tot_allowed,
        observed: tot_wit,
        coverage: agg(tot_wit),
        drf0_cov: agg(tot_wit0),
        sound: all_sound,
    };
    out.push_str(&total.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::OpClass;

    fn quick_opts() -> ConformOptions {
        ConformOptions {
            configs: SystemConfig::all().to_vec(),
            schedules: 4,
            seed: 1,
            threads: 1,
            limits: EnumLimits::default(),
        }
    }

    #[test]
    fn commutative_counter_conforms() {
        let mut p = Program::new("inc2");
        p.thread().rmw(OpClass::Commutative, "c", drfrlx_core::RmwOp::FetchAdd, 1);
        p.thread().rmw(OpClass::Commutative, "c", drfrlx_core::RmwOp::FetchAdd, 1);
        let p = p.build();
        let r = check_conformance(&p, &quick_opts()).unwrap();
        assert!(r.sound(), "two relaxed increments must stay in the SC set");
        // Final memory is always 2; the old values distinguish orders.
        assert!(r.coverage() > 0.0);
    }

    #[test]
    fn corpus_has_the_seven_table1_tests() {
        let names: Vec<String> = table1_corpus().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 7);
        assert!(names.contains(&"work_queue".to_string()));
        assert!(names.contains(&"seqlock".to_string()));
    }

    #[test]
    fn parallel_outcome_matches_the_serial_strict_view() {
        let mut p = Program::new("pair");
        p.thread().store(OpClass::Paired, "x", 1);
        p.thread().load(OpClass::Paired, "x");
        let p = p.build();
        let serial = check_conformance(&p, &quick_opts()).unwrap();
        let opts = ConformOptions { threads: 2, ..quick_opts() };
        let out = check_conformance_outcome(&p, &opts, &ConformResilience::default()).unwrap();
        assert_eq!(out.status, RunStatus::Complete);
        let r = out.report.expect("complete run carries a report");
        assert_eq!(r.allowed, serial.allowed);
        assert_eq!(r.oracle_stats, serial.oracle_stats);
        assert_eq!(r.verdicts.len(), serial.verdicts.len());
        for (a, b) in r.verdicts.iter().zip(&serial.verdicts) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.observed, b.observed, "{}", a.config);
            assert_eq!(a.violations, b.violations, "{}", a.config);
        }
    }

    #[test]
    fn an_exhausted_oracle_is_an_oracle_error_in_the_strict_view() {
        let opts = ConformOptions {
            limits: EnumLimits { max_executions: 1, ..EnumLimits::default() },
            ..quick_opts()
        };
        let mut p = Program::new("two");
        p.thread().store(OpClass::Data, "x", 1);
        p.thread().store(OpClass::Data, "x", 2);
        match check_conformance(&p.build(), &opts) {
            Err(ConformError::Oracle(EnumError::TooManyExecutions { limit: 1 })) => {}
            other => panic!("expected an oracle error, got {:?}", other.map(|r| r.name)),
        }
    }

    #[test]
    fn a_lost_simulation_job_degrades_but_stays_sound() {
        use drfrlx_core::resilience::{EngineId, Fault, FaultPlan};
        let opts = quick_opts();
        let mut p = Program::new("one");
        p.thread().store(OpClass::Data, "x", 1);
        let p = p.build();
        let res = ConformResilience {
            budget: None,
            // Job 0 panics on both attempts and is lost.
            fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 0, 2, Fault::Panic)),
        };
        let out = check_conformance_outcome(&p, &opts, &res).unwrap();
        assert_eq!(out.status, RunStatus::Degraded { lost: vec![0] });
        let r = out.report.expect("a degraded run still has an oracle and a verdict");
        assert!(r.sound(), "missing observations cannot invent a violation");
    }

    #[test]
    fn an_exhausted_oracle_is_inconclusive_not_an_error() {
        use drfrlx_core::resilience::ExhaustReason;
        let opts = ConformOptions {
            limits: EnumLimits { max_executions: 0, ..EnumLimits::default() },
            ..quick_opts()
        };
        let mut p = Program::new("two");
        p.thread().store(OpClass::Data, "x", 1);
        p.thread().store(OpClass::Data, "x", 2);
        let p = p.build();
        let out = check_conformance_outcome(&p, &opts, &ConformResilience::default()).unwrap();
        assert!(out.report.is_none());
        match out.status {
            RunStatus::Inconclusive { reason: ExhaustReason::Executions { .. }, .. } => {}
            s => panic!("expected Inconclusive(Executions), got {s:?}"),
        }
    }

    #[test]
    fn a_program_the_lowering_rejects_is_an_error_not_a_panic() {
        let src = "litmus bad\nthread t0 { r0 = load.data x; sstore r0 1; barrier; }\n\
                   thread t1 { barrier; r1 = sload 0; observe r1; }";
        let p = drfrlx_core::parse::parse(src).unwrap();
        let opts = quick_opts();
        match check_conformance(&p, &opts) {
            Err(ConformError::Lower(e)) => assert_eq!(e.program, "bad"),
            other => panic!("expected a lowering error, got {:?}", other.map(|r| r.name)),
        }
        assert!(check_conformance_outcome(&p, &opts, &ConformResilience::default()).is_err());
        assert!(!is_unsound(&p, &opts));
        assert!(!is_unsound(&Program::new("empty"), &opts));
    }

    #[test]
    fn render_is_stable_shape() {
        let opts = quick_opts();
        let mut p = Program::new("one");
        p.thread().store(OpClass::Data, "x", 1);
        let p = p.build();
        let r = check_conformance(&p, &opts).unwrap();
        let text = render_corpus(&[r], &opts);
        assert!(text.contains("one"));
        assert!(text.contains("SOUND"));
        assert!(text.contains("total"));
    }
}
