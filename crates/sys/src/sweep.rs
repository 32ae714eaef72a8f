//! The sweep engine: declarative simulation jobs fanned out across
//! worker threads.
//!
//! A [`SimJob`] names one cell of an experiment matrix — a kernel, a
//! [`SystemConfig`] and the platform [`SysParams`] — and
//! [`run_matrix_outcome`] executes a whole job list as units of the
//! engine-shared `drfrlx_core::resilience::Pool` on `threads` workers.
//! Every simulation is deterministic and owns its memory system, so
//! jobs are embarrassingly parallel; reports come back **in job
//! order**, which makes parallel and serial sweeps byte-identical
//! (`threads = 1` and `threads = 8` produce the same reports).
//!
//! There is one execution path. A budget and a fault plan are values
//! of [`MatrixResilience`], whose default (no budget, no faults) is
//! the plain sweep; [`run_matrix`] is its strict view, returning every
//! report or re-raising a failed job's panic.
//!
//! The worker count for CLI entry points comes from
//! [`default_threads`]: the `DRFRLX_THREADS` environment variable if
//! set, else [`std::thread::available_parallelism`].

use crate::config::SysParams;
use crate::run::{run_workload, run_workload_traced, RunReport};
use drfrlx_core::resilience::{
    strict, Attempt, Budget, EngineId, ExhaustReason, FaultPlan, Panic, Pool, RunStatus,
};
use drfrlx_core::SystemConfig;
use hsim_gpu::Kernel;
use std::sync::Arc;

/// One simulation to run: a kernel under one configuration on one
/// platform.
#[derive(Clone)]
pub struct SimJob {
    /// Display/workload id for reports and result files (the Table 3
    /// name, e.g. `"BC-1"` — not necessarily the kernel's own name).
    pub workload: String,
    /// The kernel to simulate; shared, immutable, run per-thread.
    pub kernel: Arc<dyn Kernel>,
    /// Protocol × model configuration.
    pub config: SystemConfig,
    /// Platform parameters.
    pub params: SysParams,
    /// Check the final memory image against the kernel's oracle and
    /// panic on mismatch (a simulator bug, not a measurement).
    pub validate: bool,
    /// Record a structured event trace with this ring capacity
    /// (`None` = untraced; tracing compiles to nothing in that run).
    pub trace: Option<usize>,
}

impl SimJob {
    /// A validated job (the default for experiment harnesses).
    pub fn new(
        workload: impl Into<String>,
        kernel: Arc<dyn Kernel>,
        config: SystemConfig,
        params: &SysParams,
    ) -> SimJob {
        SimJob {
            workload: workload.into(),
            kernel,
            config,
            params: params.clone(),
            validate: true,
            trace: None,
        }
    }

    /// Record a structured event trace with a ring of `capacity` events;
    /// the report's `trace` field carries the buffer.
    pub fn traced(mut self, capacity: usize) -> SimJob {
        self.trace = Some(capacity);
        self
    }
}

/// The jobs for one workload under all six paper configurations, in
/// the paper's order (GD0, GD1, GDR, DD0, DD1, DDR).
pub fn six_config_jobs(
    workload: &str,
    kernel: Arc<dyn Kernel>,
    params: &SysParams,
    validate: bool,
) -> Vec<SimJob> {
    SystemConfig::all()
        .into_iter()
        .map(|config| SimJob {
            workload: workload.to_string(),
            kernel: Arc::clone(&kernel),
            config,
            params: params.clone(),
            validate,
            trace: None,
        })
        .collect()
}

/// The jobs for one workload under all nine configurations — the paper
/// six plus MESI-WB × {DRF0, DRF1, DRFrlx} (MD0, MD1, MDR) — in
/// [`SystemConfig::extended`] order.
pub fn extended_config_jobs(
    workload: &str,
    kernel: Arc<dyn Kernel>,
    params: &SysParams,
    validate: bool,
) -> Vec<SimJob> {
    SystemConfig::extended()
        .into_iter()
        .map(|config| SimJob {
            workload: workload.to_string(),
            kernel: Arc::clone(&kernel),
            config,
            params: params.clone(),
            validate,
            trace: None,
        })
        .collect()
}

/// Worker count for sweeps: `DRFRLX_THREADS` if set to a positive
/// integer, else the host's available parallelism.
pub fn default_threads() -> usize {
    std::env::var("DRFRLX_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Run every job on `threads` workers and return the reports **in job
/// order**, independent of scheduling — the strict view of
/// [`run_matrix_outcome`] with no budget and no fault plan.
///
/// # Panics
///
/// Panics (with the job's own message) if a validated job produces a
/// functionally wrong result.
pub fn run_matrix(jobs: &[SimJob], threads: usize) -> Vec<RunReport> {
    run_matrix_outcome(jobs, threads, &MatrixResilience::default())
        .strict()
        .expect("a sweep without a budget cannot run out of one")
}

fn run_job(job: &SimJob) -> RunReport {
    let report = match job.trace {
        Some(capacity) => {
            run_workload_traced(job.kernel.as_ref(), job.config, &job.params, capacity)
        }
        None => run_workload(job.kernel.as_ref(), job.config, &job.params),
    };
    if job.validate {
        if let Err(e) = job.kernel.validate(&report.memory) {
            panic!("{} produced a wrong result under {}: {e}", job.workload, job.config);
        }
    }
    report
}

/// Resilience policy for [`run_matrix_outcome`] (and, as
/// `ConformResilience`, for a conformance run). The default — no
/// budget, no fault plan — is the plain sweep.
#[derive(Clone, Default)]
pub struct MatrixResilience {
    /// Shared resource budget (deadline / cancel flag), polled before
    /// every job attempt; a deadline also arms a watchdog thread.
    pub budget: Option<Arc<Budget>>,
    /// Deterministic fault injection (chaos testing only).
    pub fault_plan: Option<FaultPlan>,
}

/// Result of a sweep.
pub struct MatrixOutcome {
    /// One slot per job, **in job order**; `None` where the job was
    /// lost (panicked twice) or never ran (budget trip).
    pub reports: Vec<Option<RunReport>>,
    /// How the sweep ended: `Degraded` names lost jobs, and
    /// `Inconclusive`'s frontier names jobs still to run.
    pub status: RunStatus,
    /// The panic of the first lost job, for strict callers to re-raise.
    pub panic: Option<Panic>,
}

impl MatrixOutcome {
    /// Every report, when the sweep completed; a lost job re-raises
    /// its panic.
    ///
    /// # Errors
    ///
    /// The budget's [`ExhaustReason`] when the sweep is inconclusive.
    pub fn strict(self) -> Result<Vec<RunReport>, ExhaustReason> {
        strict(&self.status, self.panic)?;
        Ok(self.reports.into_iter().map(|r| r.expect("a complete sweep ran every job")).collect())
    }
}

/// The sweep's one execution path: every job is a unit of the
/// engine-shared [`Pool`] — run under `catch_unwind` and retried once
/// before being reported lost, with the budget polled before every
/// attempt (a watchdog thread flips the cancel flag at the deadline)
/// and a seeded [`FaultPlan`] injecting panics, stalls and exhaustion
/// per `(job, attempt)`. Never panics, never aborts: the outcome is
/// `Complete`, `Degraded { lost }` or `Inconclusive { reason, frontier }`,
/// and completed reports stay in job order either way.
pub fn run_matrix_outcome(
    jobs: &[SimJob],
    threads: usize,
    res: &MatrixResilience,
) -> MatrixOutcome {
    let pool = Pool {
        budget: res.budget.as_deref(),
        faults: res.fault_plan,
        ..Pool::new(EngineId::Sweep, threads)
    };
    let run = pool.run(jobs.len(), &|i, _| Attempt::Done(run_job(&jobs[i])));
    MatrixOutcome { reports: run.results, status: run.status, panic: run.panic }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::resilience::Fault;
    use drfrlx_core::OpClass;
    use hsim_gpu::{Op, RmwKind, WorkItem};
    use std::panic::AssertUnwindSafe;
    use std::time::Duration;

    struct Hammer {
        n: usize,
    }
    struct HammerItem {
        left: usize,
    }
    impl WorkItem for HammerItem {
        fn next(&mut self, _last: Option<u64>) -> Op {
            if self.left == 0 {
                return Op::Done;
            }
            self.left -= 1;
            Op::Rmw {
                addr: 0,
                rmw: RmwKind::Add,
                operand: 1,
                class: OpClass::Commutative,
                use_result: false,
            }
        }
    }
    impl Kernel for Hammer {
        fn name(&self) -> String {
            "hammer".into()
        }
        fn blocks(&self) -> usize {
            15
        }
        fn threads_per_block(&self) -> usize {
            4
        }
        fn memory_words(&self) -> usize {
            64
        }
        fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
            Box::new(HammerItem { left: self.n })
        }
        fn validate(&self, mem: &[u64]) -> Result<(), String> {
            let want = (15 * 4 * self.n) as u64;
            if mem[0] == want {
                Ok(())
            } else {
                Err(format!("count {} != {want}", mem[0]))
            }
        }
    }

    fn hammer_matrix() -> Vec<SimJob> {
        let params = SysParams::integrated();
        let mut jobs = Vec::new();
        for n in [2usize, 4, 8] {
            let kernel: Arc<dyn Kernel> = Arc::new(Hammer { n });
            jobs.extend(six_config_jobs(&format!("hammer-{n}"), kernel, &params, true));
        }
        jobs
    }

    #[test]
    fn parallel_sweep_is_deterministic_and_ordered() {
        let jobs = hammer_matrix();
        let serial = run_matrix(&jobs, 1);
        for threads in [2usize, 4, 8] {
            let parallel = run_matrix(&jobs, threads);
            assert_eq!(serial.len(), parallel.len());
            for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.config, jobs[i].config, "report order matches job order");
                assert_eq!(a.config, b.config);
                assert_eq!(a.cycles, b.cycles, "job {i} ({}) cycles differ", jobs[i].workload);
                assert_eq!(a.counters, b.counters, "job {i} counters differ");
                assert_eq!(a.memory, b.memory);
            }
        }
    }

    #[test]
    fn oversized_thread_counts_are_clamped() {
        let params = SysParams::integrated();
        let kernel: Arc<dyn Kernel> = Arc::new(Hammer { n: 2 });
        let jobs = six_config_jobs("hammer", kernel, &params, true);
        let reports = run_matrix(&jobs, 64);
        assert_eq!(reports.len(), 6);
    }

    #[test]
    fn empty_matrix_is_fine() {
        assert!(run_matrix(&[], 4).is_empty());
    }

    /// Six jobs of a kernel whose validation always fails.
    fn broken_jobs() -> Vec<SimJob> {
        struct Broken;
        impl Kernel for Broken {
            fn name(&self) -> String {
                "broken".into()
            }
            fn blocks(&self) -> usize {
                1
            }
            fn threads_per_block(&self) -> usize {
                1
            }
            fn memory_words(&self) -> usize {
                4
            }
            fn item(&self, _b: usize, _t: usize) -> Box<dyn WorkItem> {
                struct Item;
                impl WorkItem for Item {
                    fn next(&mut self, _last: Option<u64>) -> Op {
                        Op::Done
                    }
                }
                Box::new(Item)
            }
            fn validate(&self, _mem: &[u64]) -> Result<(), String> {
                Err("always wrong".into())
            }
        }
        six_config_jobs("broken", Arc::new(Broken), &SysParams::integrated(), true)
    }

    #[test]
    #[should_panic(expected = "wrong result")]
    fn validation_failures_panic_with_context() {
        run_matrix(&broken_jobs(), 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn parallel_outcome_matches_the_serial_strict_view() {
        let jobs = hammer_matrix();
        let serial = run_matrix(&jobs, 1);
        let out = run_matrix_outcome(&jobs, 4, &MatrixResilience::default());
        assert_eq!(out.status, RunStatus::Complete);
        assert!(out.panic.is_none());
        assert_eq!(out.reports.len(), jobs.len());
        for (i, r) in out.reports.iter().enumerate() {
            let r = r.as_ref().expect("complete sweep fills every slot");
            assert_eq!(r.config, jobs[i].config, "job {i} is in its own slot");
            assert_eq!(r.cycles, serial[i].cycles, "job {i}");
            assert_eq!(r.counters, serial[i].counters, "job {i}");
            assert_eq!(r.memory, serial[i].memory, "job {i}");
        }
    }

    #[test]
    fn the_strict_view_reraises_the_lost_jobs_own_panic() {
        let jobs = hammer_matrix();
        let res = MatrixResilience {
            fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 4, 2, Fault::Panic)),
            ..MatrixResilience::default()
        };
        let out = run_matrix_outcome(&jobs, 2, &res);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| out.strict()))
            .expect_err("a lost job panics the strict view");
        let msg = payload.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("unit 4 attempt 1"), "{msg}");
    }

    #[test]
    fn injected_job_panic_is_retried_then_degrades() {
        let jobs = hammer_matrix();
        // One panic: absorbed by the retry.
        let res = MatrixResilience {
            fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 5, 1, Fault::Panic)),
            ..MatrixResilience::default()
        };
        let out = run_matrix_outcome(&jobs, 1, &res);
        assert_eq!(out.status, RunStatus::Complete);
        // Two panics: the job is lost, the rest of the sweep survives.
        let res = MatrixResilience {
            fault_plan: Some(FaultPlan::pinned(EngineId::Sweep, 5, 2, Fault::Panic)),
            ..MatrixResilience::default()
        };
        for threads in [1usize, 4] {
            let out = run_matrix_outcome(&jobs, threads, &res);
            assert_eq!(out.status, RunStatus::Degraded { lost: vec![5] }, "t={threads}");
            assert!(out.reports[5].is_none());
            assert_eq!(out.reports.iter().flatten().count(), jobs.len() - 1);
        }
    }

    #[test]
    fn a_panicking_validation_degrades_instead_of_aborting() {
        let out = run_matrix_outcome(&broken_jobs(), 2, &MatrixResilience::default());
        assert_eq!(out.status, RunStatus::Degraded { lost: (0..6).collect() });
        assert_eq!(out.reports.iter().flatten().count(), 0);
    }

    #[test]
    fn an_expired_deadline_leaves_a_frontier() {
        let jobs = hammer_matrix();
        let res = MatrixResilience {
            budget: Some(Arc::new(Budget::with_timeout(Duration::from_secs(0)))),
            ..MatrixResilience::default()
        };
        let out = run_matrix_outcome(&jobs, 2, &res);
        match out.status {
            RunStatus::Inconclusive { reason, frontier } => {
                assert!(
                    matches!(reason, ExhaustReason::Deadline | ExhaustReason::Cancelled),
                    "got {reason:?}"
                );
                assert_eq!(frontier.len() + out.reports.iter().flatten().count(), jobs.len());
            }
            s => panic!("expected Inconclusive, got {s:?}"),
        }
    }

    #[test]
    fn seeded_sweep_chaos_is_deterministic_and_never_aborts() {
        let jobs = hammer_matrix();
        for seed in 1..=4u64 {
            let res = MatrixResilience {
                fault_plan: Some(FaultPlan::seeded(seed)),
                ..MatrixResilience::default()
            };
            let a = run_matrix_outcome(&jobs, 1, &res);
            let b = run_matrix_outcome(&jobs, 1, &res);
            assert_eq!(a.status, b.status, "seed {seed}");
            let done =
                |o: &MatrixOutcome| o.reports.iter().map(Option::is_some).collect::<Vec<_>>();
            assert_eq!(done(&a), done(&b), "seed {seed}");
        }
    }
}
