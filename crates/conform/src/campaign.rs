//! Resumable fuzz campaigns with an escalating oracle-budget ladder.
//!
//! A campaign runs `total` [generated](crate::fuzz::generate) programs
//! (program `i` uses seed `root + i`) through the conformance loop.
//! Each program gets the base oracle limits first; if the oracle
//! exhausts its execution budget the program is retried up the
//! [`BUDGET_LADDER`] (×4, then ×16) before being recorded as
//! **skipped** — skipped programs appear in the summary with their
//! seed, so no fuzz input silently vanishes from the report.
//!
//! The campaign is a pure function of `(root seed, total, options)`:
//! [`CampaignState`] checkpoints `next_index` plus the accumulated
//! tallies, and resuming from a checkpoint produces exactly the
//! summary an uninterrupted run would have produced.

use crate::fuzz::generate;
use crate::harness::{check_conformance_outcome, ConformOptions, ConformReport, ConformResilience};
use drfrlx_core::resilience::{Attempt, EngineId, ExhaustReason, Pool, RunStatus};

/// Oracle `max_executions` multipliers tried per program, in order.
/// A program is skipped only after the whole ladder is exhausted.
pub const BUDGET_LADDER: [usize; 3] = [1, 4, 16];

/// Checkpointable progress of a fuzz campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignState {
    /// Root seed: program `i` is `generate(seed + i)`.
    pub seed: u64,
    /// Total programs in the campaign.
    pub total: u64,
    /// Next program index to run (`== total` when the campaign is
    /// done). This is the resume point.
    pub next_index: u64,
    /// Programs whose report was sound.
    pub sound: u64,
    /// Seeds that demonstrated a violation, in discovery order.
    pub violations: Vec<u64>,
    /// Seeds skipped after the whole [`BUDGET_LADDER`] was exhausted,
    /// in discovery order.
    pub skipped: Vec<u64>,
}

impl CampaignState {
    /// A fresh campaign of `total` programs rooted at `seed`.
    pub fn new(seed: u64, total: u64) -> Self {
        CampaignState {
            seed,
            total,
            next_index: 0,
            sound: 0,
            violations: Vec::new(),
            skipped: Vec::new(),
        }
    }

    /// Has every program been run?
    pub fn done(&self) -> bool {
        self.next_index >= self.total
    }
}

/// Run (or resume) a fuzz campaign, mutating `state` as it goes.
///
/// The programs are units of the engine-shared [`Pool`] (serial, so
/// the tallies and `on_violation` calls keep campaign order), and the
/// pool's attempts are the rungs of the oracle [`BUDGET_LADDER`]: a
/// rung whose oracle runs out of executions, or that panics, climbs to
/// the next, and a program whose every rung fails is recorded as
/// skipped. `res.fault_plan` injects faults per
/// `(EngineId::Conform, program index, ladder rung)` on top of
/// whatever it injects into the inner simulation sweeps. A tripped
/// `res.budget` (deadline or cancellation) stops the campaign between
/// programs and returns `Inconclusive` whose frontier holds the
/// programs still to run — `state` is then a valid checkpoint.
///
/// `on_violation` fires once per unsound program with its seed and
/// report (the CLI prints and shrinks there).
pub fn resume_campaign(
    state: &mut CampaignState,
    opts: &ConformOptions,
    res: &ConformResilience,
    on_violation: &mut dyn FnMut(u64, &ConformReport),
) -> RunStatus {
    let start = state.next_index as usize;
    let done: Vec<usize> = (0..start).collect();
    let pool = Pool {
        attempts: BUDGET_LADDER.len(),
        budget: res.budget.as_deref(),
        faults: res.fault_plan,
        skip: &done,
        ..Pool::new(EngineId::Conform, 1)
    };
    let run = pool.run(state.total as usize, &|i, rung| {
        ladder_rung(state.seed.wrapping_add(i as u64), rung, opts, res)
    });
    for (i, slot) in run.results.into_iter().enumerate().skip(start) {
        let seed = state.seed.wrapping_add(i as u64);
        match slot {
            Some(Some(report)) if report.sound() => state.sound += 1,
            Some(Some(report)) => {
                state.violations.push(seed);
                on_violation(seed, &report);
            }
            // An empty program, or one whose every rung failed: skipped,
            // with its seed.
            Some(None) => state.skipped.push(seed),
            None if run.lost.binary_search(&i).is_ok() => state.skipped.push(seed),
            // Never ran: the budget tripped here.
            None => break,
        }
        state.next_index = i as u64 + 1;
    }
    match run.status {
        RunStatus::Inconclusive { reason, .. } => RunStatus::Inconclusive {
            reason,
            frontier: (state.next_index as usize..state.total as usize).collect(),
        },
        _ => RunStatus::Complete,
    }
}

/// One program on one rung of the budget ladder: `Done(Some(report))`
/// for a verdict, `Done(None)` for a program that cannot be checked,
/// `Failed` to climb. Pure in `(seed, rung)` given fixed options, so
/// resumed campaigns replay identically.
fn ladder_rung(
    seed: u64,
    rung: usize,
    opts: &ConformOptions,
    res: &ConformResilience,
) -> Attempt<Option<ConformReport>> {
    let p = generate(seed);
    if p.threads().is_empty() {
        return Attempt::Done(None);
    }
    let mut rung_opts = opts.clone();
    rung_opts.limits.max_executions =
        opts.limits.max_executions.saturating_mul(BUDGET_LADDER[rung]);
    // Generated programs use no scratch, so a non-empty one always
    // lowers.
    let Ok(out) = check_conformance_outcome(&p, &rung_opts, res) else {
        return Attempt::Done(None);
    };
    if let RunStatus::Inconclusive {
        reason: reason @ (ExhaustReason::Deadline | ExhaustReason::Cancelled),
        ..
    } = out.status
    {
        return Attempt::Exhausted(reason);
    }
    match out.report {
        Some(report) => Attempt::Done(Some(report)),
        // Oracle exhausted its execution/memory budget: climb.
        None => Attempt::Failed,
    }
}

/// The campaign summary printed by `drfrlx conform --fuzz`. Skipped
/// seeds are listed explicitly so every fuzz input is accounted for.
pub fn render_summary(state: &CampaignState) -> String {
    let mut out = format!(
        "fuzz: {} programs from seed {}, {} sound, {} violations, {} skipped\n",
        state.next_index,
        state.seed,
        state.sound,
        state.violations.len(),
        state.skipped.len()
    );
    if !state.skipped.is_empty() {
        let seeds: Vec<String> = state.skipped.iter().map(u64::to_string).collect();
        out.push_str(&format!(
            "  skipped seeds (oracle budget exhausted after {} attempts): {}\n",
            BUDGET_LADDER.len(),
            seeds.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::exec::EnumLimits;
    use drfrlx_core::resilience::{Budget, FaultPlan};
    use drfrlx_core::SystemConfig;
    use std::sync::Arc;

    fn quick_opts() -> ConformOptions {
        ConformOptions {
            configs: SystemConfig::all().to_vec(),
            schedules: 2,
            seed: 1,
            threads: 1,
            limits: EnumLimits::default(),
        }
    }

    #[test]
    fn a_clean_campaign_completes_and_counts_every_program() {
        let mut state = CampaignState::new(1, 5);
        let status = resume_campaign(
            &mut state,
            &quick_opts(),
            &ConformResilience::default(),
            &mut |_, _| panic!("fuzz seeds 1..=5 are sound"),
        );
        assert_eq!(status, RunStatus::Complete);
        assert!(state.done());
        assert_eq!(state.sound + state.violations.len() as u64 + state.skipped.len() as u64, 5);
        assert!(state.skipped.is_empty(), "default limits never exhaust on tiny programs");
    }

    #[test]
    fn a_starved_oracle_records_the_skipped_seed_in_the_summary() {
        // max_executions 0 stays 0 up the whole ladder, so every
        // program exhausts the oracle and lands in `skipped`.
        let opts = ConformOptions {
            limits: EnumLimits { max_executions: 0, ..EnumLimits::default() },
            ..quick_opts()
        };
        let mut state = CampaignState::new(7, 3);
        let status =
            resume_campaign(&mut state, &opts, &ConformResilience::default(), &mut |_, _| {});
        assert_eq!(status, RunStatus::Complete);
        assert_eq!(state.skipped, vec![7, 8, 9]);
        let summary = render_summary(&state);
        assert!(summary.contains("3 skipped"), "{summary}");
        assert!(summary.contains("7, 8, 9"), "{summary}");
    }

    #[test]
    fn a_cancelled_budget_checkpoints_between_programs() {
        let budget = Arc::new(Budget::unlimited());
        budget.cancel();
        let res = ConformResilience { budget: Some(budget), fault_plan: None };
        let mut state = CampaignState::new(1, 4);
        let status = resume_campaign(&mut state, &quick_opts(), &res, &mut |_, _| {});
        assert_eq!(
            status,
            RunStatus::Inconclusive {
                reason: ExhaustReason::Cancelled,
                frontier: vec![0, 1, 2, 3]
            }
        );
        assert_eq!(state.next_index, 0, "nothing ran; the checkpoint resumes from the start");
    }

    #[test]
    fn a_resumed_campaign_matches_an_uninterrupted_one() {
        let opts = quick_opts();
        let res = ConformResilience::default();

        let mut whole = CampaignState::new(3, 6);
        assert_eq!(resume_campaign(&mut whole, &opts, &res, &mut |_, _| {}), RunStatus::Complete);

        // Interrupt by cancelling after 3 programs, then resume.
        let mut split = CampaignState::new(3, 6);
        split.total = 3;
        assert_eq!(resume_campaign(&mut split, &opts, &res, &mut |_, _| {}), RunStatus::Complete);
        split.total = 6;
        assert_eq!(resume_campaign(&mut split, &opts, &res, &mut |_, _| {}), RunStatus::Complete);

        assert_eq!(split, whole, "resumed == uninterrupted");
    }

    #[test]
    fn seeded_campaign_chaos_is_deterministic_and_never_aborts() {
        let opts = quick_opts();
        for seed in 1..=3u64 {
            let res = ConformResilience { budget: None, fault_plan: Some(FaultPlan::seeded(seed)) };
            let mut a = CampaignState::new(1, 4);
            let mut b = CampaignState::new(1, 4);
            let sa = resume_campaign(&mut a, &opts, &res, &mut |_, _| {});
            let sb = resume_campaign(&mut b, &opts, &res, &mut |_, _| {});
            assert_eq!(sa, RunStatus::Complete, "chaos seed {seed}");
            assert_eq!(sa, sb, "chaos seed {seed}");
            assert_eq!(a, b, "chaos seed {seed}");
            // Faulted rungs may skip programs, never lose them.
            assert_eq!(a.sound + a.violations.len() as u64 + a.skipped.len() as u64, 4);
        }
    }
}
