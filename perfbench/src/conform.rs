//! `conform_mix`: the Table-1 corpus, the template corpus and seeded
//! fuzz programs, each through the full conformance loop.

use crate::sim::traced_job;
use crate::spans::{in_span, OpenSpan};
use crate::{fnv, permute, OpResult, Pass};
use drfrlx_conform::{
    allowed_outcomes, compile, conform_jobs, generate, report_from_runs, table1_corpus,
    template_corpus, ConformOptions, Outcome,
};
use drfrlx_core::Program;
use hsim_sys::{run_matrix, SimJob};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Seeded fuzz programs per pass.
pub const FUZZ_PROGRAMS: u64 = 32;
/// Workers of the simulation matrix and the oracle.
pub const WORKERS: usize = 2;

pub struct ConformInputs {
    programs: Vec<Program>,
    opts: ConformOptions,
}

/// Fuzz program `i` of workload seed `seed` is `generate((seed << 16) + i)`.
pub fn fuzz_seed(seed: u64, i: u64) -> u64 {
    (seed << 16).wrapping_add(i)
}

pub fn setup(seed: u64) -> ConformInputs {
    let mut programs: Vec<Program> = table1_corpus().into_iter().map(|(_, p)| p).collect();
    programs.extend(template_corpus().into_iter().map(|(_, p)| p));
    programs.extend((0..FUZZ_PROGRAMS).map(|i| generate(fuzz_seed(seed, i))));
    let opts = ConformOptions { seed, threads: WORKERS, ..ConformOptions::default() };
    ConformInputs { programs, opts }
}

fn render(set: &BTreeSet<Outcome>) -> String {
    set.iter().map(|o| format!("{:?}/{:?}", o.mem, o.regs)).collect::<Vec<_>>().join(" ")
}

/// The allowed set, each configuration's observed set and the total
/// simulated cycles of the program's runs.
fn digest(
    allowed: &BTreeSet<Outcome>,
    observed: &[(String, BTreeSet<Outcome>)],
    cycles: u64,
) -> u64 {
    let mut s = format!("allowed={} cycles={cycles}", render(allowed));
    for (config, set) in observed {
        s.push_str(&format!(" {config}={}", render(set)));
    }
    fnv(&s)
}

/// One program's full conformance check through the public pieces
/// `check_conformance` is made of, plus the SOUND gate.
fn check(p: &Program, opts: &ConformOptions) -> Result<(u64, u64), String> {
    let shape = compile(p);
    let jobs = conform_jobs(&shape, opts);
    let runs = run_matrix(&jobs, opts.threads);
    let report =
        report_from_runs(&shape, opts, &runs).map_err(|e| format!("{}: oracle: {e}", p.name()))?;
    if !report.sound() {
        return Err(format!("{}: UNSOUND", p.name()));
    }
    let cycles = runs.iter().map(|r| r.cycles).sum();
    let observed: Vec<_> =
        report.verdicts.iter().map(|v| (v.config.to_string(), v.observed.clone())).collect();
    Ok((digest(&report.allowed, &observed, cycles), cycles))
}

/// [`check`] with lowering, the simulation matrix (on a pool with the
/// same claim-by-index discipline as `run_matrix`, every job traced),
/// the oracle and the verdict fold each in a span.
fn traced_check(p: &Program, opts: &ConformOptions, parent: u32) -> Result<(u64, u64), String> {
    let span = OpenSpan::open("conform", parent);
    let (shape, jobs) = in_span("lower", span.id(), |_| {
        let shape = compile(p);
        let jobs = conform_jobs(&shape, opts);
        (shape, jobs)
    });
    let runs = in_span("conform_sim", span.id(), |pool| traced_matrix(&jobs, opts.threads, pool))?;
    let (allowed, _) =
        in_span("oracle", span.id(), |_| allowed_outcomes(&shape, &opts.limits, opts.threads))
            .map_err(|e| format!("{}: oracle: {e}", p.name()))?;
    let per = opts.schedules.max(1);
    let observed: Vec<(String, BTreeSet<Outcome>)> = in_span("fold", span.id(), |_| {
        opts.configs
            .iter()
            .enumerate()
            .map(|(ci, config)| {
                let set = runs[ci * per..(ci + 1) * per]
                    .iter()
                    .map(|(_, mem)| Outcome::from_sim_memory(&shape, mem))
                    .collect();
                (config.to_string(), set)
            })
            .collect()
    });
    span.close();
    if observed.iter().any(|(_, set)| !set.is_subset(&allowed)) {
        return Err(format!("{}: UNSOUND", p.name()));
    }
    let cycles = runs.iter().map(|(c, _)| c).sum();
    Ok((digest(&allowed, &observed, cycles), cycles))
}

/// Cycles and final memory image of one conformance run.
type JobRun = Result<(u64, Vec<u64>), String>;

/// Run `jobs` on `threads` workers, each a `worker` span; returns
/// `(cycles, final memory)` per job in job order.
fn traced_matrix(
    jobs: &[SimJob],
    threads: usize,
    pool: u32,
) -> Result<Vec<(u64, Vec<u64>)>, String> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobRun>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, jobs.len().max(1)) {
            scope.spawn(|| {
                let worker = OpenSpan::open("worker", pool);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(i) else { break };
                    let r = traced_job(job, worker.id()).map(|(s, mem)| (s.cycles, mem));
                    *slots[i].lock().expect("slot lock") = Some(r);
                }
                worker.close();
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("slot lock").expect("every job ran")).collect()
}

/// One timed pass over every program in a seeded order.
pub fn pass(inputs: &ConformInputs, seed: u64, traced: bool) -> Pass {
    let mut order: Vec<usize> = (0..inputs.programs.len()).collect();
    permute(&mut order, seed);
    let start = Instant::now();
    let root = traced.then(|| OpenSpan::open("pass", 0));
    let root_id = root.as_ref().map_or(0, OpenSpan::id);
    let mut ops = Vec::with_capacity(order.len());
    let mut sim_cycles = 0;
    for &i in &order {
        let p = &inputs.programs[i];
        let t = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                traced_check(p, &inputs.opts, root_id)
            } else {
                check(p, &inputs.opts)
            }
        }))
        .unwrap_or_else(|e| Err(crate::panic_message(&e)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Ok((_, c)) = &r {
            sim_cycles += c;
        }
        ops.push(OpResult::new(p.name().to_string(), ms, r.map(|(d, _)| d)));
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(root) = root {
        root.close();
    }
    Pass { wall_s, ops, sim_cycles }
}
