//! `checker_corpus`: every litmus and stress program × DRF0/DRF1/DRFrlx
//! through the streaming checker, at its registered reduction.

use crate::spans::{now_ns, OpenSpan};
use crate::{fnv, permute, OpResult, Pass};
use drfrlx_core::checker::{check_program_with, CheckOptions, RaceKey, Verdict};
use drfrlx_core::exec::{visit_sc_sharded, EnumLimits, Execution, ExecutionVisitor};
use drfrlx_core::quantum::has_quantum;
use drfrlx_core::races::attainable_kinds;
use drfrlx_core::{MemoryModel, OpClass, Program, RaceDetector, RaceKind};
use drfrlx_litmus::{all_tests, stress_tests, LitmusTest};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Workers of the sharded walk in timed passes.
pub const WORKERS: usize = 2;

/// The corpus with every program built.
pub struct CheckerInputs {
    tests: Vec<(LitmusTest, Program)>,
}

pub fn setup() -> CheckerInputs {
    let mut tests = all_tests();
    tests.extend(stress_tests());
    CheckerInputs {
        tests: tests
            .into_iter()
            .map(|t| {
                let p = (t.build)();
                (t, p)
            })
            .collect(),
    }
}

/// What a check must reproduce: the verdict and the static race keys.
fn digest(model: MemoryModel, verdict: Verdict, keys: &BTreeSet<RaceKey>) -> u64 {
    fnv(&format!("{model:?} {verdict:?} {keys:?}"))
}

/// The registry's hand-written expectation for `model`.
fn gate(
    t: &LitmusTest,
    mi: usize,
    model: MemoryModel,
    keys: &BTreeSet<RaceKey>,
) -> Result<(), String> {
    if keys.is_empty() != t.race_free[mi] {
        return Err(format!("{}: expected race_free={} under {model}", t.name, t.race_free[mi]));
    }
    if model == MemoryModel::Drfrlx {
        let kinds: BTreeSet<RaceKind> = keys.iter().map(|k| k.0).collect();
        let want: BTreeSet<RaceKind> = t.drfrlx_kinds.iter().copied().collect();
        if kinds != want {
            return Err(format!("{}: expected DRFrlx kinds {want:?}, got {kinds:?}", t.name));
        }
    }
    Ok(())
}

fn options(t: &LitmusTest, workers: usize) -> CheckOptions {
    CheckOptions { reduction: t.reduction, threads: workers, ..CheckOptions::default() }
}

/// One check through the public entry point.
fn check(t: &LitmusTest, p: &Program, mi: usize, workers: usize) -> Result<u64, String> {
    let model = MemoryModel::ALL[mi];
    let report = check_program_with(p, model, &options(t, workers))
        .map_err(|e| format!("{}: enumeration failed under {model}: {e}", t.name))?;
    let keys: BTreeSet<RaceKey> = report.races.iter().map(|r| r.key).collect();
    gate(t, mi, model, &keys)?;
    Ok(digest(model, report.verdict, &keys))
}

/// One timed pass over every (program, model) pair in a seeded order.
pub fn pass(inputs: &CheckerInputs, seed: u64, traced: bool) -> Pass {
    let mut ops: Vec<(usize, usize)> =
        (0..inputs.tests.len()).flat_map(|i| (0..3).map(move |m| (i, m))).collect();
    permute(&mut ops, seed);
    let start = Instant::now();
    let root = traced.then(|| OpenSpan::open("pass", 0));
    let root_id = root.as_ref().map_or(0, OpenSpan::id);
    let mut out = Vec::with_capacity(ops.len());
    for &(i, mi) in &ops {
        let (t, p) = &inputs.tests[i];
        let t0 = Instant::now();
        let r = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                traced_check(t, p, mi, root_id)
            } else {
                check(t, p, mi, WORKERS)
            }
        }))
        .unwrap_or_else(|e| Err(crate::panic_message(&e)));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.push(OpResult::new(format!("{}/{}", t.name, MemoryModel::ALL[mi]), ms, r));
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(root) = root {
        root.close();
    }
    Pass { wall_s, ops: out, sim_cycles: 0 }
}

/// Digests of every check at `workers`, in corpus order — the
/// thread-invariance cross-check, run outside the timed region.
pub fn digests_at(inputs: &CheckerInputs, workers: usize) -> Vec<(String, Result<u64, String>)> {
    let mut out = Vec::new();
    for (t, p) in &inputs.tests {
        for mi in 0..3 {
            let r = catch_unwind(AssertUnwindSafe(|| check(t, p, mi, workers)))
                .unwrap_or_else(|e| Err(crate::panic_message(&e)));
            out.push((format!("{}/{}", t.name, MemoryModel::ALL[mi]), r));
        }
    }
    out
}

/// How each model views a program's annotations — the checker's own
/// model view, restated so the traced path can drive the enumerator
/// directly. The traced digest must equal the untraced one, which
/// keeps the two in step.
fn model_view(p: &Program, model: MemoryModel) -> Program {
    match model {
        MemoryModel::Drf0 => {
            p.map_classes(|c| if c.is_atomic() { OpClass::Paired } else { OpClass::Data })
        }
        MemoryModel::Drf1 => p.map_classes(|c| match c {
            c if c.is_relaxed() => OpClass::Unpaired,
            OpClass::Acquire | OpClass::Release => OpClass::Paired,
            c => c,
        }),
        MemoryModel::Drfrlx => p.clone(),
    }
}

/// A race-collecting visitor (one per shard, like the checker's own)
/// that times `RaceDetector::analyze` and records its shard as a span
/// from creation to the saturation test the enumerator runs when the
/// shard ends (or to its drop, for the discarded probe).
struct TracedCollector<'p> {
    detector: RaceDetector,
    attainable: &'p [RaceKind],
    keys: BTreeSet<RaceKey>,
    kinds: BTreeSet<RaceKind>,
    explored: u64,
    races: (u64, u64),
    span: Option<OpenSpan>,
    end: Cell<Option<u64>>,
}

impl TracedCollector<'_> {
    fn saturated(&self) -> bool {
        !self.attainable.is_empty() && self.attainable.iter().all(|k| self.kinds.contains(k))
    }
}

impl ExecutionVisitor for TracedCollector<'_> {
    fn visit(&mut self, e: &Execution) -> bool {
        let t = Instant::now();
        let races = self.detector.analyze(e).races();
        self.races.0 += 1;
        self.races.1 += t.elapsed().as_nanos() as u64;
        for race in races {
            let (ea, eb) = (&e.events[race.a], &e.events[race.b]);
            let mut pair = [(ea.tid, ea.iid), (eb.tid, eb.iid)];
            pair.sort_unstable();
            if self.keys.insert((race.kind, pair[0], pair[1])) {
                self.kinds.insert(race.kind);
            }
        }
        self.explored += 1;
        !self.saturated()
    }
}

impl Drop for TracedCollector<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.group("races", self.races.0, self.races.1);
            span.counter("explored", self.explored);
            span.close_at(self.end.get().unwrap_or_else(now_ns));
        }
    }
}

/// [`check`] with the enumeration, each shard and every race analysis
/// timed: `visit_sc_sharded` driven with a visitor that calls
/// `RaceDetector::analyze`, which is how `check_program_with` is built.
fn traced_check(t: &LitmusTest, p: &Program, mi: usize, parent: u32) -> Result<u64, String> {
    let model = MemoryModel::ALL[mi];
    let span = OpenSpan::open("check", parent);
    let view = model_view(p, model);
    let quantum = model == MemoryModel::Drfrlx && has_quantum(&view);
    let attainable = attainable_kinds(&view);
    let opts = options(t, WORKERS);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut en = OpenSpan::open("enum", span.id());
    let en_id = en.id();
    let made = AtomicUsize::new(0);
    let run = visit_sc_sharded(
        &view,
        &EnumLimits::default(),
        quantum,
        opts.reduction,
        opts.threads.min(cores),
        &|| {
            made.fetch_add(1, Ordering::Relaxed);
            TracedCollector {
                detector: RaceDetector::for_program(&view),
                attainable: &attainable,
                keys: BTreeSet::new(),
                kinds: BTreeSet::new(),
                explored: 0,
                races: (0, 0),
                span: Some(OpenSpan::open("shard", en_id)),
                end: Cell::new(None),
            }
        },
        &|v: &TracedCollector| {
            v.end.set(Some(now_ns()));
            v.saturated()
        },
    )
    .map_err(|e| format!("{}: enumeration failed under {model}: {e}", t.name))?;
    let end = now_ns();
    let probe_only = made.load(Ordering::Relaxed) == 1;
    let max_shard = run.shards.iter().map(|(_, s)| s.explored).max().unwrap_or(0);
    en.counter("explored", run.stats.explored as u64);
    en.counter("pruned", run.stats.pruned as u64);
    en.counter("memo_pruned", run.stats.memo_pruned as u64);
    en.counter("table_peak", run.stats.table_peak as u64);
    en.counter("probe_only", u64::from(probe_only));
    if !probe_only {
        en.counter("shards", run.shards.len() as u64);
        en.counter("shard_max_explored", max_shard as u64);
    }
    let mut keys = BTreeSet::new();
    for (v, _) in &run.shards {
        keys.extend(v.keys.iter().copied());
    }
    drop(run);
    en.close_at(end);
    let verdict = if keys.is_empty() { Verdict::RaceFree } else { Verdict::Racy };
    let r = gate(t, mi, model, &keys).map(|()| digest(model, verdict, &keys));
    span.close();
    r
}
