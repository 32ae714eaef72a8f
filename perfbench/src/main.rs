//! One benchmark pass in a fresh process.
//!
//! ```text
//! drfrlx-perfbench pass --workload <sim_micro|sim_apps|checker_corpus|conform_mix>
//!                       --seed <n> [--traced --spans <file>] [--check-threads]
//!                       [--spawned-ns <wall-clock ns at launch>]
//! ```
//!
//! Builds the workload's inputs (timed), runs one timed pass over them
//! and prints one JSON line: set-up times, pass wall time, and per
//! operation its latency and digest or error; for a traced pass also
//! the per-layer figures computed from its spans. `run.py` drives
//! passes and turns them into the benchmark's metrics.

mod checker;
mod conform;
mod sim;
mod spans;

use spans::{self_times, Span};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed pass.
pub struct Pass {
    pub wall_s: f64,
    pub ops: Vec<OpResult>,
    /// Simulated GPU cycles across the pass's runs.
    pub sim_cycles: u64,
}

/// One operation: its id, host latency and digest (or why it failed).
pub struct OpResult {
    id: String,
    ms: f64,
    outcome: Result<u64, String>,
}

impl OpResult {
    pub fn new(id: String, ms: f64, outcome: Result<u64, String>) -> OpResult {
        OpResult { id, ms, outcome }
    }
}

/// FNV-1a, 64-bit: the digest of a canonical rendering.
pub fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fisher–Yates shuffle driven by SplitMix64 from `seed`.
pub fn permute<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        v.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

pub fn panic_message(p: &Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into());
    format!("panic: {msg}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer figures of one traced pass, from its spans.
fn layers(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let selfs = self_times(spans);
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let named = |n: &'static str| spans.iter().filter(move |s| s.name == n);
    let dur = |n| secs(named(n).map(Span::dur_ns).sum());
    let self_s = |n: &str| {
        secs(spans.iter().zip(&selfs).filter(|(s, _)| s.name == n).map(|(_, t)| *t).sum())
    };
    let group = |span: &'static str, g: &str| {
        named(span).map(|s| s.group(g)).fold((0, 0), |(c, n), (c2, n2)| (c + c2, n + n2))
    };
    let count = |span: &'static str, c: &str| named(span).map(|s| s.counter(c)).sum::<u64>() as f64;

    let (item_calls, item_ns) = group("engine", "item");
    let (mem_calls, mem_ns) = group("engine", "memsys");
    let (race_calls, race_ns) = group("shard", "races");
    let (l1_hits, l1_misses) = (count("engine", "l1_hits"), count("engine", "l1_misses"));
    let flit_hops = count("engine", "flit_hops");
    let engine_self = self_s("engine");

    // Sweep pool: busy = jobs run by workers; idle = each worker's wait
    // from its last job to the end of the pool.
    let (mut busy, mut idle) = (0u64, 0u64);
    for w in named("worker") {
        if let Some(pool) = by_id.get(&w.parent) {
            idle += pool.end_ns.saturating_sub(w.end_ns);
        }
    }
    for j in named("job") {
        if by_id.get(&j.parent).is_some_and(|p| p.name == "worker") {
            busy += j.dur_ns();
        }
    }

    let (explored, pruned, memo_pruned) =
        (count("enum", "explored"), count("enum", "pruned"), count("enum", "memo_pruned"));
    let table_peak = named("enum").map(|s| s.counter("table_peak")).max().unwrap_or(0);
    // Imbalance of a sharded check is max/mean explored per shard;
    // across checks it is weighted by explored executions.
    let (mut imb_weighted, mut imb_weight) = (0.0, 0.0);
    for s in named("enum").filter(|s| s.counter("shards") > 0) {
        let (n, total) = (s.counter("shards") as f64, s.counter("explored") as f64);
        if total > 0.0 {
            imb_weighted += s.counter("shard_max_explored") as f64 / (total / n) * total;
            imb_weight += total;
        }
    }

    vec![
        ("build.s", dur("build")),
        ("build.calls", named("build").count() as f64),
        ("item.s", secs(item_ns)),
        ("item.calls", item_calls as f64),
        ("item.ns_per_call", ratio(item_ns as f64, item_calls as f64)),
        ("memsys.s", secs(mem_ns)),
        ("memsys.calls", mem_calls as f64),
        ("memsys.ns_per_call", ratio(mem_ns as f64, mem_calls as f64)),
        ("memsys.l1_hit_rate", ratio(l1_hits, l1_hits + l1_misses)),
        ("memsys.mshr_coalesced", count("engine", "mshr_coalesced")),
        ("memsys.dram_refills", count("engine", "dram_refills")),
        ("noc.flit_hops", flit_hops),
        ("noc.flit_hops_per_access", ratio(flit_hops, mem_calls as f64)),
        ("engine.self_s", engine_self),
        ("engine.ns_per_op", ratio(engine_self * 1e9, count("engine", "core_ops"))),
        ("run.setup_s", dur("run.setup")),
        ("run.validate_s", dur("run.validate")),
        ("sweep.busy_s", secs(busy)),
        ("sweep.idle_s", secs(idle)),
        ("enum.self_s", self_s("enum") + self_s("shard")),
        ("enum.explored", explored),
        ("enum.pruned", pruned),
        ("enum.memo_pruned", memo_pruned),
        ("enum.table_peak", table_peak as f64),
        ("enum.execs_per_s", ratio(explored, dur("enum"))),
        ("races.s", secs(race_ns)),
        ("races.calls", race_calls as f64),
        ("races.ns_per_call", ratio(race_ns as f64, race_calls as f64)),
        ("memo.prune_share", ratio(memo_pruned, pruned + memo_pruned)),
        ("shard.count", count("enum", "shards")),
        ("shard.imbalance", ratio(imb_weighted, imb_weight)),
        ("shard.probe_only", count("enum", "probe_only")),
        ("lower.s", dur("lower")),
        ("oracle.s", dur("oracle")),
        ("conform_sim.s", dur("conform_sim")),
    ]
}

/// Build the inputs once, in this fresh process; returns them with
/// the seconds from `spawned_ns` (wall-clock nanoseconds when the
/// process was launched, 0 if unknown) and from `main`'s start to
/// inputs ready.
fn timed_setup<T>(spawned_ns: u128, f: impl Fn() -> T) -> (T, [f64; 2]) {
    let t = Instant::now();
    let inputs = f();
    let inputs_s = t.elapsed().as_secs_f64();
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let spawn_s = if spawned_ns > 0 { now.saturating_sub(spawned_ns) as f64 * 1e-9 } else { 0.0 };
    (inputs, [spawn_s, inputs_s])
}

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    spans: Option<String>,
    check_threads: bool,
    spawned_ns: u128,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    if it.next().as_deref() != Some("pass") {
        return Err("usage: drfrlx-perfbench pass --workload W --seed N [--traced --spans FILE] \
                    [--check-threads] [--spawned-ns NS]"
            .into());
    }
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        traced: false,
        spans: None,
        check_threads: false,
        spawned_ns: 0,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = it.next().ok_or("--workload needs a value")?,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--traced" => a.traced = true,
            "--spans" => a.spans = Some(it.next().ok_or("--spans needs a value")?),
            "--check-threads" => a.check_threads = true,
            "--spawned-ns" => {
                let v = it.next().ok_or("--spawned-ns needs a value")?;
                a.spawned_ns = v.parse().map_err(|_| format!("bad --spawned-ns {v}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let (seed, traced) = (args.seed, args.traced);
    let mut thread_mismatches: Option<Vec<String>> = None;
    let (pass, setup) = match args.workload.as_str() {
        "sim_micro" => {
            let (inputs, setup) = timed_setup(args.spawned_ns, sim::setup_micro);
            (sim::pass(&inputs, seed, traced), setup)
        }
        "sim_apps" => {
            let (inputs, setup) = timed_setup(args.spawned_ns, sim::setup_apps);
            (sim::pass(&inputs, seed, traced), setup)
        }
        "checker_corpus" => {
            let (inputs, setup) = timed_setup(args.spawned_ns, checker::setup);
            let pass = checker::pass(&inputs, seed, traced);
            if args.check_threads {
                // Outside the timed region: reports at 1 worker must
                // match the timed pass's reports at `WORKERS`.
                let timed: HashMap<&str, &Result<u64, String>> =
                    pass.ops.iter().map(|o| (o.id.as_str(), &o.outcome)).collect();
                let serial = checker::digests_at(&inputs, 1);
                thread_mismatches = Some(
                    serial
                        .into_iter()
                        .filter(|(id, r)| timed.get(id.as_str()).is_none_or(|t| *t != r))
                        .map(|(id, _)| id)
                        .collect(),
                );
            }
            (pass, setup)
        }
        "conform_mix" => {
            let (inputs, setup) = timed_setup(args.spawned_ns, || conform::setup(seed));
            (conform::pass(&inputs, seed, traced), setup)
        }
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{seed},\"traced\":{traced},\"wall_s\":{},\"sim_cycles\":{},\"setup_s\":{:?}",
        json_str(&args.workload),
        pass.wall_s,
        pass.sim_cycles,
        setup
    );
    out.push_str(",\"ops\":[");
    for (i, op) in pass.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (digest, err) = match &op.outcome {
            Ok(d) => (json_str(&format!("{d:016x}")), "null".to_string()),
            Err(e) => ("null".to_string(), json_str(e)),
        };
        let _ = write!(out, "[{},{},{digest},{err}]", json_str(&op.id), op.ms);
    }
    out.push(']');
    if let Some(m) = &thread_mismatches {
        let ids: Vec<String> = m.iter().map(|s| json_str(s)).collect();
        let _ = write!(out, ",\"thread_mismatches\":[{}]", ids.join(","));
    }
    if traced {
        let spans = spans::take();
        out.push_str(",\"layers\":{");
        for (i, (name, v)) in layers(&spans).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_str(name));
        }
        out.push('}');
        if let Some(path) = &args.spans {
            if let Err(e) = spans::write_jsonl(std::path::Path::new(path), &spans) {
                eprintln!("error: writing spans to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    out.push('}');
    println!("{out}");
}
