//! `sim_micro` and `sim_apps`: registry kernels × the six paper
//! configurations, one sim job per operation, on one sweep worker.

use crate::spans::{in_span, now_ns, take_call_groups, OpenSpan, TimedBackend, TimedKernel};
use crate::{fnv, permute, OpResult, Pass};
use drfrlx_workloads::registry::{benchmarks, extensions, microbenchmarks, WorkloadSpec};
use hsim_coherence::{MemorySystem, ProtoStats};
use hsim_gpu::{run_kernel, EngineReport};
use hsim_sys::{run_matrix, CoherenceBackend, RunReport, SimJob, SysParams};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Registry specs and the platforms each is simulated on.
pub struct SimInputs {
    specs: Vec<WorkloadSpec>,
    platforms: Vec<SysParams>,
}

/// `sim_micro`'s inputs: the seven Table 3 microbenchmarks on the
/// integrated and the discrete platform.
pub fn setup_micro() -> SimInputs {
    SimInputs {
        specs: microbenchmarks(),
        platforms: vec![SysParams::integrated(), SysParams::discrete_gpu()],
    }
}

/// `sim_apps`' inputs: UTS, BC-1..4, PR-1..4 and SSSP-1..2 (graphs are
/// generated here) on the integrated platform.
pub fn setup_apps() -> SimInputs {
    let mut specs = benchmarks();
    specs.extend(extensions());
    SimInputs { specs, platforms: vec![SysParams::integrated()] }
}

/// Every simulated statistic of one run that a host-speed change must
/// leave identical.
pub struct SimStats {
    pub cycles: u64,
    /// `(core ops, scratch accesses, L1 accesses, L1 tag ops, L2
    /// accesses, DRAM accesses, NoC flit-hops)` — the energy events.
    pub energy: [u64; 7],
    pub proto: ProtoStats,
    pub atomics: u64,
    pub atomics_overlapped: u64,
    pub memory: u64,
}

impl SimStats {
    fn from_report(r: &RunReport) -> SimStats {
        let c = &r.counters;
        SimStats {
            cycles: r.cycles,
            energy: [
                c.core_ops,
                c.scratch_accesses,
                c.l1_accesses,
                c.l1_tag_ops,
                c.l2_accesses,
                c.dram_accesses,
                c.noc_flit_hops,
            ],
            proto: r.proto.clone(),
            atomics: r.atomics,
            atomics_overlapped: r.atomics_overlapped,
            memory: memory_hash(&r.memory),
        }
    }

    fn from_parts(e: &EngineReport, mem: &MemorySystem) -> SimStats {
        let (l1, l1_tags, l2, dram, flits) = mem.energy_events();
        SimStats {
            cycles: e.cycles,
            energy: [e.core_ops, e.scratch_accesses, l1, l1_tags, l2, dram, flits],
            proto: mem.stats().clone(),
            atomics: e.atomics,
            atomics_overlapped: e.atomics_overlapped,
            memory: memory_hash(&e.memory),
        }
    }

    pub fn digest(&self) -> u64 {
        let p = &self.proto;
        let proto = [
            p.l1_hits,
            p.l1_misses,
            p.invalidation_events,
            p.lines_invalidated,
            p.sb_flushes,
            p.atomics_at_l2,
            p.atomics_at_l1,
            p.atomic_l1_reuse,
            p.remote_l1_transfers,
            p.mshr_coalesced,
            p.writebacks,
            p.dram_refills,
            p.sharer_invalidations,
        ];
        fnv(&format!(
            "cycles={} energy={:?} proto={proto:?} atomics={} overlapped={} mem={:016x}",
            self.cycles, self.energy, self.atomics, self.atomics_overlapped, self.memory
        ))
    }
}

fn memory_hash(mem: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in mem {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One timed pass: build every kernel through `six_jobs` (once per
/// spec and platform), then run the jobs one at a time, in an order
/// drawn from `seed`.
pub fn pass(inputs: &SimInputs, seed: u64, traced: bool) -> Pass {
    let start = Instant::now();
    let root = traced.then(|| OpenSpan::open("pass", 0));
    let root_id = root.as_ref().map_or(0, OpenSpan::id);
    let mut jobs: Vec<(String, SimJob)> = Vec::new();
    for spec in &inputs.specs {
        for params in &inputs.platforms {
            let built = if traced {
                in_span("build", root_id, |_| spec.six_jobs(params))
            } else {
                spec.six_jobs(params)
            };
            for job in built {
                jobs.push((format!("{}/{}/{}", spec.name, params.name, job.config), job));
            }
        }
    }
    permute(&mut jobs, seed);

    let mut ops = Vec::with_capacity(jobs.len());
    let mut sim_cycles = 0;
    for (id, job) in &jobs {
        let t = Instant::now();
        let r = if traced {
            catch_unwind(AssertUnwindSafe(|| traced_job(job, root_id).map(|(s, _)| s)))
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                let mut reports = run_matrix(std::slice::from_ref(job), 1);
                let report = reports.pop().expect("one report per job");
                Ok(SimStats::from_report(&report))
            }))
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let r = r.unwrap_or_else(|p| Err(crate::panic_message(&p)));
        if let Ok(s) = &r {
            sim_cycles += s.cycles;
        }
        ops.push(OpResult::new(id.clone(), ms, r.map(|s| s.digest())));
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(root) = root {
        root.close();
    }
    Pass { wall_s, ops, sim_cycles }
}

/// One sim job with every layer boundary timed: memory-system set-up,
/// `run_kernel` (with `Kernel::item`/`WorkItem::next` and
/// `MemoryBackend` calls timed by decorators) and validation. The same
/// steps as `hsim_sys::run_workload` + `run_matrix`'s validation;
/// returns the statistics and the final memory image.
pub fn traced_job(job: &SimJob, parent: u32) -> Result<(SimStats, Vec<u64>), String> {
    let span = OpenSpan::open("job", parent);
    let mut backend = in_span("run.setup", span.id(), |_| {
        let mem = MemorySystem::new(job.config.protocol, job.params.memsys.clone());
        TimedBackend(CoherenceBackend::new(mem))
    });
    let mut engine = job.params.engine.clone();
    engine.model = job.config.model;
    let mut eng = OpenSpan::open("engine", span.id());
    take_call_groups();
    let report = run_kernel(&TimedKernel(job.kernel.as_ref()), &engine, &mut backend);
    let end = now_ns();
    let ((item_calls, item_ns), (mem_calls, mem_ns)) = take_call_groups();
    eng.group("item", item_calls, item_ns);
    eng.group("memsys", mem_calls, mem_ns);
    let mem = backend.0.into_inner();
    let stats = SimStats::from_parts(&report, &mem);
    eng.counter("core_ops", report.core_ops);
    eng.counter("l1_hits", stats.proto.l1_hits);
    eng.counter("l1_misses", stats.proto.l1_misses);
    eng.counter("mshr_coalesced", stats.proto.mshr_coalesced);
    eng.counter("dram_refills", stats.proto.dram_refills);
    eng.counter("flit_hops", stats.energy[6]);
    eng.close_at(end);
    if job.validate {
        in_span("run.validate", span.id(), |_| job.kernel.validate(&report.memory)).map_err(
            |e| format!("{} produced a wrong result under {}: {e}", job.workload, job.config),
        )?;
    }
    span.close();
    Ok((stats, report.memory))
}
