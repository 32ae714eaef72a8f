//! Benchmarks for the substrate crates: NoC message timelines, cache
//! arrays, relation algebra, and the fixed costs simulations pay
//! (building a memory system; one whole conformance run; building a
//! micro kernel). Plain `harness = false` timing (offline-friendly).

use drfrlx_bench::timing::{bench, TimingConfig};
use drfrlx_conform::{compile, schedule_params, table1_corpus};
use drfrlx_core::relation::Relation;
use drfrlx_core::{Protocol, SystemConfig};
use drfrlx_workloads::registry::microbenchmarks;
use hsim_coherence::{MemSysParams, MemorySystem};
use hsim_mem::{Cache, CacheParams, LineAddr};
use hsim_noc::{Mesh, NocParams, NodeId};
use hsim_sys::{run_workload, SysParams};

fn main() {
    let cfg = TimingConfig::default();

    bench("noc/hotspot_1k_messages", &cfg, || {
        let mut m = Mesh::new(NocParams::default());
        for i in 0..1000u64 {
            m.send(i, NodeId((i % 16) as u16), NodeId(5), 4);
        }
        m.stats().total_latency
    });

    bench("cache/32k_lookups", &cfg, || {
        let mut cache: Cache<u8> = Cache::new(CacheParams::with_capacity(32 * 1024, 64, 8));
        let mut hits = 0u64;
        for i in 0..32_768u64 {
            let line = LineAddr(i % 700);
            if cache.lookup(line).is_some() {
                hits += 1;
            } else {
                cache.insert(line, 0);
            }
        }
        hits
    });

    // Per-run set-up: a Table-2 memory system is built and dropped by
    // every simulation run, however short.
    let table2 = MemSysParams::default();
    for protocol in Protocol::WITH_EXTENSIONS {
        bench(&format!("memsys/new_drop/{protocol:?}"), &cfg, || {
            MemorySystem::new(protocol, table2.clone()).protocol()
        });
    }

    // One conformance run: a compiled Table-1 program under one config
    // and one perturbed schedule — the unit `conform` repeats ~53k
    // times per pass over its corpus.
    let (_, program) = &table1_corpus()[0];
    let shape = compile(program);
    let config = SystemConfig::from_abbrev("DDR").expect("DDR is a config");
    let params = schedule_params(&SysParams::integrated(), 1, 1);
    bench("conform/one_run", &cfg, || run_workload(&shape, config, &params).cycles);

    // Kernel build: a registry micro kernel built and dropped — what a
    // sweep pays once per spec and platform before its first run.
    let micros = microbenchmarks();
    for name in ["H", "HG", "HG-NO", "RC"] {
        let spec = micros.iter().find(|s| s.name == name).expect("a Table 3 microbenchmark");
        bench(&format!("kernel/build/{name}"), &cfg, || spec.kernel().blocks());
    }

    let n = 24;
    let r = Relation::from_pairs(n, (0..n - 1).map(|i| (i, i + 1)));
    bench("relation/closure_n24", &cfg, || r.transitive_closure().len());
}
