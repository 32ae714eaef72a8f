//! The Table 3 registry: every workload with its paper input, the
//! scaled input we simulate, and the relaxed-atomic classes it uses.

use crate::bc::Bc;
use crate::graphs;
use crate::micro::{
    Flags, Hist, HistGlobal, HistGlobalNonOrder, RefCounter, Seqlocks, SplitCounter,
};
use crate::pagerank::PageRank;
use crate::uts::Uts;
use drfrlx_core::{OpClass, SystemConfig};
use hsim_gpu::Kernel;
use hsim_sys::{six_config_jobs, SimJob, SysParams};
use std::sync::{Arc, OnceLock};

/// One row of Table 3.
pub struct WorkloadSpec {
    /// Short name as the paper prints it (H, HG, HG-NO, Flags, SC, RC,
    /// SEQ, UTS, BC-1..4, PR-1..4).
    pub name: &'static str,
    /// Is this a microbenchmark (Figure 3) or benchmark (Figure 4)?
    pub micro: bool,
    /// The paper's input description.
    pub paper_input: &'static str,
    /// Our scaled input description.
    pub scaled_input: String,
    /// Atomic classes used.
    pub classes: &'static [OpClass],
    /// Kernel constructor.
    pub build: Box<dyn Fn() -> Box<dyn Kernel> + Send + Sync>,
    /// The instance [`WorkloadSpec::shared_kernel`] hands out, built on
    /// first use.
    shared: OnceLock<Arc<dyn Kernel>>,
}

impl WorkloadSpec {
    /// Instantiate a fresh kernel.
    pub fn kernel(&self) -> Box<dyn Kernel> {
        (self.build)()
    }

    /// This spec's kernel, built once on first call and shared by every
    /// later call — and so by every [`SimJob`] made from this spec, on
    /// every platform. Kernels are immutable descriptions (each run
    /// creates its own work items), so sharing never changes a result.
    pub fn shared_kernel(&self) -> Arc<dyn Kernel> {
        Arc::clone(self.shared.get_or_init(|| Arc::from(self.kernel())))
    }

    /// One validated simulation job for this workload (on the shared
    /// kernel).
    pub fn job(&self, config: SystemConfig, params: &SysParams) -> SimJob {
        SimJob::new(self.name, self.shared_kernel(), config, params)
    }

    /// Validated jobs for this workload under all six paper
    /// configurations (GD0..DDR), sharing one kernel instance.
    pub fn six_jobs(&self, params: &SysParams) -> Vec<SimJob> {
        six_config_jobs(self.name, self.shared_kernel(), params, true)
    }
}

fn spec(
    name: &'static str,
    micro: bool,
    paper_input: &'static str,
    scaled_input: impl Into<String>,
    classes: &'static [OpClass],
    build: impl Fn() -> Box<dyn Kernel> + Send + Sync + 'static,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        micro,
        paper_input,
        scaled_input: scaled_input.into(),
        classes,
        build: Box::new(build),
        shared: OnceLock::new(),
    }
}

/// The seven microbenchmarks (Figure 3's x-axis).
pub fn microbenchmarks() -> Vec<WorkloadSpec> {
    use OpClass::*;
    vec![
        spec("H", true, "256 KB, 256 bins", "61K values, 256 bins", &[Commutative], || {
            Box::new(Hist::new(crate::micro::HistParams { per_thread: 256, ..Default::default() }))
        }),
        spec("HG", true, "256 KB, 256 bins", "15K values, 256 bins", &[Commutative], || {
            Box::new(HistGlobal::default())
        }),
        spec("HG-NO", true, "256 KB, 256 bins", "240 readers x 256 bins", &[NonOrdering], || {
            Box::new(HistGlobalNonOrder::default())
        }),
        spec(
            "Flags",
            true,
            "90 thread blocks",
            "15 blocks x 16 threads",
            &[Commutative, NonOrdering],
            || Box::new(Flags::default()),
        ),
        spec("SC", true, "112 thread blocks", "14 blocks x 16 threads", &[Quantum], || {
            Box::new(SplitCounter::default())
        }),
        spec("RC", true, "64 thread blocks", "15 blocks x 16 threads", &[Quantum], || {
            Box::new(RefCounter::default())
        }),
        spec("SEQ", true, "512 thread blocks", "15 blocks x 16 threads", &[Speculative], || {
            Box::new(Seqlocks::default())
        }),
    ]
}

/// The benchmarks (Figure 4's x-axis): UTS, BC over four graphs,
/// PageRank over four graphs.
pub fn benchmarks() -> Vec<WorkloadSpec> {
    use OpClass::*;
    let mut out =
        vec![spec("UTS", false, "16K nodes", "2K nodes, geometric tree", &[Unpaired], || {
            Box::new(Uts::scaled(2048, 15, 16))
        })];
    for (i, g) in graphs::bc_inputs().into_iter().enumerate() {
        let name: &'static str = ["BC-1", "BC-2", "BC-3", "BC-4"][i];
        let paper: &'static str = ["rome99", "nasa1824", "ex33", "c-22"][i];
        let desc = format!("{} ({} verts, {} edges)", g.name, g.verts(), g.num_edges());
        out.push(spec(name, false, paper, desc, &[Commutative, NonOrdering], move || {
            Box::new(Bc::new(g.clone(), 15, 16))
        }));
    }
    for (i, g) in graphs::pr_inputs().into_iter().enumerate() {
        let name: &'static str = ["PR-1", "PR-2", "PR-3", "PR-4"][i];
        let paper: &'static str = ["c-37", "c-36", "ex3", "c-40"][i];
        let desc = format!("{} ({} verts, {} edges)", g.name, g.verts(), g.num_edges());
        out.push(spec(name, false, paper, desc, &[Commutative], move || {
            Box::new(PageRank::new(g.clone(), 2, 15, 16))
        }));
    }
    out
}

/// All workloads (Table 3 order).
pub fn all_workloads() -> Vec<WorkloadSpec> {
    let mut v = microbenchmarks();
    v.extend(benchmarks());
    v
}

/// The nine atomic-heavy applications of the Figure 1 motivation
/// experiment (one representative input per benchmark family), in
/// Table 3 order.
pub fn figure1_workloads() -> Vec<WorkloadSpec> {
    const FIG1: [&str; 9] = ["H", "HG", "Flags", "SC", "RC", "SEQ", "UTS", "BC-4", "PR-2"];
    all_workloads().into_iter().filter(|s| FIG1.contains(&s.name)).collect()
}

/// Extension workloads beyond the paper's Table 3 (kept out of the
/// figure harnesses for fidelity): SSSP, Pannotia's other
/// relaxed-atomic graph benchmark.
pub fn extensions() -> Vec<WorkloadSpec> {
    use OpClass::*;
    let mut out = Vec::new();
    for (i, g) in
        [graphs::mesh_like("sssp-mesh", 24, 20), graphs::contact_like("sssp-contact", 640, 3, 41)]
            .into_iter()
            .enumerate()
    {
        let name: &'static str = ["SSSP-1", "SSSP-2"][i];
        let desc = format!("{} ({} verts, {} edges)", g.name, g.verts(), g.num_edges());
        out.push(spec(name, false, "(extension)", desc, &[Commutative, NonOrdering], move || {
            Box::new(crate::sssp::Sssp::new(g.clone(), 15, 16))
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table3() {
        let all = all_workloads();
        assert_eq!(all.len(), 7 + 1 + 4 + 4);
        let names: Vec<&str> = all.iter().map(|s| s.name).collect();
        for expected in ["H", "HG", "HG-NO", "Flags", "SC", "RC", "SEQ", "UTS", "BC-1", "PR-4"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        // Classes per Table 3.
        let by_name = |n: &str| all.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("UTS").classes, &[OpClass::Unpaired]);
        assert_eq!(by_name("SC").classes, &[OpClass::Quantum]);
        assert_eq!(by_name("SEQ").classes, &[OpClass::Speculative]);
        assert!(by_name("BC-1").classes.contains(&OpClass::NonOrdering));
        assert_eq!(by_name("PR-1").classes, &[OpClass::Commutative]);
    }

    #[test]
    fn shared_kernel_is_built_once_per_spec() {
        let flags =
            |specs: Vec<WorkloadSpec>| specs.into_iter().find(|s| s.name == "Flags").unwrap();
        let s = flags(microbenchmarks());
        let a = s.shared_kernel();
        assert!(Arc::ptr_eq(&a, &s.shared_kernel()), "repeated calls share one instance");
        for params in [SysParams::integrated(), SysParams::discrete_gpu()] {
            for job in s.six_jobs(&params) {
                assert!(Arc::ptr_eq(&a, &job.kernel), "{} {}", params.name, job.config);
            }
            let job = s.job(SystemConfig::from_abbrev("DDR").unwrap(), &params);
            assert!(Arc::ptr_eq(&a, &job.kernel), "{}: job() shares it too", params.name);
        }
        let fresh: Arc<dyn Kernel> = Arc::from(s.kernel());
        assert!(!Arc::ptr_eq(&a, &fresh), "kernel() still builds a fresh instance");
        assert_eq!(fresh.blocks(), a.blocks());
        // Another registry instance has its own cache.
        assert!(!Arc::ptr_eq(&a, &flags(microbenchmarks()).shared_kernel()));
    }

    #[test]
    fn every_spec_builds_a_kernel() {
        for s in all_workloads() {
            let k = s.kernel();
            assert!(k.blocks() > 0, "{}", s.name);
            assert!(k.memory_words() > 0, "{}", s.name);
        }
    }
}
