//! Histogram microbenchmarks (Event Counter use case, §3.2 / §4.4).
//!
//! * [`Hist`] — each thread bins its values in the scratchpad first,
//!   then pushes the per-block sub-histogram into the global one with
//!   commutative fetch-adds (Podlozhnyuk's CUDA histogram). Few global
//!   atomics → little for DRFrlx to overlap.
//! * [`HistGlobal`] — every value increments the global bin directly:
//!   an atomic storm with high contention.
//! * [`HistGlobalNonOrder`] — the *read* side of Listing 2's bottom:
//!   threads read the final bin values with non-ordering atomic loads
//!   (the update portion is excluded, §4.4). Under DeNovo, atomic
//!   loads take ownership, so bins ping-pong between L1s — the case
//!   where DD0 loses to GD0 in Figure 3.
//!
//! All three are grids of the `hist` templates in
//! [`drfrlx_bridge::templates`] (the scratch/barrier/merge shape, the
//! global-RMW shape, the non-ordering read walk). Each is one body
//! shared by every grid thread: input addresses are affine in the
//! global id, and each thread's bin choices are its row of the grid's
//! table. The per-value bin assignment stays here — the templates take
//! it as a closure — so the kernels share their `expected()` oracle
//! with the emitted programs by construction.

use super::GridKernel;
use crate::util::SplitMix64;
use drfrlx_bridge::templates::hist;
use drfrlx_bridge::Layout;
use drfrlx_core::program::Place;
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Value, WorkItem};

/// Memory map: `[0, bins)` = global histogram; `[bins, ...)` = input
/// values.
fn input_base(bins: usize) -> u64 {
    bins as u64
}

/// Generate the deterministic input stream for `(block, thread)`.
fn input_of(seed: u64, block: usize, thread: usize, i: usize, bins: usize) -> Value {
    let mut rng =
        SplitMix64::new(seed ^ ((block as u64) << 32) ^ ((thread as u64) << 16) ^ i as u64);
    rng.below(bins as u64)
}

/// Common histogram shape.
#[derive(Debug, Clone)]
pub struct HistParams {
    /// Number of bins (paper: 256).
    pub bins: usize,
    /// Values binned per thread.
    pub per_thread: usize,
    /// Thread blocks.
    pub blocks: usize,
    /// Threads per block.
    pub tpb: usize,
    /// Input seed.
    pub seed: u64,
}

impl Default for HistParams {
    fn default() -> Self {
        HistParams { bins: 256, per_thread: 64, blocks: 15, tpb: 32, seed: 0xD1CE }
    }
}

impl HistParams {
    /// Where the templates' locations live: global bin `b{n}` at word
    /// `n`, input value `i{k}` at word `bins + k`.
    fn layout(&self) -> Layout {
        Layout::new().array("b", 0, 1).array("i", input_base(self.bins), 1)
    }

    /// The bin each input value falls in.
    fn bin_of(&self) -> impl Fn(usize, usize, usize) -> usize {
        let (seed, bins) = (self.seed, self.bins);
        move |b: usize, t: usize, i: usize| input_of(seed, b, t, i, bins) as usize
    }

    fn expected(&self) -> Vec<Value> {
        let mut bins = vec![0; self.bins];
        for b in 0..self.blocks {
            for t in 0..self.tpb {
                for i in 0..self.per_thread {
                    bins[input_of(self.seed, b, t, i, self.bins) as usize] += 1;
                }
            }
        }
        bins
    }

    fn validate_bins(&self, mem: &[Value]) -> Result<(), String> {
        let expected = self.expected();
        for (i, &e) in expected.iter().enumerate() {
            if mem[i] != e {
                return Err(format!("bin {i}: expected {e}, got {}", mem[i]));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Hist (H): local scratchpad binning, then global merge.
// ---------------------------------------------------------------------

/// The locally-binned histogram.
#[derive(Debug, Clone)]
pub struct Hist {
    /// Shape parameters.
    pub params: HistParams,
    lowered: GridKernel,
}

impl Hist {
    /// Build the kernel: each thread bins into a private scratch region
    /// (as the paper's per-thread local binning does) so scratch updates
    /// never race; after the block barrier, thread `t` merges bins
    /// `t, t + tpb, ...` with one commutative add per non-empty bin.
    pub fn new(params: HistParams) -> Hist {
        let shape = hist::Shape {
            bins: params.bins,
            per_thread: params.per_thread,
            tpb: params.tpb,
            merge_class: OpClass::Commutative,
        };
        let grid = hist::local_grid("H", &shape, params.blocks, &params.bin_of());
        let memory = params.bins + params.blocks * params.tpb * params.per_thread;
        let scratch = params.tpb * params.bins;
        let lowered = GridKernel::new(grid, params.layout(), memory, scratch);
        Hist { params, lowered }
    }

    /// The grid program and its lowering.
    pub fn lowered(&self) -> &GridKernel {
        &self.lowered
    }
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new(HistParams::default())
    }
}

impl Kernel for Hist {
    fn name(&self) -> String {
        self.lowered.kernel.name()
    }
    fn blocks(&self) -> usize {
        self.lowered.kernel.blocks()
    }
    fn threads_per_block(&self) -> usize {
        self.lowered.kernel.threads_per_block()
    }
    fn scratch_words(&self) -> usize {
        self.lowered.kernel.scratch_words()
    }
    fn memory_words(&self) -> usize {
        self.lowered.kernel.memory_words()
    }
    fn init_memory(&self, mem: &mut [Value]) {
        self.lowered.kernel.init_memory(mem);
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        self.lowered.kernel.item(block, thread)
    }
    fn validate(&self, mem: &[Value]) -> Result<(), String> {
        self.params.validate_bins(mem)
    }
}

// ---------------------------------------------------------------------
// Hist_global (HG): every value goes straight to the global bins.
// ---------------------------------------------------------------------

/// The all-global histogram.
#[derive(Debug, Clone)]
pub struct HistGlobal {
    /// Shape parameters.
    pub params: HistParams,
    /// Class annotation on the updates (Table 3: commutative; the
    /// acquire/release ablation compares `Paired` against `Release` —
    /// an increment has nothing to acquire, so the release-only RMW
    /// keeps the input lines in the L1).
    pub update_class: OpClass,
    lowered: GridKernel,
}

impl HistGlobal {
    /// Build the kernel: one `update_class` fetch-add straight to the
    /// global bin per value.
    pub fn new(params: HistParams, update_class: OpClass) -> HistGlobal {
        let shape = hist::Shape {
            bins: params.bins,
            per_thread: params.per_thread,
            tpb: params.tpb,
            merge_class: update_class,
        };
        let grid = hist::global_grid("HG", &shape, params.blocks, update_class, &params.bin_of());
        let memory = params.bins + params.blocks * params.tpb * params.per_thread;
        let lowered = GridKernel::new(grid, params.layout(), memory, 0);
        HistGlobal { params, update_class, lowered }
    }

    /// The grid program and its lowering.
    pub fn lowered(&self) -> &GridKernel {
        &self.lowered
    }
}

impl Default for HistGlobal {
    fn default() -> Self {
        HistGlobal::new(HistParams::default(), OpClass::Commutative)
    }
}

impl Kernel for HistGlobal {
    fn name(&self) -> String {
        self.lowered.kernel.name()
    }
    fn blocks(&self) -> usize {
        self.lowered.kernel.blocks()
    }
    fn threads_per_block(&self) -> usize {
        self.lowered.kernel.threads_per_block()
    }
    fn memory_words(&self) -> usize {
        self.lowered.kernel.memory_words()
    }
    fn init_memory(&self, mem: &mut [Value]) {
        self.lowered.kernel.init_memory(mem);
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        self.lowered.kernel.item(block, thread)
    }
    fn validate(&self, mem: &[Value]) -> Result<(), String> {
        self.params.validate_bins(mem)
    }
}

// ---------------------------------------------------------------------
// HG-NO: read the final bins with non-ordering atomic loads.
// ---------------------------------------------------------------------

/// The bin-reading phase with non-ordering atomics.
///
/// Threads read scattered, mostly-disjoint bins (a hashed stride), so
/// an atomic load rarely finds its line already owned by its own CU.
/// Under DeNovo every read drags ownership across the mesh (the §6
/// "overhead of obtaining ownership from a remote core"), while GPU
/// coherence just round-trips to the home L2 bank — this is the
/// microbenchmark where DD0 loses to GD0 in Figure 3.
#[derive(Debug, Clone)]
pub struct HistGlobalNonOrder {
    /// Shape parameters: `bins` is the table size, `per_thread` the
    /// reads issued per thread.
    pub params: HistParams,
    lowered: GridKernel,
}

impl HistGlobalNonOrder {
    /// Build the kernel: a pre-populated histogram walked with
    /// non-ordering atomic loads (the update phase is excluded).
    pub fn new(params: HistParams) -> HistGlobalNonOrder {
        let mut grid =
            hist::nonorder_grid("HG-NO", params.bins, params.per_thread, params.blocks, params.tpb);
        for j in 0..params.bins {
            grid.set_init(Place::at("b", j), (j % 7 + 1) as i64);
        }
        let lowered = GridKernel::new(grid, params.layout(), params.bins, 0);
        HistGlobalNonOrder { params, lowered }
    }

    /// The grid program and its lowering.
    pub fn lowered(&self) -> &GridKernel {
        &self.lowered
    }
}

impl Default for HistGlobalNonOrder {
    fn default() -> Self {
        HistGlobalNonOrder::new(HistParams { bins: 4096, per_thread: 64, ..HistParams::default() })
    }
}

impl Kernel for HistGlobalNonOrder {
    fn name(&self) -> String {
        self.lowered.kernel.name()
    }
    fn blocks(&self) -> usize {
        self.lowered.kernel.blocks()
    }
    fn threads_per_block(&self) -> usize {
        self.lowered.kernel.threads_per_block()
    }
    fn memory_words(&self) -> usize {
        self.lowered.kernel.memory_words()
    }
    fn init_memory(&self, mem: &mut [Value]) {
        self.lowered.kernel.init_memory(mem);
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        self.lowered.kernel.item(block, thread)
    }
    fn validate(&self, mem: &[Value]) -> Result<(), String> {
        // Read-only: bins must be untouched.
        for (i, &bin) in mem.iter().enumerate().take(self.params.bins) {
            if bin != (i % 7 + 1) as Value {
                return Err(format!("bin {i} was modified"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::SystemConfig;
    use hsim_sys::{run_workload, SysParams};

    fn small() -> HistParams {
        HistParams { bins: 32, per_thread: 8, blocks: 4, tpb: 4, seed: 1 }
    }

    #[test]
    fn hist_is_functionally_correct_on_every_config() {
        let k = Hist::new(small());
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn hg_is_functionally_correct_on_every_config() {
        let k = HistGlobal::new(small(), OpClass::Commutative);
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn hg_no_reads_do_not_modify() {
        let k = HistGlobalNonOrder::new(small());
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn hg_has_many_more_atomics_than_h() {
        // Many values over few bins: H merges each thread's nonzero
        // bins once, HG pays one atomic per value.
        let p = HistParams { bins: 16, per_thread: 64, blocks: 4, tpb: 4, seed: 1 };
        let params = SysParams::integrated();
        let cfg = SystemConfig::from_abbrev("GD0").unwrap();
        let h = run_workload(&Hist::new(p.clone()), cfg, &params);
        let hg = run_workload(&HistGlobal::new(p, OpClass::Commutative), cfg, &params);
        assert!(hg.atomics > 2 * h.atomics, "HG {} vs H {} atomics", hg.atomics, h.atomics);
    }

    #[test]
    fn each_histogram_lowers_to_one_body_shared_by_all_480_threads() {
        let h = Hist::new(HistParams { per_thread: 256, ..HistParams::default() });
        let hg = HistGlobal::default();
        let hg_no = HistGlobalNonOrder::default();
        for g in [h.lowered(), hg.lowered(), hg_no.lowered()] {
            let k = &g.kernel;
            assert_eq!(k.blocks() * k.threads_per_block(), 480, "{}", k.name());
            assert_eq!(k.body_count(), 1, "{}: one compiled body for every thread", k.name());
            assert_eq!(g.grid.body_count(), 1, "{}", k.name());
        }
    }

    #[test]
    fn hist_uses_the_scratchpad() {
        let params = SysParams::integrated();
        let cfg = SystemConfig::from_abbrev("GD0").unwrap();
        let h = run_workload(&Hist::new(small()), cfg, &params);
        assert!(h.counters.scratch_accesses > 0);
        let hg = run_workload(&HistGlobal::new(small(), OpClass::Commutative), cfg, &params);
        assert_eq!(hg.counters.scratch_accesses, 0);
    }
}
