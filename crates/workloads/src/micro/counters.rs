//! Split Counter and Reference Counter microbenchmarks (the quantum
//! use cases, §3.4, Listings 4 and 5).
//!
//! Both kernels are grids of the shared program templates in
//! [`drfrlx_bridge::templates`]: the same `split_counter` and
//! `ref_counter` emitters also produce the scaled-down litmus programs
//! the axiomatic checkers enumerate, so the quantum-counter logic lives
//! in exactly one place. Here each template is written once as a
//! thread-parametric body — the split counter's block index is affine
//! in the block id, the reference counter's modular object walk is a
//! per-thread table — and the layout places each counter on its own
//! cache line; the lowering infers `use_result` per RMW from register
//! liveness.

use super::GridKernel;
use drfrlx_bridge::templates::{ref_counter, split_counter};
use drfrlx_bridge::Layout;
use drfrlx_core::program::{Body, Grid, GridValue, Place, Value as LitmusValue};
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Value, WorkItem};

// ---------------------------------------------------------------------
// SplitCounter (SC): per-block counters, concurrent approximate readers.
// ---------------------------------------------------------------------

/// Split counter: updater threads bump their block's counter with
/// quantum fetch-adds; reader threads sweep all counters with quantum
/// loads to form an approximate partial sum. Counters are padded to
/// one cache line each (as real split-counter implementations do, to
/// avoid false sharing).
#[derive(Debug, Clone)]
pub struct SplitCounter {
    /// Thread blocks (one split counter each; paper: 112).
    pub blocks: usize,
    /// Threads per block (thread 0 reads, the rest update).
    pub tpb: usize,
    /// Increments per updater.
    pub increments: usize,
    /// Read sweeps per reader.
    pub sweeps: usize,
    lowered: GridKernel,
}

impl SplitCounter {
    /// Build the kernel: the `split_counter` template at grid scale
    /// (blocks × tpb threads, counter `c{b}` and reader output `out{b}`
    /// each padded to a cache line) — one reader body and one updater
    /// body, indexed by the block id.
    pub fn new(blocks: usize, tpb: usize, increments: usize, sweeps: usize) -> SplitCounter {
        let shape = split_counter::Shape {
            counters: (0..blocks).map(|b| Place::at("c", b)).collect(),
            increments,
            sweeps,
            think_between_sweeps: 8,
            update_class: OpClass::Quantum,
            read_class: OpClass::Quantum,
        };
        // Block `b`'s counter `c{b}` and reader output `out{b}`.
        let own = GridValue::affine(0, 1, 0);
        let reader = Body::build(|t| split_counter::reader(t, &shape, Some(Place::at("out", own))));
        let updater = Body::build(|t| split_counter::updater(t, &shape, Place::at("c", own)));
        let mut grid = Grid::new("SC", tpb);
        let (reader, updater) = (grid.add_body(reader), grid.add_body(updater));
        for _ in 0..blocks {
            grid.push(reader, &[]);
            for _ in 1..tpb {
                grid.push(updater, &[]);
            }
        }
        // line-padded counters | line-padded reader outputs
        let layout = Layout::new().array("c", 0, 16).array("out", 16 * blocks as u64, 16);
        let lowered = GridKernel::new(grid, layout, 16 * (blocks + blocks), 0);
        SplitCounter { blocks, tpb, increments, sweeps, lowered }
    }

    /// The grid program and its lowering.
    pub fn lowered(&self) -> &GridKernel {
        &self.lowered
    }
}

impl Default for SplitCounter {
    fn default() -> Self {
        SplitCounter::new(14, 12, 256, 2)
    }
}

impl Kernel for SplitCounter {
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
        // Exact final counters (quantum relaxes ordering, not atomicity).
        let expect = ((self.tpb - 1) * self.increments) as Value;
        for b in 0..self.blocks {
            if mem[16 * b] != expect {
                return Err(format!("counter {b}: expected {expect}, got {}", mem[16 * b]));
            }
        }
        // Reader sums are approximate but bounded by the true total.
        let total = expect * self.blocks as Value;
        for b in 0..self.blocks {
            let s = mem[16 * (self.blocks + b)];
            if s > total {
                return Err(format!("reader {b} sum {s} exceeds true total {total}"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// RefCounter (RC): quantum inc/dec over a pool of objects.
// ---------------------------------------------------------------------

/// Reference counter: every thread walks a pool of shared objects,
/// incrementing each object's refcount (quantum), doing some work, then
/// decrementing (quantum, result observed); whoever sees the count drop
/// to zero marks the object with a commutative store.
#[derive(Debug, Clone)]
pub struct RefCounter {
    /// Thread blocks (paper: 64).
    pub blocks: usize,
    /// Threads per block.
    pub tpb: usize,
    /// Shared objects.
    pub objects: usize,
    /// Objects visited per thread.
    pub visits: usize,
    lowered: GridKernel,
}

impl RefCounter {
    /// Build the kernel: `visits` unrolled `ref_counter::visit`s per
    /// thread, each touching a pair of neighbouring objects (Listing
    /// 5's refcount1/refcount2) before advancing one object. One body
    /// serves every thread; its walk is the thread's table row.
    pub fn new(blocks: usize, tpb: usize, objects: usize, visits: usize) -> RefCounter {
        let shape = ref_counter::Shape {
            count_class: OpClass::Quantum,
            mark_class: OpClass::Commutative,
            think: 4,
        };
        // Visit `v` touches the objects in table columns `2v` and `2v + 1`.
        let obj = |col: usize| ref_counter::Obj {
            count: Place::at("c", GridValue::Column(col)),
            mark: Place::at("m", GridValue::Column(col)),
            mark_value: 1,
        };
        let body = Body::build(|t| {
            for v in 0..visits {
                ref_counter::visit(t, &shape, &[obj(2 * v), obj(2 * v + 1)]);
            }
        });
        let mut grid = Grid::new("RC", tpb);
        let id = grid.add_body(body);
        // Each block mostly works a contiguous slice of the object pool
        // (objects belong to a worker's arena); slices of neighbouring
        // blocks overlap so cross-CU sharing still occurs.
        let per_block = (objects / blocks).max(1);
        let mut row: Vec<LitmusValue> = Vec::with_capacity(2 * visits);
        for block in 0..blocks {
            for thread in 0..tpb {
                let gid = block * tpb + thread;
                let mut obj = (block * per_block + gid % (per_block + 1)) % objects;
                row.clear();
                for _ in 0..visits {
                    row.extend([obj as LitmusValue, ((obj + 1) % objects) as LitmusValue]);
                    obj = (obj + 1) % objects;
                }
                grid.push(id, &row);
            }
        }
        // Each object is line-padded: refcount in the first word, the
        // deletion mark in the second.
        let layout = Layout::new().array("c", 0, 16).array("m", 1, 16);
        let lowered = GridKernel::new(grid, layout, 16 * objects, 0);
        RefCounter { blocks, tpb, objects, visits, lowered }
    }

    /// The grid program and its lowering.
    pub fn lowered(&self) -> &GridKernel {
        &self.lowered
    }
}

impl Default for RefCounter {
    fn default() -> Self {
        RefCounter::new(15, 16, 60, 16)
    }
}

impl Kernel for RefCounter {
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
        // All references dropped: every count is zero again.
        for o in 0..self.objects {
            if mem[16 * o] != 0 {
                return Err(format!("object {o}: refcount {} != 0", mem[16 * o]));
            }
        }
        // Marks are 0 or 1.
        for o in 0..self.objects {
            let m = mem[16 * o + 1];
            if m > 1 {
                return Err(format!("object {o}: mark {m} invalid"));
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

    #[test]
    fn split_counter_valid_on_every_config() {
        let k = SplitCounter::new(4, 4, 8, 2);
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn ref_counter_valid_on_every_config() {
        let k = RefCounter::new(4, 4, 8, 6);
        let params = SysParams::integrated();
        for cfg in SystemConfig::all() {
            let r = run_workload(&k, cfg, &params);
            k.validate(&r.memory).unwrap_or_else(|e| panic!("{cfg}: {e}"));
        }
    }

    #[test]
    fn relaxed_model_overlaps_quantum_increments() {
        let k = SplitCounter::default();
        let params = SysParams::integrated();
        let d0 = run_workload(&k, SystemConfig::from_abbrev("DD0").unwrap(), &params);
        let dr = run_workload(&k, SystemConfig::from_abbrev("DDR").unwrap(), &params);
        assert!(dr.atomics_overlapped > 0);
        assert!(dr.cycles < d0.cycles, "DDR {} !< DD0 {}", dr.cycles, d0.cycles);
    }
}
