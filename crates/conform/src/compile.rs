//! The litmus→kernel compiler — a thin wrapper over
//! [`drfrlx_bridge::ProgramKernel`]'s litmus lowering.
//!
//! Lowers a [`drfrlx_core::program::Program`] into the `hsim-gpu`
//! work-item IR so the cycle simulator can execute it: one
//! single-thread block per litmus thread (blocks land on distinct CUs
//! round-robin, so litmus threads really do run on different cores),
//! every memory instruction carried over with its
//! [`drfrlx_core::OpClass`] annotation — the engine maps classes
//! through the active [`hsim_gpu::ConsistencyPolicy`] exactly as for
//! hand-written workloads — and local computation (assignments, branch
//! markers, structured `if`s) compiled to micro-ops that run inside the
//! work item. The actual lowering lives in `drfrlx-bridge`, shared with
//! the micro workloads' grid kernels; this module only pins the
//! litmus-specific layout contract used by outcome normalization.
//! Programs the litmus lowering cannot place (a scratch address that
//! is not a small constant) are rejected with a
//! [`drfrlx_bridge::LowerError`] by [`try_compile`].
//!
//! ## Memory layout and observation
//!
//! The kernel's memory image is `[locations][register dumps]`:
//! word `l` holds litmus location `Loc(l)` (initialized from the
//! program's `init` block), and after its body each thread appends
//! plain data stores dumping every register it could have written into
//! its private observation window at [`CompiledLitmus::obs_base`]. The
//! final memory image therefore encodes the complete litmus outcome —
//! final memory *and* final register files — which
//! [`crate::outcome::Outcome`] normalizes for comparison against the
//! axiomatic oracle.
//!
//! ## Value domains
//!
//! Litmus values are `i64`, the simulator's are `u64`; all lowering is
//! bit-pattern faithful (`as` casts) and every RMW — including
//! `FetchMin`/`FetchMax`, which both sides order as *signed* values —
//! computes the same bit pattern in both domains, so checker and
//! simulator agree on every program the fuzzer can generate.

use drfrlx_bridge::{LowerError, ProgramKernel};
use drfrlx_core::program::Program;
use hsim_gpu::{Kernel, WorkItem};

/// Shape information shared by the kernel and outcome normalization.
#[derive(Debug, Clone)]
pub struct CompiledLitmus {
    /// The source program (kept for the oracle and normalization).
    pub program: Program,
    /// Registers each thread can write (dense `0..reg_count`).
    pub reg_counts: Vec<usize>,
    /// First observation word of each thread's register dump.
    pub obs_base: Vec<usize>,
    /// Total memory words: locations + all register dumps.
    pub memory_words: usize,
    /// The shared lowering that actually runs on the simulator.
    kernel: ProgramKernel,
}

/// Compile `p` into a simulator kernel plus its layout.
///
/// # Errors
///
/// Fails when the litmus lowering rejects the program: no threads, or
/// a scratch address that is not a small non-negative constant (see
/// [`ProgramKernel::litmus`]).
pub fn try_compile(p: &Program) -> Result<CompiledLitmus, LowerError> {
    let kernel = ProgramKernel::litmus(p)?;
    Ok(CompiledLitmus {
        program: p.clone(),
        reg_counts: kernel.reg_counts(),
        obs_base: kernel.obs_bases(),
        memory_words: kernel.memory_words(),
        kernel,
    })
}

/// [`try_compile`] for programs known to lower (the corpora, generated
/// fuzz programs).
///
/// # Panics
///
/// Panics with the [`LowerError`] if the program cannot be lowered.
pub fn compile(p: &Program) -> CompiledLitmus {
    try_compile(p).unwrap_or_else(|e| panic!("{e}"))
}

impl Kernel for CompiledLitmus {
    fn name(&self) -> String {
        self.kernel.name()
    }

    fn blocks(&self) -> usize {
        self.kernel.blocks()
    }

    fn threads_per_block(&self) -> usize {
        self.kernel.threads_per_block()
    }

    fn memory_words(&self) -> usize {
        self.kernel.memory_words()
    }

    fn scratch_words(&self) -> usize {
        self.kernel.scratch_words()
    }

    fn init_memory(&self, mem: &mut [u64]) {
        self.kernel.init_memory(mem);
    }

    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        self.kernel.item(block, thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::program::RmwOp;
    use drfrlx_core::OpClass;
    use hsim_gpu::{run_kernel, EngineParams, MemoryBackend};

    /// Zero-latency functional backend for compiler-only tests.
    struct Instant;
    impl MemoryBackend for Instant {
        fn load(&mut self, now: u64, _cu: usize, _a: u64, _at: bool) -> u64 {
            now + 1
        }
        fn store(&mut self, now: u64, _cu: usize, _a: u64, _at: bool) -> u64 {
            now + 1
        }
        fn rmw(&mut self, now: u64, _cu: usize, _a: u64) -> u64 {
            now + 1
        }
        fn acquire(&mut self, now: u64, _cu: usize) -> u64 {
            now
        }
        fn release(&mut self, now: u64, _cu: usize) -> u64 {
            now
        }
    }

    fn run(p: &Program) -> Vec<u64> {
        let k = compile(p);
        let mut b = Instant;
        run_kernel(&k, &EngineParams::default(), &mut b).memory
    }

    #[test]
    fn compiles_stores_loads_and_rmws() {
        let mut p = Program::new("t");
        {
            let mut t = p.thread();
            t.store(OpClass::Data, "x", 5);
            let r = t.rmw(OpClass::Commutative, "x", RmwOp::FetchAdd, 2);
            t.observe(r);
        }
        let p = p.build();
        let c = compile(&p);
        assert_eq!(c.reg_counts, vec![1]);
        assert_eq!(c.obs_base, vec![1]);
        let mem = run(&p);
        assert_eq!(mem[0], 7, "x = 5 then fadd 2");
        assert_eq!(mem[1], 5, "RMW returned the old value");
    }

    #[test]
    fn init_values_and_cas_lower_correctly() {
        let mut p = Program::new("t");
        p.set_init("c", 7);
        {
            let mut t = p.thread();
            let r = t.cas(OpClass::Unpaired, "c", 7, 9);
            t.observe(r);
        }
        let p = p.build();
        let mem = run(&p);
        assert_eq!(mem[0], 9, "CAS(expected 7, new 9) on 7 succeeds");
        assert_eq!(mem[1], 7, "old value observed");
    }

    #[test]
    fn structured_ifs_interpret_inside_the_item() {
        let src = "litmus t\ninit { f = 1 }\nthread a {\n  r = load.paired f;\n  if r { store.data x 4; }\n  ifz r { store.data y 5; }\n}";
        let p = drfrlx_core::parse::parse(src).unwrap();
        let mem = run(&p);
        let f = p.find_loc("f").unwrap().0 as usize;
        let x = p.find_loc("x").unwrap().0 as usize;
        let y = p.find_loc("y").unwrap().0 as usize;
        assert_eq!(mem[f], 1);
        assert_eq!(mem[x], 4, "if-branch taken");
        assert_eq!(mem[y], 0, "ifz-branch skipped");
    }

    #[test]
    fn negative_values_round_trip_through_u64() {
        let mut p = Program::new("t");
        p.set_init("x", -3);
        {
            let mut t = p.thread();
            let r = t.rmw(OpClass::Commutative, "x", RmwOp::FetchAdd, 1);
            t.observe(r);
        }
        let p = p.build();
        let mem = run(&p);
        assert_eq!(mem[0] as i64, -2);
        assert_eq!(mem[1] as i64, -3, "old value bit-pattern faithful");
    }

    #[test]
    fn signed_min_max_agree_with_the_checker() {
        // -5 < 3 signed but not unsigned: fmin must keep -5, fmax must
        // take 3 over -5 — the checker's RmwOp::apply semantics.
        let mut p = Program::new("t");
        p.set_init("a", -5);
        p.set_init("b", -5);
        {
            let mut t = p.thread();
            let r1 = t.rmw(OpClass::Commutative, "a", RmwOp::FetchMin, 3);
            let r2 = t.rmw(OpClass::Commutative, "b", RmwOp::FetchMax, 3);
            t.observe(r1);
            t.observe(r2);
        }
        let p = p.build();
        let mem = run(&p);
        assert_eq!(mem[0] as i64, -5, "min(-5, 3) is -5 signed");
        assert_eq!(mem[1] as i64, 3, "max(-5, 3) is 3 signed");
    }
}
