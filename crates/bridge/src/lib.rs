//! # drfrlx-bridge — the single-source program pipeline
//!
//! One IR, every consumer: a [`drfrlx_core::program::Program`] written
//! once can be checked axiomatically, enumerated by the streaming SC
//! checker, parsed/emitted as litmus text, *and* — through this crate —
//! executed on the `hsim-gpu` cycle simulator. A `Program` is laid out
//! block-major over a `blocks × threads_per_block` grid, with an
//! explicit location→address map so kernels can pad locations to cache
//! lines, and the full instruction set is supported, including the
//! block-level constructs ([`Instr::Think`], [`Instr::Barrier`],
//! [`Instr::ScratchLoad`], [`Instr::ScratchStore`]).
//!
//! Two lowering modes:
//!
//! * [`ProgramKernel::litmus`] — the conformance-harness shape: one
//!   single-thread block per program thread, word `l` holds `Loc(l)`,
//!   every thread dumps its register file into a private observation
//!   window after its body, and every RMW consumes its result
//!   (`use_result: true`) so outcomes are deterministic functions of
//!   the interleaving alone.
//! * [`ProgramKernel::grid`] — the workload shape: threads block-major
//!   over the grid, a caller-supplied name→address layout, no
//!   observation dumps, and `use_result` computed by register liveness
//!   (an RMW whose destination is never read issues fire-and-forget,
//!   exactly like hand-written work items pass `use_result: false`).
//!
//! ## Compiled form
//!
//! Both modes compile each distinct thread body once into a
//! [`ThreadCode`]: a flat array of `Copy` micro-ops with every location
//! already resolved to its word address. An operand is a register, an
//! `i32` immediate, or a slice of the thread's postfix expression pool
//! (compound expressions and wider constants). Marker instructions
//! (`BranchOn`, `Observe`) have no dynamic effect and compile to
//! nothing; `JumpIfZero` skip counts become absolute micro-op targets.
//! A [`ProgramItem`] runs one compiled thread over a zero-initialized
//! `i64` register file — a register never written reads as 0, exactly
//! as in the axiomatic enumerator.
//!
//! ## Value domains
//!
//! Litmus values are `i64`, the simulator's are `u64`; all lowering is
//! bit-pattern faithful (`as` casts). Every RMW — including
//! `FetchMin`/`FetchMax`, which both sides order as *signed* two's
//! complement — computes the same bit pattern in both domains, so a
//! compiled program and its axiomatic oracle can never diverge on
//! arithmetic alone.
//!
//! The [`templates`] module holds the shared program templates that
//! both the litmus corpus (scaled down) and the micro workloads
//! (scaled up) instantiate, so the two never hand-duplicate logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod templates;

use drfrlx_core::program::{BinOp, Expr, Instr, Loc, Program, Reg, RmwOp, Thread};
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Op, RmwKind, WorkItem};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Largest scratchpad the litmus lowering sizes from a program's
/// constant scratch addresses.
const MAX_LITMUS_SCRATCH_WORDS: usize = 1 << 16;

/// Why a program cannot be lowered onto the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// Name of the program.
    pub program: String,
    /// What about it cannot be lowered.
    pub reason: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot lower program `{}` onto the simulator: {}", self.program, self.reason)
    }
}

impl std::error::Error for LowerError {}

/// Where a micro-op reads one value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operand {
    /// A register.
    Reg(u16),
    /// A constant that fits in an `i32`.
    Imm(i32),
    /// The postfix expression `pool[start..end]`.
    Pooled { start: u32, end: u32 },
}

/// One step of a postfix expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Const(i64),
    Reg(u16),
    /// Pop `b`, pop `a`, push `a op b`.
    Bin(BinOp),
}

/// One compiled instruction. Local ones (`Set`, `JumpIfZero`) run
/// inside [`ProgramItem::next`]; the rest each yield one simulator
/// [`Op`]. A `dst` receives the value the engine delivers as `last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum MicroOp {
    Set {
        dst: u16,
        val: Operand,
    },
    /// Continue at micro-op `target` when `cond` is zero.
    JumpIfZero {
        cond: Operand,
        target: u32,
    },
    Think(u32),
    Barrier,
    Load {
        addr: u64,
        class: OpClass,
        dst: u16,
    },
    Store {
        addr: u64,
        class: OpClass,
        val: Operand,
    },
    /// `dst` is `None` when the result is dead (`use_result: false`).
    Rmw {
        addr: u64,
        class: OpClass,
        op: RmwOp,
        operand: Operand,
        expected: Operand,
        dst: Option<u16>,
    },
    ScratchLoad {
        addr: Operand,
        dst: u16,
    },
    ScratchStore {
        addr: Operand,
        val: Operand,
    },
}

/// One program thread compiled for the simulator: flat micro-ops with
/// resolved addresses, the thread's postfix expression pool, and its
/// register-file shape. Built once per distinct thread body and shared
/// by every work item that runs it.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct ThreadCode {
    ops: Vec<MicroOp>,
    pool: Vec<Node>,
    /// Deepest evaluation stack any pooled expression needs.
    max_depth: usize,
    /// Dense register-file size (`0..reg_count`).
    reg_count: usize,
    /// Register-dump window base, when this thread observes its
    /// registers into memory after the body (litmus mode).
    obs_base: Option<u64>,
}

impl ThreadCode {
    /// Compile `t` with location `l` at word `addrs[l]`. With
    /// `all_results_used` every RMW consumes its result; otherwise only
    /// those whose destination a later instruction reads.
    fn compile(
        t: &Thread,
        addrs: &[u64],
        obs_base: Option<u64>,
        all_results_used: bool,
    ) -> ThreadCode {
        let instrs = &t.instrs;
        // `first_op[i]`: index of the micro-op instruction `i` compiles
        // to (or of the next one, for markers); `first_op[len]` = end.
        let mut first_op = Vec::with_capacity(instrs.len() + 1);
        let mut n = 0u32;
        for i in instrs {
            first_op.push(n);
            n += u32::from(!matches!(i, Instr::BranchOn { .. } | Instr::Observe { .. }));
        }
        first_op.push(n);
        let reg_count = thread_reg_count(t);
        let live = if all_results_used { Vec::new() } else { rmw_results_used(t, reg_count) };

        let mut code = ThreadCode {
            ops: Vec::with_capacity(n as usize),
            pool: Vec::new(),
            max_depth: 0,
            reg_count,
            obs_base,
        };
        for (pc, instr) in instrs.iter().enumerate() {
            let addr = |loc: &Loc| addrs[loc.0 as usize];
            let op = match instr {
                Instr::BranchOn { .. } | Instr::Observe { .. } => continue,
                Instr::Assign { dst, expr } => MicroOp::Set { dst: dst.0, val: code.operand(expr) },
                Instr::JumpIfZero { cond, skip } => {
                    let to = pc.saturating_add(1).saturating_add(*skip).min(instrs.len());
                    MicroOp::JumpIfZero { cond: code.operand(cond), target: first_op[to] }
                }
                Instr::Think { cycles } => MicroOp::Think(*cycles),
                Instr::Barrier => MicroOp::Barrier,
                Instr::Load { class, loc, dst } => {
                    MicroOp::Load { addr: addr(loc), class: *class, dst: dst.0 }
                }
                Instr::Store { class, loc, val } => {
                    MicroOp::Store { addr: addr(loc), class: *class, val: code.operand(val) }
                }
                Instr::Rmw { class, loc, op, operand, operand2, dst } => MicroOp::Rmw {
                    addr: addr(loc),
                    class: *class,
                    op: *op,
                    operand: code.operand(operand),
                    expected: code.operand(operand2),
                    dst: (all_results_used || live[pc]).then_some(dst.0),
                },
                Instr::ScratchLoad { addr, dst } => {
                    MicroOp::ScratchLoad { addr: code.operand(addr), dst: dst.0 }
                }
                Instr::ScratchStore { addr, val } => {
                    MicroOp::ScratchStore { addr: code.operand(addr), val: code.operand(val) }
                }
            };
            code.ops.push(op);
        }
        code
    }

    /// Compile an expression operand, pooling it unless it is a bare
    /// register or an `i32`-sized constant.
    fn operand(&mut self, e: &Expr) -> Operand {
        match e {
            Expr::Reg(r) => return Operand::Reg(r.0),
            Expr::Const(c) => {
                if let Ok(v) = i32::try_from(*c) {
                    return Operand::Imm(v);
                }
            }
            Expr::Bin(..) => {}
        }
        let start = self.pool.len() as u32;
        let depth = self.push_postfix(e);
        self.max_depth = self.max_depth.max(depth);
        Operand::Pooled { start, end: self.pool.len() as u32 }
    }

    /// Append `e` to the pool in postfix order; returns the stack depth
    /// its evaluation needs.
    fn push_postfix(&mut self, e: &Expr) -> usize {
        match e {
            Expr::Const(c) => {
                self.pool.push(Node::Const(*c));
                1
            }
            Expr::Reg(r) => {
                self.pool.push(Node::Reg(r.0));
                1
            }
            Expr::Bin(op, a, b) => {
                let da = self.push_postfix(a);
                let db = self.push_postfix(b);
                self.pool.push(Node::Bin(*op));
                da.max(db + 1)
            }
        }
    }
}

/// A [`Program`] lowered onto the simulator grid.
///
/// Implements [`Kernel`]; thread `block * threads_per_block + thread`
/// of the grid runs the [`ThreadCode`] of the program thread the
/// lowering placed there, interpreted by [`ProgramItem`].
#[derive(Debug, Clone)]
pub struct ProgramKernel {
    name: String,
    blocks: usize,
    threads_per_block: usize,
    memory_words: usize,
    scratch_words: usize,
    /// Sparse non-zero initial memory (address, value).
    init: Vec<(u64, u64)>,
    /// Block-major: `cells[block * tpb + thread]`.
    cells: Vec<Arc<ThreadCode>>,
}

impl ProgramKernel {
    /// Lower `p` in the conformance-harness shape: one single-thread
    /// block per program thread, identity location addressing, a
    /// per-thread register-dump window after `num_locs`, RMW results
    /// always consumed.
    ///
    /// A program that uses the block-local facilities —
    /// [`Instr::Barrier`] or the scratch instructions — is placed in
    /// **one block** instead, because the axiomatic enumerator
    /// rendezvouses *all* program threads at a barrier and shares one
    /// scratch space between them; a single block is the grid shape
    /// with the same semantics (the engine's barrier and scratchpad
    /// are per block). Scratch is sized from the largest constant
    /// scratch address in the program.
    ///
    /// # Errors
    ///
    /// Fails if the program has no threads (nothing to simulate), or
    /// if it addresses scratch through anything but a constant in
    /// `0..65536` (the litmus lowering has no geometry to size the
    /// scratchpad from; use
    /// [`ProgramKernel::grid`] with an explicit `scratch_words`).
    pub fn litmus(p: &Program) -> Result<ProgramKernel, LowerError> {
        if p.threads().is_empty() {
            return Err(LowerError { program: p.name().to_string(), reason: "no threads".into() });
        }
        let scratch_words = litmus_scratch_words(p)?;
        let one_block = scratch_words.is_some()
            || p.threads().iter().any(|t| t.instrs.contains(&Instr::Barrier));
        let addrs: Vec<u64> = (0..p.num_locs() as u64).collect();
        let mut next = p.num_locs() as u64;
        let mut cells = Vec::with_capacity(p.threads().len());
        for t in p.threads() {
            let code = ThreadCode::compile(t, &addrs, Some(next), true);
            next += code.reg_count as u64;
            cells.push(Arc::new(code));
        }
        let init = (0..p.num_locs() as u32)
            .map(Loc)
            .filter(|&l| p.init_value(l) != 0)
            .map(|l| (l.0 as u64, p.init_value(l) as u64))
            .collect();
        let (blocks, threads_per_block) =
            if one_block { (1, p.threads().len()) } else { (p.threads().len(), 1) };
        Ok(ProgramKernel {
            name: format!("conform_{}", p.name()),
            blocks,
            threads_per_block,
            memory_words: (next as usize).max(1),
            scratch_words: scratch_words.unwrap_or(0),
            init,
            cells,
        })
    }

    /// Lower `p` in the workload shape: program thread `i` becomes grid
    /// thread `(i / tpb, i % tpb)`, locations are placed by `addr_of`
    /// (e.g. padded to cache lines), there are no observation dumps,
    /// and each RMW's `use_result` comes from register liveness.
    ///
    /// # Panics
    ///
    /// Panics if the thread count is not `blocks * tpb` for some
    /// `blocks`, or if a location's address falls outside
    /// `memory_words`.
    pub fn grid(
        p: &Program,
        tpb: usize,
        memory_words: usize,
        scratch_words: usize,
        addr_of: impl Fn(&str) -> u64,
    ) -> ProgramKernel {
        let layout: Vec<usize> = (0..p.threads().len()).collect();
        ProgramKernel::grid_with_layout(p, &layout, tpb, memory_words, scratch_words, addr_of)
    }

    /// Like [`ProgramKernel::grid`], but with an explicit replication
    /// layout: grid thread `i` runs program thread `layout[i]`. Grids
    /// that stamp out hundreds of identical bodies (every flags worker,
    /// every seqlock reader) build the program with one thread per
    /// *distinct* body and replicate it here, so the unrolled
    /// instruction stream is compiled exactly once.
    ///
    /// # Panics
    ///
    /// Panics if `layout` is empty or not a multiple of `tpb`, if an
    /// entry indexes past the program's threads, or if a location's
    /// address falls outside `memory_words`.
    pub fn grid_with_layout(
        p: &Program,
        layout: &[usize],
        tpb: usize,
        memory_words: usize,
        scratch_words: usize,
        addr_of: impl Fn(&str) -> u64,
    ) -> ProgramKernel {
        let n = layout.len();
        assert!(n > 0, "cannot lower a program onto an empty grid");
        assert!(tpb > 0 && n.is_multiple_of(tpb), "grid size {n} is not a multiple of tpb {tpb}");
        let addrs: Vec<u64> = (0..p.num_locs() as u32)
            .map(|l| {
                let a = addr_of(p.loc_name(Loc(l)));
                assert!(
                    (a as usize) < memory_words,
                    "location {} at address {a} outside memory ({memory_words} words)",
                    p.loc_name(Loc(l))
                );
                a
            })
            .collect();
        // Share one compiled body between equal threads, even when the
        // program itself repeats bodies.
        let mut distinct: HashSet<Arc<ThreadCode>> = HashSet::new();
        let codes: Vec<Arc<ThreadCode>> = p
            .threads()
            .iter()
            .map(|t| {
                let code = ThreadCode::compile(t, &addrs, None, false);
                if let Some(c) = distinct.get(&code) {
                    return Arc::clone(c);
                }
                let code = Arc::new(code);
                distinct.insert(Arc::clone(&code));
                code
            })
            .collect();
        let cells = layout
            .iter()
            .map(|&i| {
                assert!(i < codes.len(), "layout entry {i} has no program thread");
                Arc::clone(&codes[i])
            })
            .collect();
        let init = (0..p.num_locs() as u32)
            .map(Loc)
            .filter(|&l| p.init_value(l) != 0)
            .map(|l| (addrs[l.0 as usize], p.init_value(l) as u64))
            .collect();
        ProgramKernel {
            name: p.name().to_string(),
            blocks: n / tpb,
            threads_per_block: tpb,
            memory_words,
            scratch_words,
            init,
            cells,
        }
    }

    /// Per-thread dense register-file sizes.
    pub fn reg_counts(&self) -> Vec<usize> {
        self.cells.iter().map(|c| c.reg_count).collect()
    }

    /// Per-thread observation-window bases (litmus mode only).
    pub fn obs_bases(&self) -> Vec<usize> {
        self.cells.iter().filter_map(|c| c.obs_base.map(|b| b as usize)).collect()
    }

    /// Total memory words.
    pub fn memory_words(&self) -> usize {
        self.memory_words
    }

    /// Override the kernel's reported name.
    pub fn named(mut self, name: impl Into<String>) -> ProgramKernel {
        self.name = name.into();
        self
    }
}

impl Kernel for ProgramKernel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn blocks(&self) -> usize {
        self.blocks
    }

    fn threads_per_block(&self) -> usize {
        self.threads_per_block
    }

    fn memory_words(&self) -> usize {
        self.memory_words
    }

    fn scratch_words(&self) -> usize {
        self.scratch_words
    }

    fn init_memory(&self, mem: &mut [u64]) {
        for &(a, v) in &self.init {
            mem[a as usize] = v;
        }
    }

    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        Box::new(ProgramItem::new(Arc::clone(&self.cells[block * self.threads_per_block + thread])))
    }
}

/// A work item running one compiled program thread.
///
/// Local micro-ops (register assignments, conditional jumps) run
/// inline; memory, scratch, think and barrier micro-ops are yielded as
/// simulator [`Op`]s. A value delivered back through `last` lands in
/// the register recorded in `pending` — the same protocol for global
/// loads, scratch loads and result-consuming RMWs.
pub struct ProgramItem {
    code: Arc<ThreadCode>,
    /// Dense register file; never-written registers read as 0.
    regs: Vec<i64>,
    /// Evaluation stack for pooled expressions.
    stack: Vec<i64>,
    pc: usize,
    /// Register awaiting the value delivered as `last`.
    pending: Option<u16>,
    /// Registers dumped so far in the observation phase.
    dumped: usize,
}

impl ProgramItem {
    /// A fresh item at the top of `code`.
    fn new(code: Arc<ThreadCode>) -> ProgramItem {
        let regs = vec![0; code.reg_count];
        let stack = Vec::with_capacity(code.max_depth);
        ProgramItem { code, regs, stack, pc: 0, pending: None, dumped: 0 }
    }
}

/// Evaluate `o` against `regs`, using `stack` for pooled expressions.
fn eval(o: Operand, regs: &[i64], pool: &[Node], stack: &mut Vec<i64>) -> i64 {
    match o {
        Operand::Reg(r) => regs[r as usize],
        Operand::Imm(v) => i64::from(v),
        Operand::Pooled { start, end } => {
            stack.clear();
            for &node in &pool[start as usize..end as usize] {
                let v = match node {
                    Node::Const(c) => c,
                    Node::Reg(r) => regs[r as usize],
                    Node::Bin(op) => {
                        let b = stack.pop().expect("postfix operand");
                        let a = stack.pop().expect("postfix operand");
                        op.apply(a, b)
                    }
                };
                stack.push(v);
            }
            stack.pop().expect("postfix result")
        }
    }
}

impl WorkItem for ProgramItem {
    fn next(&mut self, last: Option<u64>) -> Op {
        let ProgramItem { code, regs, stack, pc, pending, dumped } = self;
        if let Some(dst) = pending.take() {
            let v = last.expect("memory op with a destination returns a value");
            regs[dst as usize] = v as i64;
        }
        let pool = &code.pool;
        while let Some(&op) = code.ops.get(*pc) {
            *pc += 1;
            let mut value = |o| eval(o, regs, pool, stack);
            match op {
                MicroOp::Set { dst, val } => {
                    let v = value(val);
                    regs[dst as usize] = v;
                }
                MicroOp::JumpIfZero { cond, target } => {
                    if value(cond) == 0 {
                        *pc = target as usize;
                    }
                }
                MicroOp::Think(cycles) => return Op::Think(cycles),
                MicroOp::Barrier => return Op::Barrier,
                MicroOp::Load { addr, class, dst } => {
                    *pending = Some(dst);
                    return Op::Load { addr, class };
                }
                MicroOp::Store { addr, class, val } => {
                    return Op::Store { addr, value: value(val) as u64, class };
                }
                MicroOp::Rmw { addr, class, op, operand, expected, dst } => {
                    let (k, k2) = (value(operand), value(expected));
                    *pending = dst;
                    return Op::Rmw {
                        addr,
                        rmw: lower_rmw(op, k2),
                        operand: k as u64,
                        class,
                        use_result: dst.is_some(),
                    };
                }
                MicroOp::ScratchLoad { addr, dst } => {
                    let addr = value(addr) as u64;
                    *pending = Some(dst);
                    return Op::ScratchLoad { addr };
                }
                MicroOp::ScratchStore { addr, val } => {
                    return Op::ScratchStore { addr: value(addr) as u64, value: value(val) as u64 };
                }
            }
        }
        // Body done. In litmus mode, dump the register file into the
        // observation window, then retire. Plain data stores to
        // thread-private words — racing with nothing, invisible to
        // other threads.
        if let Some(base) = code.obs_base {
            if let Some(&v) = regs.get(*dumped) {
                let r = *dumped;
                *dumped += 1;
                return Op::Store { addr: base + r as u64, value: v as u64, class: OpClass::Data };
            }
        }
        Op::Done
    }
}

/// Registers an instruction *reads* (register operands of expressions;
/// destinations are writes, not reads).
fn for_each_read(i: &Instr, f: &mut impl FnMut(Reg)) {
    match i {
        Instr::Load { .. } | Instr::Think { .. } | Instr::Barrier => {}
        Instr::Store { val, .. } => val.for_each_reg(f),
        Instr::Rmw { operand, operand2, .. } => {
            operand.for_each_reg(f);
            operand2.for_each_reg(f);
        }
        Instr::Assign { expr, .. } => expr.for_each_reg(f),
        Instr::BranchOn { cond } | Instr::JumpIfZero { cond, .. } => cond.for_each_reg(f),
        Instr::Observe { expr } => expr.for_each_reg(f),
        Instr::ScratchLoad { addr, .. } => addr.for_each_reg(f),
        Instr::ScratchStore { addr, val } => {
            addr.for_each_reg(f);
            val.for_each_reg(f);
        }
    }
}

/// The register an instruction writes, if any.
fn write_of(i: &Instr) -> Option<Reg> {
    match i {
        Instr::Load { dst, .. }
        | Instr::Rmw { dst, .. }
        | Instr::Assign { dst, .. }
        | Instr::ScratchLoad { dst, .. } => Some(*dst),
        Instr::Store { .. }
        | Instr::BranchOn { .. }
        | Instr::Observe { .. }
        | Instr::JumpIfZero { .. }
        | Instr::Think { .. }
        | Instr::Barrier
        | Instr::ScratchStore { .. } => None,
    }
}

/// Scratchpad size for the litmus lowering: one past the largest
/// constant scratch address, or `None` when the program never touches
/// scratch.
///
/// # Errors
///
/// Fails on a scratch address that is not a constant in
/// `0..MAX_LITMUS_SCRATCH_WORDS` — the litmus lowering has no geometry
/// to bound it with.
fn litmus_scratch_words(p: &Program) -> Result<Option<usize>, LowerError> {
    let mut words = None;
    for t in p.threads() {
        for i in &t.instrs {
            if let Instr::ScratchLoad { addr, .. } | Instr::ScratchStore { addr, .. } = i {
                let w = match addr {
                    Expr::Const(c) => usize::try_from(*c)
                        .ok()
                        .filter(|&c| c < MAX_LITMUS_SCRATCH_WORDS)
                        .map(|c| c + 1),
                    _ => None,
                };
                let w = w.ok_or_else(|| LowerError {
                    program: p.name().to_string(),
                    reason: format!(
                        "scratch address `{}` is not a constant in 0..{MAX_LITMUS_SCRATCH_WORDS}",
                        drfrlx_core::emit::expr(addr)
                    ),
                })?;
                words = Some(w.max(words.unwrap_or(0)));
            }
        }
    }
    Ok(words)
}

/// Highest register index a thread writes or reads, plus one.
pub fn thread_reg_count(t: &Thread) -> usize {
    let mut max: Option<u16> = None;
    let mut see = |r: Reg| max = Some(max.map_or(r.0, |m: u16| m.max(r.0)));
    for i in &t.instrs {
        for_each_read(i, &mut see);
        if let Some(r) = write_of(i) {
            see(r);
        }
    }
    max.map_or(0, |m| m as usize + 1)
}

/// Per-instruction liveness of RMW results: `true` at index `i` iff a
/// later instruction reads the RMW's destination register. With the
/// builder's fresh-register discipline this is exact; reusing a
/// destination register only ever errs towards `true` (consume the
/// result), never towards dropping a value someone needs. One backward
/// pass, tracking which registers some later instruction reads.
fn rmw_results_used(t: &Thread, reg_count: usize) -> Vec<bool> {
    let mut read_later = vec![false; reg_count];
    let mut used = vec![true; t.instrs.len()];
    for (i, instr) in t.instrs.iter().enumerate().rev() {
        if let Instr::Rmw { dst, .. } = instr {
            used[i] = read_later[dst.0 as usize];
        }
        for_each_read(instr, &mut |r| read_later[r.0 as usize] = true);
    }
    used
}

/// Map a litmus RMW to the simulator's (same modify function in both
/// value domains; min/max order signed on both sides).
pub fn lower_rmw(op: RmwOp, expected: i64) -> RmwKind {
    match op {
        RmwOp::FetchAdd => RmwKind::Add,
        RmwOp::FetchSub => RmwKind::Sub,
        RmwOp::FetchAnd => RmwKind::And,
        RmwOp::FetchOr => RmwKind::Or,
        RmwOp::FetchXor => RmwKind::Xor,
        RmwOp::FetchMin => RmwKind::Min,
        RmwOp::FetchMax => RmwKind::Max,
        RmwOp::Exchange => RmwKind::Exchange,
        RmwOp::Cas => RmwKind::Cas { expected: expected as u64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::program::RmwOp;
    use hsim_gpu::{run_kernel, EngineParams, MemoryBackend};

    /// Zero-latency functional backend for lowering-only tests.
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

    #[test]
    fn grid_lowering_places_locations_and_infers_use_result() {
        // Two threads in one block bump a padded counter; the second
        // thread also reads its own RMW result into a data store.
        let mut p = Program::new("grid");
        {
            let mut t = p.thread();
            t.rmw(OpClass::Commutative, "ctr", RmwOp::FetchAdd, 1);
        }
        {
            let mut t = p.thread();
            let old = t.rmw(OpClass::Commutative, "ctr", RmwOp::FetchAdd, 1);
            t.store(OpClass::Data, "out", old);
        }
        let p = p.build();
        let k = ProgramKernel::grid(&p, 2, 32, 0, |n| match n {
            "ctr" => 16,
            "out" => 17,
            _ => unreachable!(),
        });
        assert_eq!(k.blocks(), 1);
        assert_eq!(k.threads_per_block(), 2);
        // Thread 0's RMW result is dead, thread 1's is live.
        assert!(matches!(k.cells[0].ops[0], MicroOp::Rmw { dst: None, .. }));
        assert!(matches!(k.cells[1].ops[0], MicroOp::Rmw { dst: Some(0), .. }));
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[16], 2, "both increments landed at the padded address");
        assert!(r.memory[17] == 0 || r.memory[17] == 1, "old value stored");
    }

    #[test]
    fn block_constructs_lower_to_simulator_ops() {
        // Each of two threads publishes into scratch, meets at the
        // barrier, then thread 0 sums the scratch words into memory.
        let mut p = Program::new("scratch");
        {
            let mut t = p.thread();
            t.scratch_store(0, 7);
            t.think(3);
            t.barrier();
            let a = t.scratch_load(0);
            let b = t.scratch_load(1);
            t.store(
                OpClass::Data,
                "sum",
                drfrlx_core::program::Expr::bin(
                    drfrlx_core::program::BinOp::Add,
                    a.into(),
                    b.into(),
                ),
            );
        }
        {
            let mut t = p.thread();
            t.scratch_store(1, 5);
            t.barrier();
        }
        let p = p.build();
        let k = ProgramKernel::grid(&p, 2, 4, 2, |n| match n {
            "sum" => 0,
            _ => unreachable!(),
        });
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[0], 12, "barrier ordered the scratch publication");
        assert_eq!(r.scratch_accesses, 4);
        assert_eq!(r.barriers, 1);
    }

    #[test]
    fn litmus_lowering_of_block_constructs_uses_one_block() {
        // Same shape as `block_constructs_lower_to_simulator_ops`, but
        // through the litmus lowering: the barrier forces a single
        // block (the enumerator rendezvouses all program threads), and
        // scratch is sized from the largest constant address.
        let mut p = Program::new("scratch");
        {
            let mut t = p.thread();
            t.scratch_store(0, 7);
            t.think(3);
            t.barrier();
            let a = t.scratch_load(0);
            let b = t.scratch_load(1);
            t.store(
                OpClass::Data,
                "sum",
                drfrlx_core::program::Expr::bin(
                    drfrlx_core::program::BinOp::Add,
                    a.into(),
                    b.into(),
                ),
            );
        }
        {
            let mut t = p.thread();
            t.scratch_store(1, 5);
            t.barrier();
        }
        let p = p.build();
        let k = ProgramKernel::litmus(&p).unwrap();
        assert_eq!(k.blocks(), 1);
        assert_eq!(k.threads_per_block(), 2);
        assert_eq!(k.scratch_words(), 2);
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[0], 12, "barrier ordered the scratch publication");
        assert_eq!(r.barriers, 1);
    }

    #[test]
    fn litmus_lowering_dumps_registers() {
        let mut p = Program::new("t");
        {
            let mut t = p.thread();
            t.store(OpClass::Data, "x", 5);
            let r = t.rmw(OpClass::Commutative, "x", RmwOp::FetchAdd, 2);
            t.observe(r);
        }
        let p = p.build();
        let k = ProgramKernel::litmus(&p).unwrap();
        assert_eq!(k.reg_counts(), vec![1]);
        assert_eq!(k.obs_bases(), vec![1]);
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[0], 7, "x = 5 then fadd 2");
        assert_eq!(r.memory[1], 5, "RMW returned the old value");
    }

    #[test]
    fn compiled_operands_cover_registers_immediates_and_pooled_expressions() {
        let mut p = Program::new("ops");
        {
            let mut t = p.thread();
            let r = t.load(OpClass::Data, "x");
            t.store(OpClass::Data, "y", r);
            t.store(OpClass::Data, "y", 7);
            t.store(OpClass::Data, "y", 1 << 40);
            t.store(
                OpClass::Data,
                "y",
                drfrlx_core::program::Expr::bin(
                    drfrlx_core::program::BinOp::Add,
                    r.into(),
                    drfrlx_core::program::Expr::bin(
                        drfrlx_core::program::BinOp::Sub,
                        3.into(),
                        r.into(),
                    ),
                ),
            );
        }
        let p = p.build();
        let k = ProgramKernel::litmus(&p).unwrap();
        let code = &k.cells[0];
        let vals: Vec<Operand> = code
            .ops
            .iter()
            .filter_map(|op| match op {
                MicroOp::Store { val, .. } => Some(*val),
                _ => None,
            })
            .collect();
        assert_eq!(vals[0], Operand::Reg(0));
        assert_eq!(vals[1], Operand::Imm(7));
        assert_eq!(vals[2], Operand::Pooled { start: 0, end: 1 }, "wide constants are pooled");
        assert_eq!(vals[3], Operand::Pooled { start: 1, end: 6 });
        assert_eq!(code.max_depth, 3, "r, then 3 and r of the nested subtraction");
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[1], 3, "x = 0: 0 + (3 - 0)");
    }

    #[test]
    fn litmus_lowering_rejects_unbounded_scratch_addresses() {
        let src = "litmus bad\nthread t0 { r0 = load.data x; sstore r0 1; barrier; }\n\
                   thread t1 { barrier; r1 = sload 0; observe r1; }";
        let p = drfrlx_core::parse::parse(src).unwrap();
        let e = ProgramKernel::litmus(&p).unwrap_err();
        assert_eq!(e.program, "bad");
        assert!(e.to_string().contains("scratch address `r0`"), "{e}");
        let p = drfrlx_core::parse::parse("litmus neg\nthread t0 { sstore (-1) 1; }").unwrap();
        let e = ProgramKernel::litmus(&p).unwrap_err();
        assert!(e.to_string().contains("scratch address `-1`"), "{e}");
        assert!(ProgramKernel::litmus(&Program::new("empty")).is_err());
    }
}
