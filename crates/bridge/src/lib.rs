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
//! * [`ProgramKernel::grid`] — the workload shape: a [`Grid`] of
//!   thread-parametric bodies, threads block-major, a [`Layout`]
//!   placing each location family at `base + stride * index`, no
//!   observation dumps, and `use_result` computed by register liveness
//!   (an RMW whose destination is never read issues fire-and-forget,
//!   exactly like hand-written work items pass `use_result: false`).
//!   Any flat program lowers this way too, one body per thread
//!   ([`Grid::from_program`]).
//!
//! ## Compiled form
//!
//! Both modes compile each body once into a [`ThreadCode`]: a flat
//! array of `Copy` micro-ops (at most 40 bytes each). An operand is a
//! register, an `i32` immediate, or a slice of the body's postfix
//! expression pool (compound expressions and wider constants). Marker
//! instructions (`BranchOn`, `Observe`) have no dynamic effect and
//! compile to nothing; `JumpIfZero` skip counts become absolute
//! micro-op targets. A memory address is resolved to its word at
//! compile time when it is the same for every grid thread; otherwise
//! it — like a varying scratch address — names one of the body's *grid
//! values*: affine in the block and thread ids, or a column of the
//! thread's table row, with its location family's base and stride
//! folded in. An item records its ids and where its table row starts
//! when [`ProgramKernel`] creates it, and evaluates a grid value (one
//! multiply-add, or one table read) when a micro-op uses it. One
//! compiled body therefore serves every grid thread, and no name is
//! looked at after the build.
//!
//! A [`ProgramItem`] runs one compiled body over an `i64` register
//! file that grows to the highest register written — a register never
//! written reads as 0, exactly as in the axiomatic enumerator. Per run,
//! a grid thread pays one small allocation, then one micro-op step per
//! executed instruction; the micro-ops it streams through are shared
//! with every other thread of its body, so a 480-thread histogram
//! walks one ~40 KB body instead of 480 distinct ones (~20 MB).
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

use drfrlx_core::program::{
    BinOp, Body, Expr, Grid, GridValue, Instr, Loc, Place, Program, Reg, RmwOp, Thread, Value,
};
use drfrlx_core::OpClass;
use hsim_gpu::{Kernel, Op, RmwKind, WorkItem};
use std::collections::{BTreeMap, HashMap};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// A register.
    Reg(u16),
    /// A constant that fits in an `i32`.
    Imm(i32),
    /// The postfix expression `pool[start..start + len]`.
    Pooled { start: u32, len: u16 },
    /// Grid value `k` of the item's grid thread.
    Value(u16),
}

/// Where a memory micro-op's word address comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Addr {
    /// Resolved when the body was compiled.
    Word(u64),
    /// Grid value `k` of the item's grid thread.
    Value(u16),
}

/// One step of a postfix expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Const(i64),
    Reg(u16),
    /// Pop `b`, pop `a`, push `a op b`.
    Bin(BinOp),
}

/// One compiled instruction. Local ones (`Set`, `JumpIfZero`) run
/// inside [`ProgramItem::next`]; the rest each yield one simulator
/// [`Op`]. A `dst` receives the value the engine delivers as `last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
        addr: Addr,
        class: OpClass,
        dst: u16,
    },
    Store {
        addr: Addr,
        class: OpClass,
        val: Operand,
    },
    /// `dst` is `None` when the result is dead (`use_result: false`).
    Rmw {
        addr: Addr,
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

// Every run streams through its micro-ops; keep them small.
const _: () = assert!(std::mem::size_of::<MicroOp>() <= 40);

/// A grid value as a compiled body reads it, with its location
/// family's `base + stride * index` folded in (scratch addresses use
/// stride 1, base 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    /// `base + per_block * block + per_thread * thread`.
    Affine { base: i64, per_block: i64, per_thread: i64 },
    /// `offset + scale * row[col]` of the item's table row.
    Column { col: u32, scale: i64, offset: i64 },
}

impl Slot {
    fn new(v: GridValue, scale: i64, offset: i64) -> Slot {
        match v {
            GridValue::Affine { base, per_block, per_thread } => Slot::Affine {
                base: offset.wrapping_add(scale.wrapping_mul(base)),
                per_block: scale.wrapping_mul(per_block),
                per_thread: scale.wrapping_mul(per_thread),
            },
            GridValue::Column(col) => Slot::Column {
                col: u32::try_from(col).expect("table columns fit u32"),
                scale,
                offset,
            },
        }
    }

    #[inline]
    fn eval(self, at: GridPos, table: &[Value]) -> i64 {
        match self {
            Slot::Affine { base, per_block, per_thread } => base
                .wrapping_add(per_block.wrapping_mul(at.block))
                .wrapping_add(per_thread.wrapping_mul(at.thread)),
            Slot::Column { col, scale, offset } => {
                offset.wrapping_add(scale.wrapping_mul(table[at.row + col as usize]))
            }
        }
    }
}

/// The grid thread a work item runs as: its ids and where its row of
/// the body's table starts.
#[derive(Debug, Clone, Copy)]
struct GridPos {
    block: i64,
    thread: i64,
    row: usize,
}

/// One thread body compiled for the simulator: flat micro-ops with
/// resolved addresses, the body's postfix expression pool, its
/// register-file shape, and the grid values its items read. Built once
/// per body and shared by every work item that runs it.
#[derive(Debug)]
pub struct ThreadCode {
    ops: Vec<MicroOp>,
    pool: Vec<Node>,
    /// Deepest evaluation stack any pooled expression needs.
    max_depth: usize,
    /// Dense register-file size (`0..reg_count`) of the body itself.
    reg_count: usize,
    /// Register-dump window base, when this thread observes its
    /// registers into memory after the body (litmus mode).
    obs_base: Option<u64>,
    /// Grid values; the first `addr_slots` are word addresses.
    slots: Vec<Slot>,
    addr_slots: usize,
    /// Per-grid-thread table, `columns` values per row.
    columns: usize,
    table: Vec<Value>,
}

impl ThreadCode {
    /// Compile `t` with location `l` at `addrs[l]` and scratch
    /// instruction `i` addressed by operand `scratch[i]` where given.
    /// With `all_results_used` every RMW consumes its result; otherwise
    /// only those whose destination a later instruction reads.
    fn compile(
        t: &Thread,
        addrs: &[Addr],
        scratch: &HashMap<usize, Operand>,
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
            slots: Vec::new(),
            addr_slots: 0,
            columns: 0,
            table: Vec::new(),
        };
        for (pc, instr) in instrs.iter().enumerate() {
            let addr = |loc: &Loc| addrs[loc.0 as usize];
            let scratch_addr = |code: &mut ThreadCode, e: &Expr| match scratch.get(&pc) {
                Some(&o) => o,
                None => code.operand(e),
            };
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
                    MicroOp::ScratchLoad { addr: scratch_addr(&mut code, addr), dst: dst.0 }
                }
                Instr::ScratchStore { addr, val } => {
                    let addr = scratch_addr(&mut code, addr);
                    MicroOp::ScratchStore { addr, val: code.operand(val) }
                }
            };
            code.ops.push(op);
        }
        code
    }

    /// Compile a grid body: place `{family}{i}` at the layout's
    /// `base + stride * i`, resolved now when `i` is the same for every
    /// grid thread and otherwise read as a grid value of the item's
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if a place's family is not in the layout, if a fixed
    /// address falls outside `memory_words`, or if the body has more
    /// than 65536 distinct grid values.
    fn compile_body(
        body: &Body,
        table: &[Value],
        layout: &Layout,
        memory_words: usize,
    ) -> ThreadCode {
        let mut slots: Vec<Slot> = Vec::new();
        let mut index: HashMap<Slot, u16> = HashMap::new();
        let mut slot = |slots: &mut Vec<Slot>, s: Slot| -> u16 {
            *index.entry(s).or_insert_with(|| {
                slots.push(s);
                u16::try_from(slots.len() - 1).expect("at most 65536 grid values per body")
            })
        };
        let addrs: Vec<Addr> = body
            .places()
            .iter()
            .map(|pl| {
                let (base, stride) = layout.family(&pl.family);
                let word = match pl.index.map(|v| (v, v.as_constant())) {
                    None => base,
                    Some((_, Some(c))) => base + stride * c as u64,
                    Some((v, None)) => {
                        let s = Slot::new(v, stride as i64, base as i64);
                        return Addr::Value(slot(&mut slots, s));
                    }
                };
                assert!(
                    (word as usize) < memory_words,
                    "location {} at address {word} outside memory ({memory_words} words)",
                    pl.fixed_name()
                );
                Addr::Word(word)
            })
            .collect();
        let addr_slots = slots.len();
        let scratch: HashMap<usize, Operand> = body
            .scratch_values()
            .iter()
            .map(|&(at, v)| (at, Operand::Value(slot(&mut slots, Slot::new(v, 1, 0)))))
            .collect();
        let mut code = ThreadCode::compile(&body.thread, &addrs, &scratch, None, false);
        code.slots = slots;
        code.addr_slots = addr_slots;
        code.columns = body.columns();
        code.table = table.to_vec();
        code
    }

    /// Where grid thread `(block, thread)` with table row `row` reads
    /// its grid values.
    fn pos(&self, block: usize, thread: usize, row: usize) -> GridPos {
        GridPos { block: block as i64, thread: thread as i64, row: row * self.columns }
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
        let start = self.pool.len();
        let depth = self.push_postfix(e);
        self.max_depth = self.max_depth.max(depth);
        Operand::Pooled {
            start: u32::try_from(start).expect("expression pool fits u32 offsets"),
            len: u16::try_from(self.pool.len() - start).expect("expression has < 65536 nodes"),
        }
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

/// Where a grid lowering places each location family: `{family}{i}` at
/// word `base + stride * i`, and a bare `family` at `base`.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    families: BTreeMap<String, (u64, u64)>,
}

impl Layout {
    /// An empty layout.
    pub fn new() -> Layout {
        Layout::default()
    }

    /// Place `{family}{i}` at word `base + stride * i`.
    pub fn array(mut self, family: &str, base: u64, stride: u64) -> Layout {
        self.families.insert(family.to_string(), (base, stride));
        self
    }

    /// Place the bare location `name` at word `addr`.
    pub fn word(self, name: &str, addr: u64) -> Layout {
        self.array(name, addr, 0)
    }

    /// `(base, stride)` of `family`.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not place `family`.
    fn family(&self, family: &str) -> (u64, u64) {
        *self.families.get(family).unwrap_or_else(|| panic!("layout places no `{family}`"))
    }

    /// The word address of `place`, whose index must not vary.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not place the family, or the index
    /// varies per grid thread.
    pub fn addr(&self, place: &Place) -> u64 {
        let (base, stride) = self.family(&place.family);
        let index = place.index.map_or(Some(0), GridValue::as_constant);
        let index = index.unwrap_or_else(|| panic!("`{}` varies per grid thread", place.family));
        base + stride * index as u64
    }
}

/// A [`Program`] or [`Grid`] lowered onto the simulator grid.
///
/// Implements [`Kernel`]; grid thread `block * threads_per_block +
/// thread` runs one compiled body with its grid values applied,
/// interpreted by [`ProgramItem`].
#[derive(Debug, Clone)]
pub struct ProgramKernel {
    name: String,
    blocks: usize,
    threads_per_block: usize,
    memory_words: usize,
    scratch_words: usize,
    /// Sparse non-zero initial memory (address, value).
    init: Vec<(u64, u64)>,
    /// One compiled body per distinct thread shape.
    bodies: Vec<Arc<ThreadCode>>,
    /// Block-major: `(body, table row)` of each grid thread.
    cells: Vec<(u32, u32)>,
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
        let addrs: Vec<Addr> = (0..p.num_locs() as u64).map(Addr::Word).collect();
        let mut next = p.num_locs() as u64;
        let mut bodies = Vec::with_capacity(p.threads().len());
        for t in p.threads() {
            let code = ThreadCode::compile(t, &addrs, &HashMap::new(), Some(next), true);
            next += code.reg_count as u64;
            bodies.push(Arc::new(code));
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
            cells: (0..bodies.len() as u32).map(|b| (b, 0)).collect(),
            bodies,
        })
    }

    /// Lower `g` in the workload shape: each of its bodies compiled
    /// once, grid thread `gid` at `(gid / tpb, gid % tpb)` running its
    /// body with its own grid values, locations placed by `layout`
    /// (e.g. padded to cache lines), no observation dumps, and each
    /// RMW's `use_result` from register liveness. A program without
    /// grid values lowers through [`Grid::from_program`].
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty, if a location's family is not in
    /// `layout`, or if a location's address — for any grid thread —
    /// falls outside `memory_words`.
    pub fn grid(
        g: &Grid,
        layout: &Layout,
        memory_words: usize,
        scratch_words: usize,
    ) -> ProgramKernel {
        assert!(!g.is_empty(), "cannot lower a program onto an empty grid");
        let tpb = g.tpb();
        assert!(
            g.len().is_multiple_of(tpb),
            "grid size {} is not a multiple of tpb {tpb}",
            g.len()
        );
        let bodies: Vec<Arc<ThreadCode>> = (0..g.body_count())
            .map(|b| {
                Arc::new(ThreadCode::compile_body(g.body(b), g.table(b), layout, memory_words))
            })
            .collect();
        let cells: Vec<(u32, u32)> = (0..g.len())
            .map(|gid| {
                let (b, row) = g.cell(gid);
                let code = &bodies[b];
                let at = code.pos(gid / tpb, gid % tpb, row);
                for slot in &code.slots[..code.addr_slots] {
                    let a = slot.eval(at, &code.table) as u64;
                    assert!(
                        (a as usize) < memory_words,
                        "grid thread {gid}: address {a} outside memory ({memory_words} words)"
                    );
                }
                (b as u32, row as u32)
            })
            .collect();
        let init = g
            .init()
            .iter()
            .filter(|&&(_, v)| v != 0)
            .map(|(place, v)| {
                let a = layout.addr(place);
                assert!((a as usize) < memory_words, "initial value at {a} outside memory");
                (a, *v as u64)
            })
            .collect();
        ProgramKernel {
            name: g.name().to_string(),
            blocks: g.len() / tpb,
            threads_per_block: tpb,
            memory_words,
            scratch_words,
            init,
            bodies,
            cells,
        }
    }

    /// Per-thread dense register-file sizes.
    pub fn reg_counts(&self) -> Vec<usize> {
        self.cells.iter().map(|&(b, _)| self.bodies[b as usize].reg_count).collect()
    }

    /// Per-thread observation-window bases (litmus mode only).
    pub fn obs_bases(&self) -> Vec<usize> {
        let bases = self.cells.iter().map(|&(b, _)| self.bodies[b as usize].obs_base);
        bases.flatten().map(|b| b as usize).collect()
    }

    /// Distinct compiled bodies the grid threads share.
    pub fn body_count(&self) -> usize {
        self.bodies.len()
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
        let (b, row) = self.cells[block * self.threads_per_block + thread];
        let code = Arc::clone(&self.bodies[b as usize]);
        Box::new(ProgramItem::new(code, block, thread, row as usize))
    }
}

/// A work item running one compiled body.
///
/// Local micro-ops (register assignments, conditional jumps) run
/// inline; memory, scratch, think and barrier micro-ops are yielded as
/// simulator [`Op`]s. A value delivered back through `last` lands in
/// the register recorded in `pending` — the same protocol for global
/// loads, scratch loads and result-consuming RMWs.
pub struct ProgramItem {
    code: Arc<ThreadCode>,
    /// The grid thread whose values the body reads.
    at: GridPos,
    /// Dense register file, grown to the highest register written so
    /// far: a register past its end — never written — reads as 0, and a
    /// run allocates only for the registers its path writes.
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
    /// A fresh item at the top of `code`, running as grid thread
    /// `(block, thread)` with table row `row`.
    fn new(code: Arc<ThreadCode>, block: usize, thread: usize, row: usize) -> ProgramItem {
        let at = code.pos(block, thread, row);
        let regs = Vec::with_capacity(code.reg_count.min(INITIAL_REGS));
        let stack = Vec::with_capacity(code.max_depth);
        ProgramItem { code, at, regs, stack, pc: 0, pending: None, dumped: 0 }
    }
}

/// Register-file capacity a work item starts with.
const INITIAL_REGS: usize = 64;

/// Register `r`: 0 until written.
#[inline]
fn reg(regs: &[i64], r: u16) -> i64 {
    regs.get(r as usize).copied().unwrap_or(0)
}

/// Write register `r`, growing the file to reach it.
#[inline]
fn set_reg(regs: &mut Vec<i64>, r: u16, v: i64) {
    let r = r as usize;
    if r >= regs.len() {
        regs.resize(r + 1, 0);
    }
    regs[r] = v;
}

/// Evaluate `o` against `regs` and grid thread `at`'s values, using
/// `stack` for pooled expressions.
fn eval(o: Operand, regs: &[i64], code: &ThreadCode, at: GridPos, stack: &mut Vec<i64>) -> i64 {
    match o {
        Operand::Reg(r) => reg(regs, r),
        Operand::Imm(v) => i64::from(v),
        Operand::Value(k) => code.slots[k as usize].eval(at, &code.table),
        Operand::Pooled { start, len } => {
            stack.clear();
            let start = start as usize;
            for &node in &code.pool[start..start + len as usize] {
                let v = match node {
                    Node::Const(c) => c,
                    Node::Reg(r) => reg(regs, r),
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

/// The word address `a` names for grid thread `at`.
fn word(a: Addr, code: &ThreadCode, at: GridPos) -> u64 {
    match a {
        Addr::Word(w) => w,
        Addr::Value(k) => code.slots[k as usize].eval(at, &code.table) as u64,
    }
}

impl WorkItem for ProgramItem {
    fn next(&mut self, last: Option<u64>) -> Op {
        let ProgramItem { code, at, regs, stack, pc, pending, dumped } = self;
        let (code, at) = (&**code, *at);
        if let Some(dst) = pending.take() {
            let v = last.expect("memory op with a destination returns a value");
            set_reg(regs, dst, v as i64);
        }
        while let Some(&op) = code.ops.get(*pc) {
            *pc += 1;
            let mut value = |o| eval(o, regs, code, at, stack);
            match op {
                MicroOp::Set { dst, val } => {
                    let v = value(val);
                    set_reg(regs, dst, v);
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
                    return Op::Load { addr: word(addr, code, at), class };
                }
                MicroOp::Store { addr, class, val } => {
                    let value = value(val) as u64;
                    return Op::Store { addr: word(addr, code, at), value, class };
                }
                MicroOp::Rmw { addr, class, op, operand, expected, dst } => {
                    let (k, k2) = (value(operand), value(expected));
                    *pending = dst;
                    return Op::Rmw {
                        addr: word(addr, code, at),
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
            if *dumped < code.reg_count {
                let r = *dumped;
                *dumped += 1;
                let value = reg(regs, r as u16) as u64;
                return Op::Store { addr: base + r as u64, value, class: OpClass::Data };
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
        let layout = Layout::new().word("ctr", 16).word("out", 17);
        let k = ProgramKernel::grid(&Grid::from_program(&p, 2), &layout, 32, 0);
        assert_eq!(k.blocks(), 1);
        assert_eq!(k.threads_per_block(), 2);
        // Thread 0's RMW result is dead, thread 1's is live.
        assert!(matches!(k.bodies[0].ops[0], MicroOp::Rmw { dst: None, .. }));
        assert!(matches!(k.bodies[1].ops[0], MicroOp::Rmw { dst: Some(0), .. }));
        let r = run_kernel(&k, &EngineParams::default(), &mut Instant);
        assert_eq!(r.memory[16], 2, "both increments landed at the padded address");
        assert!(r.memory[17] == 0 || r.memory[17] == 1, "old value stored");
    }

    #[test]
    fn one_body_serves_every_grid_thread_with_its_own_values() {
        // Thread (block, thread) loads `x{4 * block + thread}`, adds its
        // table value, stores the sum to `y{row}` and to its scratch
        // slot `thread`.
        let mut body = Body::build(|t| {
            let v = t.load(OpClass::Data, Place::at("x", GridValue::affine(0, 4, 1)));
            let sum = Expr::bin(BinOp::Add, v.into(), 100.into());
            t.store(OpClass::Data, Place::at("y", GridValue::Column(0)), sum.clone());
            t.scratch_store(0, sum);
        });
        body.vary_scratch(2, GridValue::affine(0, 0, 1));
        let mut g = Grid::new("g", 2);
        let id = g.add_body(body);
        for row in [3, 2, 1, 0] {
            g.push(id, &[row]);
        }
        let layout = Layout::new().array("x", 0, 1).array("y", 8, 2);
        let k = ProgramKernel::grid(&g, &layout, 16, 2);
        assert_eq!(k.body_count(), 1);
        let run = |block, thread, loaded: u64| {
            let mut item = k.item(block, thread);
            let load = item.next(None);
            (load, item.next(Some(loaded)), item.next(None), item.next(None))
        };
        let (load, store, sstore, done) = run(1, 0, 5);
        assert_eq!(load, Op::Load { addr: 4, class: OpClass::Data });
        assert_eq!(store, Op::Store { addr: 8 + 2, value: 105, class: OpClass::Data });
        assert_eq!(sstore, Op::ScratchStore { addr: 0, value: 105 });
        assert_eq!(done, Op::Done);
        let (load, store, sstore, _) = run(0, 1, 7);
        assert_eq!(load, Op::Load { addr: 1, class: OpClass::Data });
        assert_eq!(store, Op::Store { addr: 8 + 2 * 2, value: 107, class: OpClass::Data });
        assert_eq!(sstore, Op::ScratchStore { addr: 1, value: 107 });
        // Instantiation names the same locations the item addresses.
        let p = g.program();
        let names: Vec<&str> = (0..p.num_locs() as u32).map(|l| p.loc_name(Loc(l))).collect();
        assert_eq!(names, ["x0", "y3", "x1", "y2", "x4", "y1", "x5", "y0"]);
        assert_eq!(
            p.threads()[3].instrs[2],
            Instr::ScratchStore {
                addr: Expr::Const(1),
                val: Expr::bin(BinOp::Add, Expr::Reg(Reg(0)), Expr::Const(100)),
            }
        );
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
        let k =
            ProgramKernel::grid(&Grid::from_program(&p, 2), &Layout::new().word("sum", 0), 4, 2);
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
        let code = &k.bodies[0];
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
        assert_eq!(vals[2], Operand::Pooled { start: 0, len: 1 }, "wide constants are pooled");
        assert_eq!(vals[3], Operand::Pooled { start: 1, len: 5 });
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
