//! Differential test of the bridge's compiled lowering against a
//! reference tree-walking interpreter.
//!
//! `drfrlx-bridge` compiles every program thread into flat micro-ops
//! (resolved addresses, register / immediate / postfix-pool operands,
//! zero-initialized `i64` registers). The `reference` module below is
//! an independent interpreter of the *source* instructions — it walks
//! `Expr` trees with `Expr::eval_slice` over an `Option<i64>` register
//! file, recomputes register counts and RMW-result liveness itself,
//! and resolves locations through an address table at run time. Fed
//! the same pseudo-random load, scratch-load and RMW results, both
//! must yield identical simulator `Op` sequences for every thread of
//! every corpus, under both the litmus and the grid lowering.
//!
//! The micro kernels compile each thread-parametric body once and
//! apply a grid thread's values (affine ids, table rows) when its item
//! is created. For every grid thread of all seven, that shared body
//! must yield the same op stream as the flat thread
//! `Grid::instantiate(gid)` compiled on its own, addressed by name.

use drfrlx_bridge::{Layout, ProgramKernel};
use drfrlx_conform::{generate, table1_corpus, template_corpus};
use drfrlx_core::program::{BinOp, Expr, Grid, Instr, Loc, Place, Program, Reg, RmwOp, Thread};
use drfrlx_core::OpClass;
use drfrlx_litmus::{all_tests, stress_tests};
use drfrlx_workloads::micro::{
    Flags, GridKernel, Hist, HistGlobal, HistGlobalNonOrder, HistParams, RefCounter, Seqlocks,
    SplitCounter,
};
use hsim_gpu::{Kernel, Op, RmwKind, WorkItem};

/// The source-level interpreter the compiled lowering replaced.
mod reference {
    use super::*;

    /// How one thread is laid out, derived from the program alone.
    pub struct Layout {
        /// Location index → word address.
        pub addr_of: Vec<u64>,
        /// Per thread: RMW-result liveness by instruction index.
        pub use_result: Vec<Vec<bool>>,
        /// Per thread: register-dump window base (litmus shape).
        pub obs_base: Vec<Option<u64>>,
        /// Per thread: dense register-file size.
        pub reg_count: Vec<usize>,
    }

    /// The litmus shape: identity addresses, every RMW result
    /// consumed, dump windows packed after the locations.
    pub fn litmus_layout(p: &Program) -> Layout {
        let reg_count: Vec<usize> = p.threads().iter().map(thread_reg_count).collect();
        let mut next = p.num_locs() as u64;
        let obs_base = reg_count
            .iter()
            .map(|&n| {
                let base = next;
                next += n as u64;
                Some(base)
            })
            .collect();
        Layout {
            addr_of: (0..p.num_locs() as u64).collect(),
            use_result: p.threads().iter().map(|t| vec![true; t.instrs.len()]).collect(),
            obs_base,
            reg_count,
        }
    }

    /// The grid shape: caller addresses, liveness-derived `use_result`,
    /// no dumps.
    pub fn grid_layout(p: &Program, addr_of: Vec<u64>) -> Layout {
        Layout {
            addr_of,
            use_result: p.threads().iter().map(rmw_results_used).collect(),
            obs_base: vec![None; p.threads().len()],
            reg_count: p.threads().iter().map(thread_reg_count).collect(),
        }
    }

    fn reads(i: &Instr) -> Vec<Reg> {
        let mut out = Vec::new();
        match i {
            Instr::Load { .. } | Instr::Think { .. } | Instr::Barrier => {}
            Instr::Store { val: e, .. }
            | Instr::Assign { expr: e, .. }
            | Instr::BranchOn { cond: e }
            | Instr::JumpIfZero { cond: e, .. }
            | Instr::Observe { expr: e }
            | Instr::ScratchLoad { addr: e, .. } => e.regs_read(&mut out),
            Instr::Rmw { operand, operand2, .. } => {
                operand.regs_read(&mut out);
                operand2.regs_read(&mut out);
            }
            Instr::ScratchStore { addr, val } => {
                addr.regs_read(&mut out);
                val.regs_read(&mut out);
            }
        }
        out
    }

    fn write(i: &Instr) -> Option<Reg> {
        match i {
            Instr::Load { dst, .. }
            | Instr::Rmw { dst, .. }
            | Instr::Assign { dst, .. }
            | Instr::ScratchLoad { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    fn thread_reg_count(t: &Thread) -> usize {
        t.instrs
            .iter()
            .flat_map(|i| reads(i).into_iter().chain(write(i)))
            .map(|r| r.0 as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// `true` at an RMW iff some later instruction reads its
    /// destination (scanned forward, per RMW).
    fn rmw_results_used(t: &Thread) -> Vec<bool> {
        t.instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| match instr {
                Instr::Rmw { dst, .. } => {
                    t.instrs[i + 1..].iter().any(|later| reads(later).contains(dst))
                }
                _ => true,
            })
            .collect()
    }

    fn rmw_kind(op: RmwOp, expected: i64) -> RmwKind {
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

    /// One thread, interpreted instruction by instruction.
    pub struct Item<'a> {
        instrs: &'a [Instr],
        addr_of: &'a [u64],
        use_result: &'a [bool],
        obs_base: Option<u64>,
        regs: Vec<Option<i64>>,
        pc: usize,
        pending: Option<Reg>,
        dumped: usize,
    }

    impl<'a> Item<'a> {
        pub fn new(p: &'a Program, layout: &'a Layout, thread: usize) -> Item<'a> {
            Item {
                instrs: &p.threads()[thread].instrs,
                addr_of: &layout.addr_of,
                use_result: &layout.use_result[thread],
                obs_base: layout.obs_base[thread],
                regs: vec![None; layout.reg_count[thread]],
                pc: 0,
                pending: None,
                dumped: 0,
            }
        }
    }

    impl WorkItem for Item<'_> {
        fn next(&mut self, last: Option<u64>) -> Op {
            if let Some(dst) = self.pending.take() {
                self.regs[dst.0 as usize] =
                    Some(last.expect("a value for the pending load") as i64);
            }
            while self.pc < self.instrs.len() {
                let pc = self.pc;
                self.pc += 1;
                match &self.instrs[pc] {
                    Instr::Assign { dst, expr } => {
                        self.regs[dst.0 as usize] = Some(expr.eval_slice(&self.regs));
                    }
                    Instr::BranchOn { .. } | Instr::Observe { .. } => {}
                    Instr::JumpIfZero { cond, skip } => {
                        if cond.eval_slice(&self.regs) == 0 {
                            self.pc += skip;
                        }
                    }
                    Instr::Think { cycles } => return Op::Think(*cycles),
                    Instr::Barrier => return Op::Barrier,
                    Instr::ScratchLoad { addr, dst } => {
                        self.pending = Some(*dst);
                        return Op::ScratchLoad { addr: addr.eval_slice(&self.regs) as u64 };
                    }
                    Instr::ScratchStore { addr, val } => {
                        return Op::ScratchStore {
                            addr: addr.eval_slice(&self.regs) as u64,
                            value: val.eval_slice(&self.regs) as u64,
                        };
                    }
                    Instr::Load { class, loc, dst } => {
                        self.pending = Some(*dst);
                        return Op::Load { addr: self.addr_of[loc.0 as usize], class: *class };
                    }
                    Instr::Store { class, loc, val } => {
                        return Op::Store {
                            addr: self.addr_of[loc.0 as usize],
                            value: val.eval_slice(&self.regs) as u64,
                            class: *class,
                        };
                    }
                    Instr::Rmw { class, loc, op, operand, operand2, dst } => {
                        let use_result = self.use_result[pc];
                        if use_result {
                            self.pending = Some(*dst);
                        }
                        return Op::Rmw {
                            addr: self.addr_of[loc.0 as usize],
                            rmw: rmw_kind(*op, operand2.eval_slice(&self.regs)),
                            operand: operand.eval_slice(&self.regs) as u64,
                            class: *class,
                            use_result,
                        };
                    }
                }
            }
            if let Some(base) = self.obs_base {
                if self.dumped < self.regs.len() {
                    let r = self.dumped;
                    self.dumped += 1;
                    return Op::Store {
                        addr: base + r as u64,
                        value: self.regs[r].unwrap_or(0) as u64,
                        class: OpClass::Data,
                    };
                }
            }
            Op::Done
        }
    }
}

/// SplitMix64: the deterministic source of delivered values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A delivered value: mostly small (so value tests and zero jumps
    /// go both ways), sometimes negative or full-width.
    fn value(&mut self) -> u64 {
        let r = self.next();
        match r % 4 {
            0 => 0,
            1 => (r >> 2) & 3,
            2 => (-(((r >> 2) & 3) as i64)) as u64,
            _ => r >> 2,
        }
    }
}

/// Does the engine deliver a value after `op`?
fn returns_value(op: &Op) -> bool {
    matches!(op, Op::Load { .. } | Op::ScratchLoad { .. } | Op::Rmw { use_result: true, .. })
}

const MAX_STEPS: usize = 1 << 20;

/// Run two items side by side with the same delivered values; returns
/// the common op stream.
fn lockstep(
    compiled: &mut dyn WorkItem,
    reference: &mut dyn WorkItem,
    seed: u64,
    what: &str,
) -> Vec<Op> {
    let mut rng = Rng(seed);
    let mut ops = Vec::new();
    let mut last = None;
    for _ in 0..MAX_STEPS {
        let (a, b) = (compiled.next(last), reference.next(last));
        assert_eq!(a, b, "{what}: op {} diverged (seed {seed})", ops.len());
        if a == Op::Done {
            return ops;
        }
        last = returns_value(&a).then(|| rng.value());
        ops.push(a);
    }
    panic!("{what}: no Done within {MAX_STEPS} ops");
}

/// Both lowerings of `p` against the reference, every thread, a few
/// value streams each.
fn check_program(p: &Program) {
    if p.threads().is_empty() {
        return;
    }
    let name = p.name();
    let Ok(kernel) = ProgramKernel::litmus(p) else {
        panic!("{name}: the litmus lowering rejected a corpus program");
    };
    let layout = reference::litmus_layout(p);
    assert_eq!(kernel.reg_counts(), layout.reg_count, "{name}: register counts");
    let bases: Vec<usize> = layout.obs_base.iter().map(|b| b.unwrap() as usize).collect();
    assert_eq!(kernel.obs_bases(), bases, "{name}: dump windows");
    let tpb = kernel.threads_per_block();
    compare_threads(p, &kernel, &layout, tpb, &format!("{name} (litmus)"));

    // Grid shape: one thread per block, locations spread out so every
    // address differs from the litmus identity map.
    let addr_of: Vec<u64> = (0..p.num_locs() as u64).map(|l| 3 * l + 1).collect();
    let layout = (0..p.num_locs() as u32)
        .fold(Layout::new(), |l, i| l.word(p.loc_name(Loc(i)), addr_of[i as usize]));
    let kernel = ProgramKernel::grid(&Grid::from_program(p, 1), &layout, 3 * p.num_locs() + 2, 0);
    let layout = reference::grid_layout(p, addr_of.clone());
    compare_threads(p, &kernel, &layout, 1, &format!("{name} (grid)"));
}

fn compare_threads(
    p: &Program,
    kernel: &ProgramKernel,
    layout: &reference::Layout,
    tpb: usize,
    what: &str,
) {
    for t in 0..p.threads().len() {
        for seed in 0..4u64 {
            let mut compiled = kernel.item(t / tpb, t % tpb);
            let mut reference = reference::Item::new(p, layout, t);
            let seed = seed * 1000 + t as u64;
            lockstep(compiled.as_mut(), &mut reference, seed, &format!("{what} thread {t}"));
        }
    }
}

/// `{family}{digits}` as a place, e.g. `b17` → `b` at 17, `stop` → `stop`.
fn parse_place(name: &str) -> Place {
    let split = name.find(|c: char| c.is_ascii_digit()).unwrap_or(name.len());
    match name.split_at(split) {
        (family, "") => Place::from(family),
        (family, digits) => Place::at(family, digits.parse::<usize>().expect("a decimal index")),
    }
}

/// Every grid thread of `g`: its item from the shared compiled body
/// against the flat thread `instantiate(gid)`, compiled alone with each
/// location placed by parsing its name, over `seeds` value streams.
fn check_grid(what: &str, g: &GridKernel, seeds: u64) {
    let kernel = &g.kernel;
    let tpb = kernel.threads_per_block();
    assert_eq!(g.grid.len(), kernel.blocks() * tpb, "{what}: grid size");
    for gid in 0..g.grid.len() {
        let mut p = Program::new(g.grid.name());
        let t = g.grid.instantiate(gid, &mut p);
        p.push_thread(t);
        let layout = (0..p.num_locs() as u32).fold(Layout::new(), |l, i| {
            let name = p.loc_name(Loc(i));
            l.word(name, g.layout.addr(&parse_place(name)))
        });
        let flat = ProgramKernel::grid(
            &Grid::from_program(&p, 1),
            &layout,
            kernel.memory_words(),
            kernel.scratch_words(),
        );
        for seed in 0..seeds {
            let mut shared = kernel.item(gid / tpb, gid % tpb);
            let mut alone = flat.item(0, 0);
            let seed = seed * 1000 + gid as u64;
            let what = format!("{what} grid thread {gid}");
            lockstep(shared.as_mut(), alone.as_mut(), seed, &what);
        }
    }
}

fn small_hist() -> HistParams {
    HistParams { bins: 32, per_thread: 8, blocks: 4, tpb: 4, seed: 1 }
}

#[test]
fn micro_kernels_lower_shared_bodies_like_their_flat_threads() {
    let p = small_hist();
    // 10 bins over 4 threads: two merge counts, so two H bodies.
    let uneven = HistParams { bins: 10, per_thread: 3, blocks: 3, tpb: 4, seed: 5 };
    check_grid("H", Hist::new(p.clone()).lowered(), 3);
    check_grid("H uneven", Hist::new(uneven).lowered(), 3);
    check_grid("HG", HistGlobal::new(p.clone(), OpClass::Commutative).lowered(), 3);
    check_grid("HG-NO", HistGlobalNonOrder::new(p).lowered(), 3);
    check_grid("Flags", Flags::new(4, 4, 8, 200).lowered(), 3);
    check_grid("SC", SplitCounter::new(4, 4, 8, 2).lowered(), 3);
    check_grid("RC", RefCounter::new(4, 4, 8, 6).lowered(), 3);
    check_grid("SEQ", Seqlocks::new(false, 4, 4, 3, 4, 4, 64).lowered(), 3);
    check_grid("SEQ acq/rel", Seqlocks::new(true, 4, 4, 3, 4, 4, 64).lowered(), 3);
}

#[test]
fn micro_kernels_lower_shared_bodies_like_their_flat_threads_at_full_scale() {
    // The registry's Table 3 instances.
    let h = Hist::new(HistParams { per_thread: 256, ..HistParams::default() });
    check_grid("H", h.lowered(), 1);
    check_grid("HG", HistGlobal::default().lowered(), 1);
    check_grid("HG-NO", HistGlobalNonOrder::default().lowered(), 1);
    check_grid("Flags", Flags::default().lowered(), 1);
    check_grid("SC", SplitCounter::default().lowered(), 1);
    check_grid("RC", RefCounter::default().lowered(), 1);
    check_grid("SEQ", Seqlocks::default().lowered(), 1);
}

#[test]
fn table1_and_template_corpora_lower_identically() {
    for (_, p) in table1_corpus().iter().chain(&template_corpus()) {
        check_program(p);
    }
}

#[test]
fn litmus_and_stress_corpora_lower_identically() {
    for t in all_tests().into_iter().chain(stress_tests()) {
        check_program(&(t.build)());
    }
}

#[test]
fn generated_programs_lower_identically() {
    for seed in 0..200 {
        check_program(&generate(seed));
    }
}

/// A program from raw threads (the builder cannot express forward
/// jumps over definitions).
fn raw(name: &str, locs: &[&str], threads: Vec<Vec<Instr>>) -> Program {
    let mut p = Program::new(name);
    for l in locs {
        p.intern(l);
    }
    for instrs in threads {
        p.push_thread(Thread { instrs });
    }
    p
}

/// Drive the compiled litmus lowering of thread 0 alone, delivering
/// `values` in order; returns its op stream.
fn run_thread0(p: &Program, values: &[u64]) -> Vec<Op> {
    check_program(p);
    let kernel = ProgramKernel::litmus(p).unwrap();
    let mut item = kernel.item(0, 0);
    let (mut ops, mut values, mut last) = (Vec::new(), values.iter(), None);
    loop {
        let op = item.next(last);
        if op == Op::Done {
            return ops;
        }
        last = returns_value(&op).then(|| *values.next().expect("enough values"));
        ops.push(op);
    }
}

#[test]
fn a_jump_over_the_only_definition_leaves_the_register_reading_zero() {
    // r0 = load x; ifz r0 skip 1; r1 = 5; store y r1.
    let p = raw(
        "skip_def",
        &["x", "y"],
        vec![vec![
            Instr::Load { class: OpClass::Data, loc: drfrlx_core::program::Loc(0), dst: Reg(0) },
            Instr::JumpIfZero { cond: Expr::Reg(Reg(0)), skip: 1 },
            Instr::Assign { dst: Reg(1), expr: Expr::Const(5) },
            Instr::Store {
                class: OpClass::Data,
                loc: drfrlx_core::program::Loc(1),
                val: Expr::Reg(Reg(1)),
            },
        ]],
    );
    let stored = |x: u64| match run_thread0(&p, &[x])[1] {
        Op::Store { addr: 1, value, .. } => value,
        ref op => panic!("expected the store to y, got {op:?}"),
    };
    assert_eq!(stored(0), 0, "definition skipped: r1 reads as 0");
    assert_eq!(stored(7), 5, "definition ran");
}

#[test]
fn constants_outside_i32_survive_compilation() {
    let wide = 1i64 << 40;
    let p = raw(
        "wide",
        &["x"],
        vec![vec![
            Instr::Store {
                class: OpClass::Data,
                loc: drfrlx_core::program::Loc(0),
                val: wide.into(),
            },
            Instr::Assign {
                dst: Reg(0),
                expr: Expr::bin(BinOp::Sub, Expr::Const(i64::MIN), Expr::Const(-1)),
            },
            Instr::Rmw {
                class: OpClass::Commutative,
                loc: drfrlx_core::program::Loc(0),
                op: RmwOp::FetchAdd,
                operand: Expr::Const(i64::from(i32::MIN) - 1),
                operand2: Expr::Const(0),
                dst: Reg(1),
            },
            Instr::Store {
                class: OpClass::Data,
                loc: drfrlx_core::program::Loc(0),
                val: Expr::Reg(Reg(0)),
            },
        ]],
    );
    let ops = run_thread0(&p, &[0]);
    assert!(matches!(ops[0], Op::Store { value, .. } if value == wide as u64));
    assert!(
        matches!(ops[1], Op::Rmw { operand, .. } if operand == (i64::from(i32::MIN) - 1) as u64)
    );
    assert!(matches!(ops[2], Op::Store { value, .. } if value == (i64::MIN + 1) as u64));
}

#[test]
fn a_cas_with_an_expression_for_expected_evaluates_it() {
    // r0 = load x; r1 = cas x (expected r0 + 2) (new r0 * 0 + 9).
    let p = raw(
        "cas_expr",
        &["x"],
        vec![vec![
            Instr::Load { class: OpClass::Paired, loc: drfrlx_core::program::Loc(0), dst: Reg(0) },
            Instr::Rmw {
                class: OpClass::Paired,
                loc: drfrlx_core::program::Loc(0),
                op: RmwOp::Cas,
                operand: Expr::bin(BinOp::Max, Expr::Reg(Reg(0)), Expr::Const(9)),
                operand2: Expr::bin(BinOp::Add, Expr::Reg(Reg(0)), Expr::Const(2)),
                dst: Reg(1),
            },
        ]],
    );
    match run_thread0(&p, &[40, 0])[1] {
        Op::Rmw { rmw: RmwKind::Cas { expected: 42 }, operand: 40, use_result: true, .. } => {}
        ref op => panic!("expected cas(expected 42, new 40), got {op:?}"),
    }
}

#[test]
fn the_litmus_register_dump_covers_every_register() {
    let mut p = Program::new("dump");
    {
        let mut t = p.thread();
        let r0 = t.load(OpClass::Data, "x");
        let r1 = t.rmw(OpClass::Commutative, "x", RmwOp::FetchAdd, 3);
        t.observe(Expr::bin(BinOp::Add, r0.into(), r1.into()));
    }
    p.thread().store(OpClass::Data, "x", 1);
    let p = p.build();
    let kernel = ProgramKernel::litmus(&p).unwrap();
    assert_eq!(kernel.reg_counts(), vec![2, 0]);
    assert_eq!(kernel.obs_bases(), vec![1, 3]);
    let ops = run_thread0(&p, &[11, 12]);
    let dump: Vec<(u64, u64)> = ops[2..]
        .iter()
        .map(|op| match op {
            Op::Store { addr, value, class: OpClass::Data } => (*addr, *value),
            op => panic!("expected a dump store, got {op:?}"),
        })
        .collect();
    assert_eq!(dump, vec![(1, 11), (2, 12)], "r0 and r1 land in thread 0's window");
}
