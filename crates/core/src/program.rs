//! Litmus-program representation.
//!
//! Programs are collections of straight-line threads over a set of named
//! shared locations. Threads compute with registers; loads write
//! registers, store/RMW operands are register expressions, and a
//! [`ThreadBuilder::branch_on`] marker induces control dependencies on
//! everything that follows it (the Herd `ctrl` relation). This is the
//! same shape of program Herd litmus tests use, which is what the
//! paper's Listing 7 model operates on.

use crate::classes::OpClass;
use std::collections::BTreeMap;
use std::fmt;

/// A shared memory location, interned by [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(pub u32);

/// A per-thread register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u16);

/// The value domain of litmus programs.
pub type Value = i64;

/// A register expression: the right-hand side of stores, RMW operands,
/// assignments and branch conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A constant.
    Const(Value),
    /// A register read.
    Reg(Reg),
    /// A binary operation over two sub-expressions.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

/// Binary operators available in [`Expr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Equality (1 or 0).
    Eq,
    /// Inequality (1 or 0).
    Ne,
    /// Signed less-than (1 or 0).
    Lt,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinOp {
    /// Apply the operator to two evaluated operands.
    #[inline]
    pub fn apply(self, a: Value, b: Value) -> Value {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Eq => (a == b) as Value,
            BinOp::Ne => (a != b) as Value,
            BinOp::Lt => (a < b) as Value,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }
}

impl Expr {
    /// Evaluate under a register file.
    pub fn eval(&self, regs: &BTreeMap<Reg, Value>) -> Value {
        match self {
            Expr::Const(v) => *v,
            Expr::Reg(r) => *regs.get(r).unwrap_or(&0),
            Expr::Bin(op, a, b) => op.apply(a.eval(regs), b.eval(regs)),
        }
    }

    /// Registers this expression reads, appended to `out`.
    pub fn regs_read(&self, out: &mut Vec<Reg>) {
        match self {
            Expr::Const(_) => {}
            Expr::Reg(r) => out.push(*r),
            Expr::Bin(_, a, b) => {
                a.regs_read(out);
                b.regs_read(out);
            }
        }
    }

    /// Visit every register read, without allocating (the streaming
    /// enumerator's hot-loop alternative to [`Expr::regs_read`]).
    pub fn for_each_reg(&self, f: &mut impl FnMut(Reg)) {
        match self {
            Expr::Const(_) => {}
            Expr::Reg(r) => f(*r),
            Expr::Bin(_, a, b) => {
                a.for_each_reg(f);
                b.for_each_reg(f);
            }
        }
    }

    /// Evaluate against a dense register file (`None` = never written,
    /// which reads as 0 exactly like the map-based [`Expr::eval`]).
    pub fn eval_slice(&self, regs: &[Option<Value>]) -> Value {
        match self {
            Expr::Const(v) => *v,
            Expr::Reg(r) => regs.get(r.0 as usize).copied().flatten().unwrap_or(0),
            Expr::Bin(op, a, b) => op.apply(a.eval_slice(regs), b.eval_slice(regs)),
        }
    }

    /// Shorthand for `Expr::Bin(op, a, b)`.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
}

impl From<Value> for Expr {
    fn from(v: Value) -> Expr {
        Expr::Const(v)
    }
}

impl From<Reg> for Expr {
    fn from(r: Reg) -> Expr {
        Expr::Reg(r)
    }
}

/// Read-modify-write operations.
///
/// The loaded (old) value is returned into the destination register; the
/// written value is a function of the old value and the operand(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// `new = old + operand`.
    FetchAdd,
    /// `new = old - operand`.
    FetchSub,
    /// `new = old & operand`.
    FetchAnd,
    /// `new = old | operand`.
    FetchOr,
    /// `new = old ^ operand`.
    FetchXor,
    /// `new = min(old, operand)`.
    FetchMin,
    /// `new = max(old, operand)`.
    FetchMax,
    /// `new = operand` (atomic exchange).
    Exchange,
    /// Compare-and-swap: `new = if old == expected { operand } else { old }`.
    /// The `expected` value is the instruction's second operand.
    Cas,
}

impl RmwOp {
    /// Apply the operation: `(old, operand, operand2) -> new`.
    pub fn apply(self, old: Value, operand: Value, operand2: Value) -> Value {
        match self {
            RmwOp::FetchAdd => old.wrapping_add(operand),
            RmwOp::FetchSub => old.wrapping_sub(operand),
            RmwOp::FetchAnd => old & operand,
            RmwOp::FetchOr => old | operand,
            RmwOp::FetchXor => old ^ operand,
            RmwOp::FetchMin => old.min(operand),
            RmwOp::FetchMax => old.max(operand),
            RmwOp::Exchange => operand,
            RmwOp::Cas => {
                if old == operand2 {
                    operand
                } else {
                    old
                }
            }
        }
    }
}

/// One thread instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instr {
    /// `dst = load(class, loc)`.
    Load {
        /// Operation class annotation.
        class: OpClass,
        /// Target location.
        loc: Loc,
        /// Register receiving the loaded value.
        dst: Reg,
    },
    /// `store(class, loc, val)`.
    Store {
        /// Operation class annotation.
        class: OpClass,
        /// Target location.
        loc: Loc,
        /// Stored value.
        val: Expr,
    },
    /// `dst = rmw(class, loc, op, operand[, operand2])`, atomically.
    Rmw {
        /// Operation class annotation.
        class: OpClass,
        /// Target location.
        loc: Loc,
        /// Modify function.
        op: RmwOp,
        /// Primary operand.
        operand: Expr,
        /// Secondary operand (CAS `expected`); `Const(0)` otherwise.
        operand2: Expr,
        /// Register receiving the *old* value.
        dst: Reg,
    },
    /// Local computation `dst = expr` (no memory event; propagates
    /// data dependencies).
    Assign {
        /// Destination register.
        dst: Reg,
        /// Computed expression.
        expr: Expr,
    },
    /// Control-dependency marker: every later memory operation in this
    /// thread control-depends on the registers `cond` reads (Herd's
    /// `ctrl`). Does not change control flow — litmus programs are the
    /// unrolled path of interest.
    BranchOn {
        /// Condition whose source registers induce the dependency.
        cond: Expr,
    },
    /// Observation marker: the loads feeding `expr` are "used by another
    /// instruction in the thread" (paper §3.2.3 / §3.5.3). Herd
    /// approximates observability with `addr | data | ctrl` dependencies
    /// into later memory accesses; `Observe` additionally covers uses
    /// that a litmus test would express as a final-state condition.
    Observe {
        /// Expression whose source loads become observed.
        expr: Expr,
    },
    /// Structured conditional: if `cond` evaluates to zero, skip the
    /// next `skip` instructions. Emitted by [`ThreadBuilder::if_nz`];
    /// only forward skips are expressible, so threads always terminate.
    /// Like [`Instr::BranchOn`], induces control dependencies from the
    /// loads feeding `cond` onto all later memory operations.
    JumpIfZero {
        /// Branch condition.
        cond: Expr,
        /// Number of following instructions skipped when `cond == 0`.
        skip: usize,
    },
    /// Simulator timing hint: `cycles` of local busy work. Axiomatic
    /// no-op — produces no memory event, so it is invisible to the
    /// race axioms; operationally it delays the thread's next issue.
    Think {
        /// Busy cycles consumed when simulated.
        cycles: u32,
    },
    /// Block-level barrier. Every thread of the program arrives, then
    /// all proceed together. For the race axioms this is a
    /// synchronization edge: every event before the barrier
    /// happens-before every event after it, across all threads. Each
    /// thread must execute the same number of barriers (unequal counts
    /// deadlock and are rejected during enumeration).
    Barrier,
    /// `dst = scratch[addr]` — read the block-shared scratchpad.
    /// Scratch is invisible to the race axioms; programs must keep
    /// scratch accesses from different threads to the same slot
    /// separated by a [`Instr::Barrier`] (the enumerator enforces this
    /// discipline and rejects scratch races).
    ScratchLoad {
        /// Scratch slot address expression (evaluated locally).
        addr: Expr,
        /// Register receiving the slot value (0 if never written).
        dst: Reg,
    },
    /// `scratch[addr] = val` — write the block-shared scratchpad. See
    /// [`Instr::ScratchLoad`] for the race-freedom discipline.
    ScratchStore {
        /// Scratch slot address expression (evaluated locally).
        addr: Expr,
        /// Stored value.
        val: Expr,
    },
}

impl Instr {
    /// The memory location accessed, if this is a memory instruction.
    pub fn loc(&self) -> Option<Loc> {
        match self {
            Instr::Load { loc, .. } | Instr::Store { loc, .. } | Instr::Rmw { loc, .. } => {
                Some(*loc)
            }
            _ => None,
        }
    }

    /// The class annotation, if this is a memory instruction.
    pub fn class(&self) -> Option<OpClass> {
        match self {
            Instr::Load { class, .. } | Instr::Store { class, .. } | Instr::Rmw { class, .. } => {
                Some(*class)
            }
            _ => None,
        }
    }

    /// Is this a memory instruction (produces a dynamic event)?
    pub fn is_memory(&self) -> bool {
        self.loc().is_some()
    }
}

/// A straight-line thread: a sequence of instructions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Thread {
    /// Instructions in program order.
    pub instrs: Vec<Instr>,
}

/// A whole litmus program.
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    threads: Vec<Thread>,
    locs: Interner<String>,
    init: BTreeMap<Loc, Value>,
}

/// Keys numbered in first-intern order: a program's location names, or
/// a body's places.
#[derive(Debug, Clone)]
struct Interner<K> {
    keys: Vec<K>,
    /// Key → number, so interning stays O(log n) even for grid-scale
    /// programs with tens of thousands of locations.
    index: BTreeMap<K, u32>,
}

impl<K> Default for Interner<K> {
    fn default() -> Self {
        Interner { keys: Vec::new(), index: BTreeMap::new() }
    }
}

impl<K: Ord + Clone> Interner<K> {
    fn intern<Q: Ord + ToOwned<Owned = K> + ?Sized>(&mut self, key: &Q) -> Loc
    where
        K: std::borrow::Borrow<Q>,
    {
        if let Some(&i) = self.index.get(key) {
            return Loc(i);
        }
        let i = u32::try_from(self.keys.len()).expect("fewer than 2^32 locations");
        self.keys.push(key.to_owned());
        self.index.insert(key.to_owned(), i);
        Loc(i)
    }
}

impl Locations for Interner<String> {
    fn place(&mut self, place: Place) -> Loc {
        self.intern(place.fixed_name().as_str())
    }
}

impl Locations for Interner<Place> {
    fn place(&mut self, place: Place) -> Loc {
        self.intern(&place)
    }
}

impl Program {
    /// Start building a program. Use [`Program::thread`] to add threads
    /// and [`Program::build`] (a no-op finisher kept for readability) to
    /// obtain the final program.
    pub fn new(name: impl Into<String>) -> Program {
        Program {
            name: name.into(),
            threads: Vec::new(),
            locs: Interner::default(),
            init: BTreeMap::new(),
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Threads of the program.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// Number of shared locations mentioned.
    pub fn num_locs(&self) -> usize {
        self.locs.keys.len()
    }

    /// Name of a location.
    pub fn loc_name(&self, loc: Loc) -> &str {
        &self.locs.keys[loc.0 as usize]
    }

    /// Initial value of a location (0 unless set with
    /// [`Program::set_init`]).
    pub fn init_value(&self, loc: Loc) -> Value {
        *self.init.get(&loc).unwrap_or(&0)
    }

    /// Set the initial value of a location.
    pub fn set_init(&mut self, loc: &str, v: Value) {
        let l = self.intern(loc);
        self.init.insert(l, v);
    }

    /// Intern a location name.
    pub fn intern(&mut self, name: &str) -> Loc {
        self.locs.intern(name)
    }

    /// Look up an already-interned location.
    pub fn find_loc(&self, name: &str) -> Option<Loc> {
        self.locs.index.get(name).map(|&i| Loc(i))
    }

    /// Append a prebuilt thread body (program templates emit `Thread`
    /// values directly when they need forward jump patching that the
    /// structured builder cannot express).
    pub fn push_thread(&mut self, t: Thread) {
        self.threads.push(t);
    }

    /// Add a thread and return its builder.
    pub fn thread(&mut self) -> ThreadBuilder<'_> {
        self.threads.push(Thread::default());
        let instrs = &mut self.threads.last_mut().expect("just pushed").instrs;
        ThreadBuilder { locs: &mut self.locs, instrs, next_reg: 0 }
    }

    /// Finish building. Consumes nothing; exists so call sites read
    /// naturally (`p.build()`). Registers are not checked: one read
    /// before any write reads 0, as everywhere else in the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the program has no threads (a test bug).
    pub fn build(self) -> Program {
        assert!(!self.threads.is_empty(), "program {} has no threads", self.name);
        self
    }

    /// Total number of memory instructions across all threads.
    pub fn memory_op_count(&self) -> usize {
        self.threads.iter().map(|t| t.instrs.iter().filter(|i| i.is_memory()).count()).sum()
    }

    /// Classes used anywhere in the program.
    pub fn classes_used(&self) -> Vec<OpClass> {
        let mut out: Vec<OpClass> = Vec::new();
        for t in &self.threads {
            for i in &t.instrs {
                if let Some(c) = i.class() {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// Replace the thread list wholesale (used by annotation inference
    /// to edit a single instruction's class).
    pub(crate) fn replace_threads(&mut self, threads: Vec<Thread>) {
        self.threads = threads;
    }

    /// A copy of this program with its thread list replaced — name,
    /// locations and initial values are kept. Used by the conformance
    /// shrinker to delta-debug a disagreeing program.
    pub fn with_threads(&self, threads: Vec<Thread>) -> Program {
        let mut p = self.clone();
        p.threads = threads;
        p
    }

    /// Rewrite every memory operation's class through `f` — used by the
    /// checkers to view a DRFrlx program through DRF0/DRF1 eyes.
    pub fn map_classes(&self, f: impl Fn(OpClass) -> OpClass) -> Program {
        let mut p = self.clone();
        for t in &mut p.threads {
            for i in &mut t.instrs {
                match i {
                    Instr::Load { class, .. }
                    | Instr::Store { class, .. }
                    | Instr::Rmw { class, .. } => *class = f(*class),
                    _ => {}
                }
            }
        }
        p
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} ({} threads)", self.name, self.threads.len())
    }
}

/// Fluent builder for a single thread. Obtained from [`Program::thread`]
/// (locations interned into the program) or [`Body::build`] (locations
/// recorded in the body, where their index may vary per grid thread).
///
/// Each memory helper returns the destination register (for loads/RMWs)
/// so values can be threaded into later expressions.
#[derive(Debug)]
pub struct ThreadBuilder<'p> {
    locs: &'p mut dyn Locations,
    instrs: &'p mut Vec<Instr>,
    next_reg: u16,
}

impl<'p> ThreadBuilder<'p> {
    fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// `r = load(class, loc)`; returns `r`.
    pub fn load(&mut self, class: OpClass, loc: impl Into<Place>) -> Reg {
        let loc = self.locs.place(loc.into());
        let dst = self.fresh_reg();
        self.push(Instr::Load { class, loc, dst });
        dst
    }

    /// `store(class, loc, val)`.
    pub fn store(
        &mut self,
        class: OpClass,
        loc: impl Into<Place>,
        val: impl Into<Expr>,
    ) -> &mut Self {
        let loc = self.locs.place(loc.into());
        self.push(Instr::Store { class, loc, val: val.into() });
        self
    }

    /// `r = rmw(class, loc, op, operand)`; returns `r` (the old value).
    pub fn rmw(
        &mut self,
        class: OpClass,
        loc: impl Into<Place>,
        op: RmwOp,
        operand: impl Into<Expr>,
    ) -> Reg {
        let loc = self.locs.place(loc.into());
        let dst = self.fresh_reg();
        self.push(Instr::Rmw {
            class,
            loc,
            op,
            operand: operand.into(),
            operand2: Expr::Const(0),
            dst,
        });
        dst
    }

    /// Compare-and-swap: writes `new` if the location holds `expected`;
    /// returns the register holding the old value.
    pub fn cas(
        &mut self,
        class: OpClass,
        loc: impl Into<Place>,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
    ) -> Reg {
        let loc = self.locs.place(loc.into());
        let dst = self.fresh_reg();
        self.push(Instr::Rmw {
            class,
            loc,
            op: RmwOp::Cas,
            operand: new.into(),
            operand2: expected.into(),
            dst,
        });
        dst
    }

    /// Local computation `r = expr`; returns `r`.
    pub fn assign(&mut self, expr: impl Into<Expr>) -> Reg {
        let dst = self.fresh_reg();
        self.push(Instr::Assign { dst, expr: expr.into() });
        dst
    }

    /// Control-dependency marker on `cond` (see [`Instr::BranchOn`]).
    pub fn branch_on(&mut self, cond: impl Into<Expr>) -> &mut Self {
        self.push(Instr::BranchOn { cond: cond.into() });
        self
    }

    /// Observation marker on `expr` (see [`Instr::Observe`]).
    pub fn observe(&mut self, expr: impl Into<Expr>) -> &mut Self {
        self.push(Instr::Observe { expr: expr.into() });
        self
    }

    /// Structured conditional: `body` executes only when `cond` is
    /// non-zero. Lowered to a forward [`Instr::JumpIfZero`].
    ///
    /// Registers defined inside the body must not be consumed after the
    /// join — when the body is skipped they remain undefined (they read
    /// as 0 in the SC enumerator and stall the relaxed machine).
    pub fn if_nz(&mut self, cond: impl Into<Expr>, body: impl FnOnce(&mut ThreadBuilder<'_>)) {
        let at = self.instrs.len();
        self.push(Instr::JumpIfZero { cond: cond.into(), skip: 0 });
        body(self);
        let end = self.instrs.len();
        match &mut self.instrs[at] {
            Instr::JumpIfZero { skip, .. } => *skip = end - at - 1,
            _ => unreachable!(),
        }
    }

    /// Structured conditional on `cond == 0`: `body` executes only when
    /// `cond` is zero.
    pub fn if_z(&mut self, cond: impl Into<Expr>, body: impl FnOnce(&mut ThreadBuilder<'_>)) {
        let c = Expr::bin(BinOp::Eq, cond.into(), Expr::Const(0));
        self.if_nz(c, body);
    }

    /// Timing hint: `cycles` of local busy work (see [`Instr::Think`]).
    pub fn think(&mut self, cycles: u32) -> &mut Self {
        self.push(Instr::Think { cycles });
        self
    }

    /// Block-level barrier (see [`Instr::Barrier`]).
    pub fn barrier(&mut self) -> &mut Self {
        self.push(Instr::Barrier);
        self
    }

    /// `r = scratch[addr]`; returns `r` (see [`Instr::ScratchLoad`]).
    pub fn scratch_load(&mut self, addr: impl Into<Expr>) -> Reg {
        let dst = self.fresh_reg();
        self.push(Instr::ScratchLoad { addr: addr.into(), dst });
        dst
    }

    /// `scratch[addr] = val` (see [`Instr::ScratchStore`]).
    pub fn scratch_store(&mut self, addr: impl Into<Expr>, val: impl Into<Expr>) -> &mut Self {
        self.push(Instr::ScratchStore { addr: addr.into(), val: val.into() });
        self
    }
}

impl Locations for Program {
    fn place(&mut self, place: Place) -> Loc {
        self.locs.place(place)
    }
}

// ---------------------------------------------------------------------
// Grid programs: one body per thread shape, instantiated per grid thread.
// ---------------------------------------------------------------------

/// An integer that may differ between the grid threads sharing one
/// [`Body`]: a location index or a scratch address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GridValue {
    /// `base + per_block * block + per_thread * thread`. With zero
    /// strides this is a constant; `per_block = tpb * s` and
    /// `per_thread = s` make it affine in the global id.
    Affine {
        /// Value at block 0, thread 0.
        base: Value,
        /// Step per block.
        per_block: Value,
        /// Step per thread within a block.
        per_thread: Value,
    },
    /// Column `n` of the grid thread's table row: a value that is data,
    /// not geometry (a histogram's bin choice, a modular object walk).
    Column(usize),
}

impl GridValue {
    /// `base + per_block * block + per_thread * thread`.
    pub const fn affine(base: Value, per_block: Value, per_thread: Value) -> GridValue {
        GridValue::Affine { base, per_block, per_thread }
    }

    /// The value, when it is the same for every grid thread.
    pub fn as_constant(self) -> Option<Value> {
        match self {
            GridValue::Affine { base, per_block: 0, per_thread: 0 } => Some(base),
            _ => None,
        }
    }

    /// The value for grid thread `(block, thread)` with table row `row`.
    fn eval(self, block: usize, thread: usize, row: &[Value]) -> Value {
        match self {
            GridValue::Affine { base, per_block, per_thread } => {
                base + per_block * block as Value + per_thread * thread as Value
            }
            GridValue::Column(n) => row[n],
        }
    }
}

/// The same value for every grid thread.
impl From<usize> for GridValue {
    fn from(v: usize) -> GridValue {
        GridValue::affine(v as Value, 0, 0)
    }
}

/// A location as a template names it: a bare `family` (`"stop"`), or a
/// family followed by a decimal index (`"b17"`) that may vary per grid
/// thread. Keeping the index apart from the name lets a lowering place
/// `{family}{i}` at `base + stride * i` without parsing names.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Place {
    /// Name, or name prefix when indexed.
    pub family: String,
    /// Index appended to the family.
    pub index: Option<GridValue>,
}

impl Place {
    /// `{family}{index}`.
    pub fn at(family: &str, index: impl Into<GridValue>) -> Place {
        Place { family: family.to_string(), index: Some(index.into()) }
    }

    /// The name for grid thread `(block, thread)` with table row `row`.
    fn name_at(&self, block: usize, thread: usize, row: &[Value]) -> String {
        match self.index {
            None => self.family.clone(),
            Some(v) => format!("{}{}", self.family, v.eval(block, thread, row)),
        }
    }

    /// The name of a place whose index does not vary.
    ///
    /// # Panics
    ///
    /// Panics if the index varies per grid thread: such a place only
    /// exists in a [`Body`].
    pub fn fixed_name(&self) -> String {
        assert!(
            self.index.is_none_or(|v| v.as_constant().is_some()),
            "location `{}` varies per grid thread; name it in a Body",
            self.family
        );
        self.name_at(0, 0, &[])
    }
}

impl From<&str> for Place {
    fn from(name: &str) -> Place {
        Place { family: name.to_string(), index: None }
    }
}

impl From<String> for Place {
    fn from(family: String) -> Place {
        Place { family, index: None }
    }
}

impl From<&String> for Place {
    fn from(name: &String) -> Place {
        Place::from(name.as_str())
    }
}

impl From<&Place> for Place {
    fn from(place: &Place) -> Place {
        place.clone()
    }
}

/// Where a [`ThreadBuilder`] or a template interns the locations it
/// names: a [`Program`] (fixed names) or a [`Body`] (names that may vary
/// per grid thread).
pub trait Locations: fmt::Debug {
    /// The location `place` names, interned on first use.
    fn place(&mut self, place: Place) -> Loc;
}

/// A thread written once for every grid thread that runs it.
///
/// `thread` is an ordinary flat [`Thread`] whose `Loc(k)` names
/// `places()[k]`, listed in first-use order. The values that differ per
/// grid thread are the place indices and the scratch addresses listed
/// in `scratch_values()`; [`Grid::instantiate`] substitutes them to
/// produce the flat thread a builder would write for one grid thread.
#[derive(Debug, Clone, Default)]
pub struct Body {
    /// The instructions.
    pub thread: Thread,
    places: Interner<Place>,
    /// `(instruction, address)`: scratch instructions whose address is
    /// a grid value (their own `addr` is a placeholder).
    scratch: Vec<(usize, GridValue)>,
}

impl Body {
    /// A body written by `f` through a fresh [`ThreadBuilder`].
    pub fn build(f: impl FnOnce(&mut ThreadBuilder<'_>)) -> Body {
        let mut body = Body::default();
        let Body { thread, places, .. } = &mut body;
        f(&mut ThreadBuilder { locs: places, instrs: &mut thread.instrs, next_reg: 0 });
        body
    }

    /// Locations, indexed by the body's `Loc`s.
    pub fn places(&self) -> &[Place] {
        &self.places.keys
    }

    /// Scratch instructions whose address varies: `(instruction, address)`.
    pub fn scratch_values(&self) -> &[(usize, GridValue)] {
        &self.scratch
    }

    /// Make instruction `at` (a scratch load or store) address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if instruction `at` is not a scratch access.
    pub fn vary_scratch(&mut self, at: usize, addr: GridValue) {
        assert!(
            matches!(
                self.thread.instrs[at],
                Instr::ScratchLoad { .. } | Instr::ScratchStore { .. }
            ),
            "instruction {at} is not a scratch access"
        );
        self.scratch.push((at, addr));
    }

    /// Table columns a grid thread running this body must supply.
    pub fn columns(&self) -> usize {
        let indices = self.places.keys.iter().filter_map(|p| p.index);
        indices
            .chain(self.scratch.iter().map(|&(_, v)| v))
            .filter_map(|v| match v {
                GridValue::Column(n) => Some(n + 1),
                GridValue::Affine { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }
}

impl Locations for Body {
    fn place(&mut self, place: Place) -> Loc {
        self.places.place(place)
    }
}

/// A program over a `blocks × tpb` grid, written as a few [`Body`]s.
///
/// Grid thread `gid` (block-major, `gid = block * tpb + thread`) runs
/// one body with one row of that body's table. The simulator lowering
/// compiles each body once; [`Grid::program`] instantiates every grid
/// thread into the flat [`Program`] the checkers and the emitter read.
#[derive(Debug, Clone)]
pub struct Grid {
    name: String,
    tpb: usize,
    bodies: Vec<GridBody>,
    /// Per grid thread: `(body, row of that body's table)`.
    cells: Vec<(u32, u32)>,
    init: Vec<(Place, Value)>,
}

#[derive(Debug, Clone)]
struct GridBody {
    body: Body,
    columns: usize,
    /// Row-major, `columns` values per row.
    table: Vec<Value>,
}

impl Grid {
    /// An empty grid of `tpb` threads per block.
    ///
    /// # Panics
    ///
    /// Panics if `tpb` is zero.
    pub fn new(name: impl Into<String>, tpb: usize) -> Grid {
        assert!(tpb > 0, "a grid block needs at least one thread");
        Grid { name: name.into(), tpb, bodies: Vec::new(), cells: Vec::new(), init: Vec::new() }
    }

    /// Every thread of `p` as its own body with no grid values, one
    /// program thread per grid thread in order. The bodies keep the
    /// program's whole location table, so instantiation reproduces `p`.
    pub fn from_program(p: &Program, tpb: usize) -> Grid {
        let mut g = Grid::new(p.name(), tpb);
        let mut places = Body::default();
        for name in &p.locs.keys {
            places.place(Place::from(name));
        }
        for t in p.threads() {
            let id = g.add_body(Body { thread: t.clone(), ..places.clone() });
            g.push(id, &[]);
        }
        for (&l, &v) in &p.init {
            g.set_init(p.loc_name(l), v);
        }
        g
    }

    /// Add a body; returns its id for [`Grid::push`].
    pub fn add_body(&mut self, body: Body) -> usize {
        let columns = body.columns();
        self.bodies.push(GridBody { body, columns, table: Vec::new() });
        self.bodies.len() - 1
    }

    /// Append the next grid thread: it runs body `body` with table row
    /// `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not have the body's column count.
    pub fn push(&mut self, body: usize, row: &[Value]) {
        let b = &mut self.bodies[body];
        assert_eq!(row.len(), b.columns, "body {body} takes {} table columns", b.columns);
        let r = b.table.len().checked_div(b.columns).unwrap_or(0);
        b.table.extend_from_slice(row);
        let cell = (u32::try_from(body), u32::try_from(r));
        self.cells.push((cell.0.expect("< 2^32 bodies"), cell.1.expect("< 2^32 table rows")));
    }

    /// Initial value of a location; its index must not vary.
    pub fn set_init(&mut self, place: impl Into<Place>, v: Value) {
        self.init.push((place.into(), v));
    }

    /// The grid's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Threads per block.
    pub fn tpb(&self) -> usize {
        self.tpb
    }

    /// Grid threads pushed so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no grid thread has been pushed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Distinct bodies.
    pub fn body_count(&self) -> usize {
        self.bodies.len()
    }

    /// Body `id`.
    pub fn body(&self, id: usize) -> &Body {
        &self.bodies[id].body
    }

    /// Body `id`'s table: row-major, `body(id).columns()` values per row.
    pub fn table(&self, id: usize) -> &[Value] {
        &self.bodies[id].table
    }

    /// Grid thread `gid`'s body and table row index.
    pub fn cell(&self, gid: usize) -> (usize, usize) {
        let (b, r) = self.cells[gid];
        (b as usize, r as usize)
    }

    /// Grid thread `gid`'s body and table row.
    fn body_row(&self, gid: usize) -> (&Body, &[Value]) {
        let (b, r) = self.cell(gid);
        let gb = &self.bodies[b];
        (&gb.body, &gb.table[r * gb.columns..(r + 1) * gb.columns])
    }

    /// Initial values, in the order they were set.
    pub fn init(&self) -> &[(Place, Value)] {
        &self.init
    }

    /// The flat thread grid thread `gid` runs, with its locations
    /// interned into `p` in the body's first-use order: the same names,
    /// `Loc` order and register numbering as a builder writing that
    /// thread directly.
    pub fn instantiate(&self, gid: usize, p: &mut Program) -> Thread {
        let (body, row) = self.body_row(gid);
        let (block, thread) = (gid / self.tpb, gid % self.tpb);
        let locs: Vec<Loc> =
            body.places().iter().map(|pl| p.intern(&pl.name_at(block, thread, row))).collect();
        let mut t = body.thread.clone();
        for i in &mut t.instrs {
            if let Instr::Load { loc, .. } | Instr::Store { loc, .. } | Instr::Rmw { loc, .. } = i {
                *loc = locs[loc.0 as usize];
            }
        }
        for &(at, v) in &body.scratch {
            if let Instr::ScratchLoad { addr, .. } | Instr::ScratchStore { addr, .. } =
                &mut t.instrs[at]
            {
                *addr = Expr::Const(v.eval(block, thread, row));
            }
        }
        t
    }

    /// Every grid thread instantiated in order, then the initial values.
    pub fn program(&self) -> Program {
        let mut p = Program::new(self.name.clone());
        for gid in 0..self.cells.len() {
            let t = self.instantiate(gid, &mut p);
            p.push_thread(t);
        }
        for (place, v) in &self.init {
            p.set_init(&place.fixed_name(), *v);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval_and_deps() {
        let mut regs = BTreeMap::new();
        regs.insert(Reg(0), 5);
        regs.insert(Reg(1), 3);
        let e = Expr::bin(
            BinOp::Add,
            Expr::Reg(Reg(0)),
            Expr::bin(BinOp::Max, Expr::Reg(Reg(1)), Expr::Const(4)),
        );
        assert_eq!(e.eval(&regs), 9);
        let mut deps = Vec::new();
        e.regs_read(&mut deps);
        assert_eq!(deps, vec![Reg(0), Reg(1)]);
    }

    #[test]
    fn expr_comparison_ops() {
        let regs = BTreeMap::new();
        assert_eq!(Expr::bin(BinOp::Eq, 3.into(), 3.into()).eval(&regs), 1);
        assert_eq!(Expr::bin(BinOp::Ne, 3.into(), 3.into()).eval(&regs), 0);
        assert_eq!(Expr::bin(BinOp::Lt, 2.into(), 3.into()).eval(&regs), 1);
        assert_eq!(Expr::bin(BinOp::Min, 2.into(), 3.into()).eval(&regs), 2);
        assert_eq!(Expr::bin(BinOp::Sub, 2.into(), 3.into()).eval(&regs), -1);
        assert_eq!(Expr::bin(BinOp::Xor, 6.into(), 3.into()).eval(&regs), 5);
        assert_eq!(Expr::bin(BinOp::And, 6.into(), 3.into()).eval(&regs), 2);
        assert_eq!(Expr::bin(BinOp::Or, 6.into(), 3.into()).eval(&regs), 7);
    }

    #[test]
    fn rmw_semantics() {
        assert_eq!(RmwOp::FetchAdd.apply(10, 5, 0), 15);
        assert_eq!(RmwOp::FetchSub.apply(10, 5, 0), 5);
        assert_eq!(RmwOp::FetchMin.apply(10, 5, 0), 5);
        assert_eq!(RmwOp::FetchMax.apply(10, 5, 0), 10);
        assert_eq!(RmwOp::Exchange.apply(10, 5, 0), 5);
        assert_eq!(RmwOp::FetchAnd.apply(0b110, 0b011, 0), 0b010);
        assert_eq!(RmwOp::FetchOr.apply(0b110, 0b011, 0), 0b111);
        assert_eq!(RmwOp::FetchXor.apply(0b110, 0b011, 0), 0b101);
        // CAS hits and misses.
        assert_eq!(RmwOp::Cas.apply(7, 42, 7), 42);
        assert_eq!(RmwOp::Cas.apply(8, 42, 7), 8);
    }

    #[test]
    fn builder_interns_locations_once() {
        let mut p = Program::new("t");
        let t = &mut p.thread();
        t.store(OpClass::Data, "x", 1);
        t.store(OpClass::Data, "x", 2);
        t.store(OpClass::Data, "y", 3);
        let p = p.build();
        assert_eq!(p.num_locs(), 2);
        assert_eq!(p.loc_name(Loc(0)), "x");
        assert_eq!(p.loc_name(Loc(1)), "y");
        assert_eq!(p.memory_op_count(), 3);
    }

    #[test]
    fn builder_returns_fresh_registers() {
        let mut p = Program::new("t");
        let mut t = p.thread();
        let r0 = t.load(OpClass::Paired, "x");
        let r1 = t.rmw(OpClass::Paired, "y", RmwOp::FetchAdd, 1);
        assert_ne!(r0, r1);
    }

    #[test]
    fn map_classes_rewrites_annotations() {
        let mut p = Program::new("t");
        let mut t = p.thread();
        t.load(OpClass::Quantum, "x");
        t.store(OpClass::Commutative, "y", 1);
        let p = p.build();
        let q = p.map_classes(|c| if c.is_relaxed() { OpClass::Paired } else { c });
        assert_eq!(q.classes_used(), vec![OpClass::Paired]);
        // Original untouched.
        assert!(p.classes_used().contains(&OpClass::Quantum));
    }

    #[test]
    fn init_values_default_to_zero() {
        let mut p = Program::new("t");
        p.set_init("x", 7);
        let mut t = p.thread();
        t.load(OpClass::Data, "x");
        t.load(OpClass::Data, "y");
        let p = p.build();
        let x = p.find_loc("x").unwrap();
        let y = p.find_loc("y").unwrap();
        assert_eq!(p.init_value(x), 7);
        assert_eq!(p.init_value(y), 0);
    }

    #[test]
    #[should_panic(expected = "no threads")]
    fn empty_program_rejected() {
        let _ = Program::new("empty").build();
    }
}
