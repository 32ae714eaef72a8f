//! Shared program-shape templates: the single source for litmus use-cases
//! and micro workloads.
//!
//! Each family in this module emits threads from a small set of knobs.
//! The *litmus* instantiations (`crates/litmus/usecases.rs` and
//! `mislabeled.rs`) use tiny parameters (one poll, one visit, one section)
//! and `observe` tails so the axiomatic checkers can enumerate them; the
//! *grid* instantiations (`crates/workloads/micro/*`) use full-scale
//! parameters and publish results through stores so the simulator can
//! validate them. Both are lowered through
//! [`ProgramKernel`](crate::ProgramKernel), so an instruction-semantics bug
//! can only live in one place.
//!
//! Every emitter writes through a [`ThreadBuilder`] or a [`Locations`]
//! target, so the same code writes a litmus thread into a
//! [`Program`](drfrlx_core::program::Program) (fixed names) or a grid
//! [`Body`] once for all the grid threads that share it, with location
//! indices ([`Place`]) that vary per thread. Instantiating a body for one
//! grid thread yields the flat thread that grid thread runs, with the
//! same names, location order and registers as writing it directly.
//!
//! Two emission styles coexist:
//!
//! * small shapes (counters, queues, seqlock writers) go through
//!   [`ThreadBuilder`] exactly like the original hand-written litmus tests,
//!   guaranteeing instruction-for-instruction identity with the historical
//!   programs (and hence byte-identical `results/conform.txt`);
//! * data-dependent loops (flag polling, seqlock retry) are emitted
//!   *forward* with all loop-exit `JumpIfZero`s patched to the end of the
//!   region. Construction is O(n) in the unrolled length, early exit skips
//!   the whole tail in O(1) at run time, and skipped iterations issue zero
//!   memory operations — matching the hand-coded state machines these
//!   templates replaced, call for call.

use drfrlx_core::program::{
    BinOp, Body, Expr, Grid, GridValue, Instr, Locations, Place, Reg, RmwOp, Thread, ThreadBuilder,
    Value,
};
use drfrlx_core::OpClass;
use std::collections::BTreeMap;

/// Left-fold a non-empty register list with `op`. A single register folds
/// to a bare `Expr::Reg`, matching what the hand-written litmus tests
/// build for degenerate instances.
fn fold_regs(op: BinOp, regs: &[Reg]) -> Expr {
    let mut it = regs.iter();
    let first = *it.next().expect("fold_regs needs at least one register");
    it.fold(Expr::Reg(first), |acc, r| Expr::bin(op, acc, Expr::Reg(*r)))
}

/// Split counter (paper §2: per-CU quantum sub-counters, relaxed reader).
pub mod split_counter {
    use super::*;

    /// Shape knobs shared by the litmus use-case and the `SC` micro.
    pub struct Shape {
        /// Sub-counter locations, in reader sweep order.
        pub counters: Vec<Place>,
        /// Increments each updater performs on its own sub-counter.
        pub increments: usize,
        /// Full read sweeps the reader performs (micro: 2; litmus: 1).
        pub sweeps: usize,
        /// Think cycles between sweeps (elided when 0).
        pub think_between_sweeps: u32,
        /// Class of the updater RMWs and reader loads (Quantum when
        /// correctly labelled).
        pub update_class: OpClass,
        /// Class of the reader loads (mislabeled variants diverge here).
        pub read_class: OpClass,
    }

    /// Updater thread: `increments` fetch-adds on one sub-counter.
    pub fn updater(t: &mut ThreadBuilder<'_>, shape: &Shape, counter: impl Into<Place>) {
        let counter = counter.into();
        for _ in 0..shape.increments {
            t.rmw(shape.update_class, &counter, RmwOp::FetchAdd, 1);
        }
    }

    /// Reader thread: `sweeps` sweeps over every sub-counter; the final
    /// sweep's sum is observed (litmus) or stored to `publish` (grid).
    pub fn reader(t: &mut ThreadBuilder<'_>, shape: &Shape, publish: Option<Place>) {
        let mut last_sweep: Vec<Reg> = Vec::new();
        for s in 0..shape.sweeps {
            if s > 0 && shape.think_between_sweeps > 0 {
                t.think(shape.think_between_sweeps);
            }
            last_sweep = shape.counters.iter().map(|c| t.load(shape.read_class, c)).collect();
        }
        let sum = fold_regs(BinOp::Add, &last_sweep);
        match publish {
            Some(out) => {
                t.store(OpClass::Data, out, sum);
            }
            None => {
                t.observe(sum);
            }
        }
    }
}

/// Reference counter (paper §2: quantum inc/dec, commutative mark).
pub mod ref_counter {
    use super::*;

    /// One object a visit touches: `(count_loc, mark_loc, mark_value)`.
    pub struct Obj {
        /// Reference-count location.
        pub count: Place,
        /// Mark location stored to when the count drops to zero.
        pub mark: Place,
        /// Value written to the mark location.
        pub mark_value: Value,
    }

    /// Shape knobs shared by the litmus use-case and the `RC` micro.
    pub struct Shape {
        /// Class of the inc/dec RMWs (Quantum when correctly labelled).
        pub count_class: OpClass,
        /// Class of the mark store (Commutative when correctly labelled).
        pub mark_class: OpClass,
        /// Think cycles between the incs and the decs (elided when 0).
        pub think: u32,
    }

    /// One visit: increment every object's count, work, then decrement
    /// each and mark it when this thread released the last reference.
    pub fn visit(t: &mut ThreadBuilder<'_>, shape: &Shape, objs: &[Obj]) {
        for o in objs {
            t.rmw(shape.count_class, &o.count, RmwOp::FetchAdd, 1);
        }
        if shape.think > 0 {
            t.think(shape.think);
        }
        for o in objs {
            let old = t.rmw(shape.count_class, &o.count, RmwOp::FetchSub, 1);
            let mark_class = shape.mark_class;
            let mark_value = o.mark_value;
            let mark = o.mark.clone();
            t.if_nz(Expr::bin(BinOp::Eq, old.into(), 1.into()), |t| {
                t.store(mark_class, &mark, mark_value);
            });
        }
    }
}

/// Flag-based termination (paper §2: non-ordering stop flag, commutative
/// dirty flag, paired exit handshake).
pub mod flags {
    use super::*;

    /// How a worker announces its exit.
    pub enum Exit {
        /// `store(class, "exited", 1)` — the litmus shape (one worker).
        Store(OpClass),
        /// `fetch_add(class, "exited", 1)` — the grid shape (many
        /// workers, main joins on the count).
        Fadd(OpClass),
    }

    /// Worker-side knobs.
    pub struct Worker {
        /// Class of the stop-flag polls.
        pub stop_class: OpClass,
        /// Class of the dirty-flag stores.
        pub dirty_class: OpClass,
        /// Maximum poll iterations before giving up.
        pub polls: usize,
        /// Think cycles of work per continuing iteration (elided when 0).
        pub think: u32,
        /// Store the dirty flag every `dirty_every`-th continuing
        /// iteration (0 disables; litmus uses 1, the micro uses 4).
        pub dirty_every: usize,
        /// Whether the final poll, if reached, still guards a work body
        /// (litmus: true — its single poll does work; grid: false — the
        /// poll-cap iteration just exits).
        pub last_poll_works: bool,
        /// Observe the first polled value (the `flags_stop_data`
        /// mislabeling uses the poll result directly).
        pub observe_poll: bool,
        /// Exit announcement.
        pub exit: Exit,
    }

    /// Emit a worker thread. Poll iterations are unrolled forward; every
    /// iteration's `stop != 0` test jumps straight to the exit
    /// announcement, so a stopped worker issues no further memory ops.
    pub fn worker(p: &mut impl Locations, w: &Worker) -> Thread {
        let stop = p.place("stop".into());
        let dirty = p.place("dirty".into());
        let exited = p.place("exited".into());
        let mut ins: Vec<Instr> = Vec::new();
        let mut exits: Vec<usize> = Vec::new();
        // Each polled value dies at its own guard, so every iteration
        // past the first shares one register: the unroll count is
        // bounded by the op stream, not the register file. Only the
        // first poll (observable via `observe_poll`) keeps its own.
        let mut reg = 0u16;
        let mut first_poll = None;
        for i in 0..w.polls {
            let s = Reg(reg.min(1));
            reg = (reg + 1).min(2);
            first_poll.get_or_insert(s);
            ins.push(Instr::Load { class: w.stop_class, loc: stop, dst: s });
            if i + 1 == w.polls && !w.last_poll_works {
                break;
            }
            exits.push(ins.len());
            ins.push(Instr::JumpIfZero {
                cond: Expr::bin(BinOp::Eq, Expr::Reg(s), Expr::Const(0)),
                skip: 0,
            });
            if w.think > 0 {
                ins.push(Instr::Think { cycles: w.think });
            }
            if w.dirty_every != 0 && (i + 1) % w.dirty_every == 0 {
                ins.push(Instr::Store { class: w.dirty_class, loc: dirty, val: Expr::Const(1) });
            }
        }
        let end = ins.len();
        for j in exits {
            let skip = end - j - 1;
            if let Instr::JumpIfZero { skip: s, .. } = &mut ins[j] {
                *s = skip;
            }
        }
        if w.observe_poll {
            let s = first_poll.expect("observe_poll requires at least one poll");
            ins.push(Instr::Observe { expr: Expr::Reg(s) });
        }
        match w.exit {
            Exit::Store(class) => {
                ins.push(Instr::Store { class, loc: exited, val: Expr::Const(1) })
            }
            Exit::Fadd(class) => {
                let dst = Reg(reg);
                ins.push(Instr::Rmw {
                    class,
                    loc: exited,
                    op: RmwOp::FetchAdd,
                    operand: Expr::Const(1),
                    operand2: Expr::Const(0),
                    dst,
                });
            }
        }
        Thread { instrs: ins }
    }

    /// What main does after the join completes.
    pub enum Tail {
        /// Observe the (single) join load — the `flags_stop_data` shape.
        ObserveJoin,
        /// `if joined { observe(load(dirty_class, "dirty")) }` — the
        /// litmus use-case shape.
        GuardedObserveDirty(OpClass),
        /// Unconditionally read the dirty flag and republish `dirty + 10`
        /// as Data — the grid shape (validated by the kernel).
        PublishDirty(OpClass),
    }

    /// Main-side knobs.
    pub struct Main {
        /// Think cycles before raising the stop flag. `Some(0)` still
        /// emits a zero-length think (the micro's op stream does);
        /// `None` elides it (the litmus shape).
        pub delay: Option<u32>,
        /// Class of the stop-flag store.
        pub stop_class: OpClass,
        /// Class of the exited-counter join loads.
        pub exited_class: OpClass,
        /// Maximum join polls (litmus: 1; grid: a bound comfortably above
        /// the worst-case worker runtime, checked by differential test).
        pub join_polls: usize,
        /// Join completes once the exited counter reaches this value.
        pub join_target: Value,
        /// Post-join behaviour.
        pub tail: Tail,
    }

    /// Emit the main thread: optional delay, stop store, join loop
    /// (unrolled forward, early-exit jumps patched to the join's end),
    /// then the tail.
    pub fn main(p: &mut impl Locations, m: &Main) -> Thread {
        let stop = p.place("stop".into());
        let dirty = p.place("dirty".into());
        let exited = p.place("exited".into());
        let mut ins: Vec<Instr> = Vec::new();
        let mut reg = 0u16;
        if let Some(d) = m.delay {
            ins.push(Instr::Think { cycles: d });
        }
        ins.push(Instr::Store { class: m.stop_class, loc: stop, val: Expr::Const(1) });
        let mut joins: Vec<usize> = Vec::new();
        // As in `worker`: join loads die at their guard, so iterations
        // past the first (whose value the `ObserveJoin` and
        // `GuardedObserveDirty` tails read) share one register.
        let first = reg;
        let mut first_join = None;
        for k in 0..m.join_polls {
            let j = Reg(reg.min(first + 1));
            reg = (reg + 1).min(first + 2);
            first_join.get_or_insert(j);
            ins.push(Instr::Load { class: m.exited_class, loc: exited, dst: j });
            if k + 1 == m.join_polls {
                break;
            }
            // Keep polling only while the count is still short.
            joins.push(ins.len());
            ins.push(Instr::JumpIfZero {
                cond: Expr::bin(BinOp::Lt, Expr::Reg(j), Expr::Const(m.join_target)),
                skip: 0,
            });
        }
        let end = ins.len();
        for j in joins {
            let skip = end - j - 1;
            if let Instr::JumpIfZero { skip: s, .. } = &mut ins[j] {
                *s = skip;
            }
        }
        let joined = first_join.expect("join_polls must be at least 1");
        match &m.tail {
            Tail::ObserveJoin => ins.push(Instr::Observe { expr: Expr::Reg(joined) }),
            Tail::GuardedObserveDirty(class) => {
                let d = Reg(reg);
                ins.push(Instr::JumpIfZero { cond: Expr::Reg(joined), skip: 2 });
                ins.push(Instr::Load { class: *class, loc: dirty, dst: d });
                ins.push(Instr::Observe { expr: Expr::Reg(d) });
            }
            Tail::PublishDirty(class) => {
                let d = Reg(reg);
                ins.push(Instr::Load { class: *class, loc: dirty, dst: d });
                ins.push(Instr::Store {
                    class: OpClass::Data,
                    loc: dirty,
                    val: Expr::bin(BinOp::Add, Expr::Reg(d), Expr::Const(10)),
                });
            }
        }
        Thread { instrs: ins }
    }

    /// A bare `store(class, "dirty", value)` thread — the
    /// `flags_conflicting_dirty` mislabeling's whole worker.
    pub fn dirty_only(p: &mut impl Locations, class: OpClass, value: Value) -> Thread {
        let dirty = p.place("dirty".into());
        Thread { instrs: vec![Instr::Store { class, loc: dirty, val: Expr::Const(value) }] }
    }
}

/// Seqlock (paper §2: paired lock words, speculative payload reads).
pub mod seqlock {
    use super::*;

    /// Writer-side knobs.
    pub struct Writer {
        /// Guard payload stores with a CAS on the sequence word (the
        /// `seqlock_double_writer` mislabeling drops the lock).
        pub lock: bool,
        /// Class of the acquiring CAS.
        pub lock_class: OpClass,
        /// Class of the releasing sequence store.
        pub unlock_class: OpClass,
        /// Class of the payload stores.
        pub payload_class: OpClass,
        /// Payload locations.
        pub payloads: Vec<Place>,
        /// Number of writer sections.
        pub writes: usize,
    }

    /// Emit a writer thread. Each section `w` CASes the sequence word
    /// from `2w` to `2w+1`, stores `value(w, i)` to each payload slot,
    /// and releases with `2w+2`. With a single writer the CAS always
    /// succeeds, so guarding each section on its own CAS result is
    /// behaviourally identical to the retry loop it replaces.
    pub fn writer(
        t: &mut ThreadBuilder<'_>,
        w: &Writer,
        mut value: impl FnMut(usize, usize) -> Value,
    ) {
        for wr in 0..w.writes {
            let seq_even = (2 * wr) as Value;
            if w.lock {
                let old = t.cas(w.lock_class, "seq", seq_even, seq_even + 1);
                let locked = Expr::bin(BinOp::Eq, old.into(), Expr::Const(seq_even));
                let payloads = w.payloads.clone();
                let payload_class = w.payload_class;
                let unlock_class = w.unlock_class;
                let vals: Vec<Value> = (0..payloads.len()).map(|i| value(wr, i)).collect();
                t.if_nz(locked, |t| {
                    for (i, loc) in payloads.iter().enumerate() {
                        t.store(payload_class, loc, vals[i]);
                    }
                    t.store(unlock_class, "seq", seq_even + 2);
                });
            } else {
                for (i, loc) in w.payloads.iter().enumerate() {
                    t.store(w.payload_class, loc, value(wr, i));
                }
            }
        }
    }

    /// What the reader does with a completed snapshot.
    pub enum Tail {
        /// `if ok { observe each payload }` — the litmus use-case.
        ObserveChecked,
        /// Observe the payload regardless (and skip the second sequence
        /// read entirely) — the `seqlock_unconditional_use` mislabeling.
        ObserveUnchecked,
        /// Nothing: the grid micro validates final memory instead.
        None,
    }

    /// Reader-side knobs.
    pub struct Reader {
        /// Class of the opening sequence load.
        pub seq0_class: OpClass,
        /// Class of the closing sequence RMW (`fetch_add 0`).
        pub seq1_class: OpClass,
        /// Class of the payload loads.
        pub payload_class: OpClass,
        /// Payload locations.
        pub payloads: Vec<Place>,
        /// Snapshot sections to complete.
        pub reads: usize,
        /// Attempts per section before giving it up.
        pub max_retries: usize,
        /// Tail behaviour.
        pub tail: Tail,
    }

    /// Emit a reader thread.
    ///
    /// An attempt is: load `seq`, load each payload, re-read `seq` with a
    /// `fetch_add 0`, and compute `ok = (seq0 == seq1) && even(seq0)`.
    /// The litmus shape is a single attempt with an observe tail. The
    /// grid shape unrolls `reads * max_retries` attempts — the exact
    /// worst case of the retry loop it replaces — with per-attempt
    /// bookkeeping in registers: `done` counts completed sections,
    /// `retr` counts retries within the current section (a section
    /// force-completes at `max_retries` attempts), and every attempt
    /// after the first is guarded by `done < reads` jumping to the end.
    pub fn reader(p: &mut impl Locations, r: &Reader) -> Thread {
        let seq = p.place("seq".into());
        let pls: Vec<_> = r.payloads.iter().map(|l| p.place(l.clone())).collect();
        let attempts = r.reads * r.max_retries;
        assert!(attempts > 0, "seqlock reader needs at least one attempt");
        let mut ins: Vec<Instr> = Vec::new();
        let mut guards: Vec<usize> = Vec::new();
        let mut reg = 0u16;
        let fresh = |reg: &mut u16| {
            let r = Reg(*reg);
            *reg += 1;
            r
        };
        // One attempt: seq0 load, payload loads, closing `fetch_add 0`
        // (skipped by the unchecked mislabeling), returning the
        // consistency test and the snapshot registers.
        let skip_seq1 = matches!(r.tail, Tail::ObserveUnchecked);
        let attempt = |ins: &mut Vec<Instr>, reg: &mut u16| -> (Expr, Vec<Reg>) {
            let seq0 = fresh(reg);
            ins.push(Instr::Load { class: r.seq0_class, loc: seq, dst: seq0 });
            let vals: Vec<Reg> = pls
                .iter()
                .map(|l| {
                    let v = fresh(reg);
                    ins.push(Instr::Load { class: r.payload_class, loc: *l, dst: v });
                    v
                })
                .collect();
            if skip_seq1 {
                return (Expr::Const(1), vals);
            }
            let seq1 = fresh(reg);
            ins.push(Instr::Rmw {
                class: r.seq1_class,
                loc: seq,
                op: RmwOp::FetchAdd,
                operand: Expr::Const(0),
                operand2: Expr::Const(0),
                dst: seq1,
            });
            let same = Expr::bin(BinOp::Eq, Expr::Reg(seq0), Expr::Reg(seq1));
            let even = Expr::bin(
                BinOp::Eq,
                Expr::bin(BinOp::And, Expr::Reg(seq0), Expr::Const(1)),
                Expr::Const(0),
            );
            (Expr::bin(BinOp::And, same, even), vals)
        };
        if attempts == 1 && !matches!(r.tail, Tail::None) {
            // Litmus shape: one attempt, the ok test feeds the tail
            // directly — identical to the historical builder output.
            let (ok_expr, vals) = attempt(&mut ins, &mut reg);
            if matches!(r.tail, Tail::ObserveChecked) {
                ins.push(Instr::JumpIfZero { cond: ok_expr, skip: vals.len() });
            }
            for v in &vals {
                ins.push(Instr::Observe { expr: Expr::Reg(*v) });
            }
            return Thread { instrs: ins };
        }
        // Grid shape: unroll every attempt with register bookkeeping.
        // `done`/`retr` from the previous attempt (constants before the
        // first attempt has run).
        let mut done_prev: Option<Reg> = None;
        let mut retr_prev: Option<Reg> = None;
        for _ in 0..attempts {
            let (ok_expr, _vals) = attempt(&mut ins, &mut reg);
            let ok = fresh(&mut reg);
            ins.push(Instr::Assign { dst: ok, expr: ok_expr });
            let retr_e = retr_prev.map_or(Expr::Const(0), Expr::Reg);
            let done_e = done_prev.map_or(Expr::Const(0), Expr::Reg);
            // The section ends when the snapshot was consistent or this
            // was the section's last permitted attempt.
            let sec_end = fresh(&mut reg);
            ins.push(Instr::Assign {
                dst: sec_end,
                expr: Expr::bin(
                    BinOp::Or,
                    Expr::Reg(ok),
                    Expr::bin(BinOp::Eq, retr_e.clone(), Expr::Const((r.max_retries - 1) as Value)),
                ),
            });
            let done = fresh(&mut reg);
            ins.push(Instr::Assign {
                dst: done,
                expr: Expr::bin(BinOp::Add, done_e, Expr::Reg(sec_end)),
            });
            // retr' = (retr + 1) & (sec_end - 1): the mask is all-ones
            // while the section continues and zero when it ends.
            let retr = fresh(&mut reg);
            ins.push(Instr::Assign {
                dst: retr,
                expr: Expr::bin(
                    BinOp::And,
                    Expr::bin(BinOp::Add, retr_e, Expr::Const(1)),
                    Expr::bin(BinOp::Sub, Expr::Reg(sec_end), Expr::Const(1)),
                ),
            });
            done_prev = Some(done);
            retr_prev = Some(retr);
            guards.push(ins.len());
            ins.push(Instr::JumpIfZero {
                cond: Expr::bin(BinOp::Lt, Expr::Reg(done), Expr::Const(r.reads as Value)),
                skip: 0,
            });
        }
        // The trailing guard after the final attempt is dead weight.
        if guards.last() == Some(&(ins.len() - 1)) {
            guards.pop();
            ins.pop();
        }
        let end = ins.len();
        for g in guards {
            let skip = end - g - 1;
            if let Instr::JumpIfZero { skip: s, .. } = &mut ins[g] {
                *s = skip;
            }
        }
        Thread { instrs: ins }
    }
}

/// Histogram (paper §5: scratchpad-privatised vs global-atomic binning).
///
/// Each family is a [`Grid`] with one body per thread shape: grid thread
/// `gid` reads inputs `i{gid * per_thread + i}` (affine in the ids) and
/// bins value `i` into the bin `bin_of(block, thread, i)` chose for it
/// (a table column, since the choice is data).
pub mod hist {
    use super::*;

    /// Deterministic per-value bin assignment shared with the workload's
    /// `expected()` oracle (SplitMix64 over `(seed, block, thread, i)`).
    pub type BinOf = dyn Fn(usize, usize, usize) -> usize;

    /// Grid geometry and class knobs.
    pub struct Shape {
        /// Histogram bins.
        pub bins: usize,
        /// Values each thread processes.
        pub per_thread: usize,
        /// Threads per block (scratch tile is `tpb * bins` words).
        pub tpb: usize,
        /// Class of the global-memory merge RMWs.
        pub merge_class: OpClass,
    }

    impl Shape {
        /// Input `i` of the grid thread: `i{gid * per_thread + i}`.
        fn input(&self, i: usize) -> Place {
            let pt = self.per_thread as Value;
            Place::at("i", GridValue::affine(i as Value, self.tpb as Value * pt, pt))
        }
    }

    /// Scratchpad-privatised grid: each thread counts into a private
    /// scratch row, meets its block at the barrier, then merges its owned
    /// bins `thread, thread + tpb, ...` (one RMW per non-empty bin) into
    /// global memory. Threads owning equally many bins share one body.
    pub fn local_grid(name: &str, s: &Shape, blocks: usize, bin_of: &BinOf) -> Grid {
        let mut g = Grid::new(name, s.tpb);
        let mut bodies: BTreeMap<usize, usize> = BTreeMap::new();
        for block in 0..blocks {
            for thread in 0..s.tpb {
                let merges = s.bins.saturating_sub(thread).div_ceil(s.tpb);
                let id = *bodies.entry(merges).or_insert_with(|| g.add_body(local_body(s, merges)));
                let row: Vec<Value> = (0..s.per_thread)
                    .map(|i| (thread * s.bins + bin_of(block, thread, i)) as Value)
                    .collect();
                g.push(id, &row);
            }
        }
        g
    }

    /// The [`local_grid`] body of a thread merging `merges` bins. Table
    /// column `i` is value `i`'s scratch slot `thread * bins + bin`.
    fn local_body(s: &Shape, merges: usize) -> Body {
        let mut body = Body::default();
        let mut ins: Vec<Instr> = Vec::new();
        let mut scratch: Vec<(usize, GridValue)> = Vec::new();
        let mut reg = 0u16;
        for i in 0..s.per_thread {
            let input = body.place(s.input(i));
            let v = Reg(reg);
            reg += 1;
            ins.push(Instr::Load { class: OpClass::Data, loc: input, dst: v });
            let c = Reg(reg);
            reg += 1;
            scratch.push((ins.len(), GridValue::Column(i)));
            ins.push(Instr::ScratchLoad { addr: Expr::Const(0), dst: c });
            scratch.push((ins.len(), GridValue::Column(i)));
            ins.push(Instr::ScratchStore {
                addr: Expr::Const(0),
                val: Expr::bin(BinOp::Add, Expr::Reg(c), Expr::Const(1)),
            });
        }
        ins.push(Instr::Barrier);
        for k in 0..merges {
            // Bin `b = thread + k * tpb`, summed over every thread's row.
            let b = (k * s.tpb) as Value;
            let mut parts: Vec<Reg> = Vec::new();
            for t in 0..s.tpb {
                let r = Reg(reg);
                reg += 1;
                scratch.push((ins.len(), GridValue::affine((t * s.bins) as Value + b, 0, 1)));
                ins.push(Instr::ScratchLoad { addr: Expr::Const(0), dst: r });
                parts.push(r);
            }
            let acc = fold_regs(BinOp::Add, &parts);
            let global = body.place(Place::at("b", GridValue::affine(b, 0, 1)));
            ins.push(Instr::JumpIfZero { cond: acc.clone(), skip: 1 });
            ins.push(Instr::Rmw {
                class: s.merge_class,
                loc: global,
                op: RmwOp::FetchAdd,
                operand: acc,
                operand2: Expr::Const(0),
                dst: Reg(reg),
            });
            reg += 1;
        }
        body.thread = Thread { instrs: ins };
        for (at, addr) in scratch {
            body.vary_scratch(at, addr);
        }
        body
    }

    /// Global-atomic grid: one RMW straight to the global bin per value
    /// (the `HG` family; `update_class` is its only knob). One body;
    /// table column `i` is value `i`'s bin.
    pub fn global_grid(
        name: &str,
        s: &Shape,
        blocks: usize,
        update_class: OpClass,
        bin_of: &BinOf,
    ) -> Grid {
        let mut body = Body::default();
        let mut ins: Vec<Instr> = Vec::new();
        let mut reg = 0u16;
        for i in 0..s.per_thread {
            let input = body.place(s.input(i));
            let v = Reg(reg);
            reg += 1;
            ins.push(Instr::Load { class: OpClass::Data, loc: input, dst: v });
            let global = body.place(Place::at("b", GridValue::Column(i)));
            ins.push(Instr::Rmw {
                class: update_class,
                loc: global,
                op: RmwOp::FetchAdd,
                operand: Expr::Const(1),
                operand2: Expr::Const(0),
                dst: Reg(reg),
            });
            reg += 1;
        }
        body.thread = Thread { instrs: ins };
        let mut g = Grid::new(name, s.tpb);
        let id = g.add_body(body);
        for block in 0..blocks {
            for thread in 0..s.tpb {
                let row: Vec<Value> =
                    (0..s.per_thread).map(|i| bin_of(block, thread, i) as Value).collect();
                g.push(id, &row);
            }
        }
        g
    }

    /// Read-only non-ordering grid (the `HG-NO` family): each thread
    /// walks the bin array with relaxed loads along a strided
    /// pseudo-random sequence. One body; table column `i` is read `i`'s
    /// bin.
    pub fn nonorder_grid(
        name: &str,
        bins: usize,
        per_thread: usize,
        blocks: usize,
        tpb: usize,
    ) -> Grid {
        let mut body = Body::default();
        let mut ins: Vec<Instr> = Vec::new();
        for i in 0..per_thread {
            let loc = body.place(Place::at("b", GridValue::Column(i)));
            ins.push(Instr::Load { class: OpClass::NonOrdering, loc, dst: Reg(i as u16) });
        }
        body.thread = Thread { instrs: ins };
        let mut g = Grid::new(name, tpb);
        let id = g.add_body(body);
        let threads = blocks * tpb;
        for gid in 0..threads {
            let row: Vec<Value> = (0..per_thread)
                .map(|i| {
                    // Odd multiplier ⇒ bijection on a power-of-two table:
                    // spreads logically-adjacent reads across lines and CUs.
                    let k = gid as u64 + i as u64 * threads as u64;
                    (k.wrapping_mul(0x9E37_79B1) % bins as u64) as Value
                })
                .collect();
            g.push(id, &row);
        }
        g
    }
}

/// Work queue (paper §2: unpaired occupancy check, paired re-check).
pub mod work_queue {
    use super::*;

    /// How the producer publishes availability.
    pub enum Publish {
        /// `store(class, loc, 1)`.
        Store(OpClass, String),
        /// `fetch_add(class, loc, 1)` — the `unpublished_slot` shape.
        Fadd(OpClass, String),
    }

    /// Producer: store the task payload, then publish.
    pub fn producer(t: &mut ThreadBuilder<'_>, task: &str, task_value: Value, publish: &Publish) {
        t.store(OpClass::Data, task, task_value);
        match publish {
            Publish::Store(class, loc) => {
                t.store(*class, loc, 1);
            }
            Publish::Fadd(class, loc) => {
                t.rmw(*class, loc, RmwOp::FetchAdd, 1);
            }
        }
    }

    /// Consumer: poll one or more occupancy hints (folded with `|`),
    /// optionally re-check a paired flag, then consume the task.
    pub fn consumer(
        t: &mut ThreadBuilder<'_>,
        polls: &[(OpClass, String)],
        recheck: Option<(OpClass, String)>,
        task: &str,
    ) {
        let regs: Vec<Reg> = polls.iter().map(|(c, l)| t.load(*c, l)).collect();
        let any = fold_regs(BinOp::Or, &regs);
        let task = task.to_string();
        t.if_nz(any, |t| match &recheck {
            Some((class, loc)) => {
                let real = t.load(*class, loc);
                let task = task.clone();
                t.if_nz(real, move |t| {
                    let v = t.load(OpClass::Data, &task);
                    t.observe(v);
                });
            }
            None => {
                let v = t.load(OpClass::Data, &task);
                t.observe(v);
            }
        });
    }
}

/// Event counter (paper §2: commutative fetch-adds joined by paired
/// done flags).
pub mod event_counter {
    use super::*;

    /// One contributing worker.
    pub struct Worker {
        /// Class of the counting RMW.
        pub bin_class: OpClass,
        /// The RMW itself (the `noncommuting` mislabeling swaps in
        /// `Exchange`).
        pub op: RmwOp,
        /// Contribution.
        pub amount: Value,
        /// Observe the RMW's old value (the `observed` mislabeling).
        pub observe: bool,
        /// Done-flag store `(class, loc)`; `None` drops the handshake.
        pub done: Option<(OpClass, String)>,
    }

    /// Emit a worker thread onto `t`.
    pub fn worker(t: &mut ThreadBuilder<'_>, w: &Worker) {
        let old = t.rmw(w.bin_class, "bin", w.op, w.amount);
        if w.observe {
            t.observe(old);
        }
        if let Some((class, loc)) = &w.done {
            t.store(*class, loc, 1);
        }
    }

    /// Emit the main thread: load every done flag, fold with `&`, and
    /// read the counter under that guard.
    pub fn main(t: &mut ThreadBuilder<'_>, joins: &[(OpClass, String)], read_class: OpClass) {
        let regs: Vec<Reg> = joins.iter().map(|(c, l)| t.load(*c, l)).collect();
        let both = fold_regs(BinOp::And, &regs);
        t.if_nz(both, |t| {
            let total = t.load(read_class, "bin");
            t.observe(total);
        });
    }
}
