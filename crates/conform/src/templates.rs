//! The template conformance corpus: richer instances of the shared
//! [`drfrlx_bridge::templates`] emitters, sized between the Table-1
//! litmus programs (one instruction per shape point) and the
//! grid-scale micro workloads (thousands of threads).
//!
//! The Table-1 corpus ([`crate::harness::table1_corpus`]) pins the
//! paper's exact listings; this corpus turns the *same* template
//! knobs the micro workloads use — bounded polls, think delays,
//! multiple sweeps, seqlock retry loops, and the scratch + barrier
//! histogram privatisation — so the conformance loop exercises every
//! instruction family the pipeline can lower ([`Instr::Think`],
//! [`Instr::Barrier`], scratch) end-to-end: template → `Program` →
//! [`ProgramKernel::litmus`] → nine protocol × model configurations →
//! axiomatic oracle.
//!
//! Programs with a barrier or scratch accesses lower to a single
//! block (see [`ProgramKernel::litmus`]); everything else keeps the
//! one-thread-per-block litmus layout.
//!
//! [`Instr::Think`]: drfrlx_core::program::Instr::Think
//! [`Instr::Barrier`]: drfrlx_core::program::Instr::Barrier
//! [`ProgramKernel::litmus`]: drfrlx_bridge::ProgramKernel::litmus

use drfrlx_bridge::templates::{
    event_counter, flags, hist, ref_counter, seqlock, split_counter, work_queue,
};
use drfrlx_core::program::{Place, Program};
use drfrlx_core::OpClass;

/// Work queue whose producer publishes by *bumping* the occupancy
/// (the micro family's fetch-add publish) instead of storing 1; the
/// consumer polls unpaired and re-checks paired, as in Listing 1.
pub fn work_queue_fadd_publish() -> Program {
    let mut p = Program::new("tmpl_work_queue_fadd");
    {
        let mut t = p.thread();
        work_queue::producer(
            &mut t,
            "task",
            7,
            &work_queue::Publish::Fadd(OpClass::Paired, "occupancy".into()),
        );
    }
    {
        let mut t = p.thread();
        work_queue::consumer(
            &mut t,
            &[(OpClass::Unpaired, "occupancy".into())],
            Some((OpClass::Paired, "occupancy".into())),
            "task",
        );
    }
    p.build()
}

/// Event counter with three workers of distinct amounts — the main
/// thread joins through three paired flags before reading the bin.
pub fn event_counter_three_workers() -> Program {
    let mut p = Program::new("tmpl_event_counter3");
    for (amount, done) in [(1, "done0"), (2, "done1"), (4, "done2")] {
        let mut t = p.thread();
        event_counter::worker(
            &mut t,
            &event_counter::Worker {
                bin_class: OpClass::Commutative,
                op: drfrlx_core::RmwOp::FetchAdd,
                amount,
                observe: false,
                done: Some((OpClass::Paired, done.into())),
            },
        );
    }
    {
        let mut t = p.thread();
        event_counter::main(
            &mut t,
            &[
                (OpClass::Paired, "done0".into()),
                (OpClass::Paired, "done1".into()),
                (OpClass::Paired, "done2".into()),
            ],
            OpClass::Data,
        );
    }
    p.build()
}

/// Flags at micro shape: a worker that polls twice with think cycles
/// between iterations and exits through the fetch-add handshake, and
/// a main thread that delays, joins, and reads `dirty` under guard.
pub fn flags_polling_worker() -> Program {
    let mut p = Program::new("tmpl_flags_poll2");
    let worker = flags::worker(
        &mut p,
        &flags::Worker {
            stop_class: OpClass::NonOrdering,
            dirty_class: OpClass::Commutative,
            polls: 2,
            think: 2,
            dirty_every: 1,
            last_poll_works: true,
            observe_poll: false,
            exit: flags::Exit::Fadd(OpClass::Paired),
        },
    );
    p.push_thread(worker);
    let main = flags::main(
        &mut p,
        &flags::Main {
            delay: Some(3),
            stop_class: OpClass::NonOrdering,
            exited_class: OpClass::Paired,
            join_polls: 2,
            join_target: 1,
            tail: flags::Tail::GuardedObserveDirty(OpClass::NonOrdering),
        },
    );
    p.push_thread(main);
    p.build()
}

/// Split counter at micro shape: two quantum updaters and a reader
/// doing two sweeps separated by think cycles, publishing the final
/// sum into memory as the grid kernels do. (Quantum ops stay few:
/// the programmer-centric checker's quantum transformation explores
/// `|domain|^k` executions.)
pub fn split_counter_two_sweeps() -> Program {
    let shape = split_counter::Shape {
        counters: vec!["c0".into(), "c1".into()],
        increments: 1,
        sweeps: 2,
        think_between_sweeps: 2,
        update_class: OpClass::Quantum,
        read_class: OpClass::Quantum,
    };
    let mut p = Program::new("tmpl_split_counter_sweeps");
    for c in ["c0", "c1"] {
        let mut t = p.thread();
        split_counter::updater(&mut t, &shape, c);
    }
    {
        let mut t = p.thread();
        split_counter::reader(&mut t, &shape, Some("sum".into()));
    }
    p.build()
}

/// Reference counter at micro shape: two visitors with think cycles
/// between the increment and the decrement — the grid kernels' work
/// phase. (One object: every extra quantum RMW multiplies the
/// checker's quantum transformation by `|domain|`.)
pub fn ref_counter_think() -> Program {
    let shape = ref_counter::Shape {
        count_class: OpClass::Quantum,
        mark_class: OpClass::Commutative,
        think: 2,
    };
    let objs =
        [ref_counter::Obj { count: "refcount".into(), mark: "marked".into(), mark_value: 1 }];
    let mut p = Program::new("tmpl_ref_counter_think");
    for _ in 0..2 {
        let mut t = p.thread();
        ref_counter::visit(&mut t, &shape, &objs);
    }
    p.build()
}

/// Seqlock at micro shape: the writer runs two lock/publish rounds
/// over two payload words, and the reader retries up to twice before
/// giving up, observing only sequence-checked values.
pub fn seqlock_retry_reader() -> Program {
    let payloads: Vec<Place> = vec!["d0".into(), "d1".into()];
    let mut p = Program::new("tmpl_seqlock_retry");
    {
        let mut t = p.thread();
        seqlock::writer(
            &mut t,
            &seqlock::Writer {
                lock: true,
                lock_class: OpClass::Paired,
                unlock_class: OpClass::Paired,
                payload_class: OpClass::Speculative,
                payloads: payloads.clone(),
                writes: 2,
            },
            |w, i| (10 * (w + 1) + i) as i64,
        );
    }
    let reader = seqlock::reader(
        &mut p,
        &seqlock::Reader {
            seq0_class: OpClass::Paired,
            seq1_class: OpClass::Paired,
            payload_class: OpClass::Speculative,
            payloads,
            reads: 1,
            max_retries: 2,
            tail: seqlock::Tail::ObserveChecked,
        },
    );
    p.push_thread(reader);
    p.build()
}

/// Scratch-privatised histogram: two threads in one block count two
/// inputs each into private scratch rows, rendezvous at the barrier,
/// then each merges its owned bin into global memory — the only
/// corpus program lowering [`Instr::Think`]-free scratch + barrier
/// code, and the end-to-end proof that the enumerator's rendezvous
/// and shared-scratch semantics agree with the engine's.
///
/// [`Instr::Think`]: drfrlx_core::program::Instr::Think
pub fn hist_scratch_barrier() -> Program {
    let shape = hist::Shape { bins: 2, per_thread: 2, tpb: 2, merge_class: OpClass::Commutative };
    let bin_of = |_b: usize, t: usize, i: usize| (t + i) % 2;
    let mut p = hist::local_grid("tmpl_hist_scratch", &shape, 1, &bin_of).program();
    // Every input counts: bin_of decides the bin, not the value.
    for i in 0..shape.tpb * shape.per_thread {
        p.set_init(&format!("i{i}"), 1 + i as i64);
    }
    p.build()
}

/// The template corpus as `(name, program)` pairs, in report order.
pub fn template_corpus() -> Vec<(String, Program)> {
    [
        work_queue_fadd_publish(),
        event_counter_three_workers(),
        flags_polling_worker(),
        split_counter_two_sweeps(),
        ref_counter_think(),
        seqlock_retry_reader(),
        hist_scratch_barrier(),
    ]
    .into_iter()
    .map(|p| (p.name().to_string(), p))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::{check_program, MemoryModel};

    /// Every template-corpus program carries the correct labels: the
    /// programmer-centric DRFrlx model must find it race-free — the
    /// same verdict the Table-1 instances of these templates get.
    #[test]
    fn template_corpus_is_drfrlx_race_free() {
        for (name, p) in template_corpus() {
            let r = check_program(&p, MemoryModel::Drfrlx);
            assert!(
                r.is_race_free(),
                "{name} must be race-free under DRFrlx; found: {:?}",
                r.races.iter().map(|f| &f.description).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn hist_program_uses_scratch_and_barrier() {
        use drfrlx_core::program::Instr;
        let p = hist_scratch_barrier();
        let has = |f: &dyn Fn(&Instr) -> bool| p.threads().iter().any(|t| t.instrs.iter().any(f));
        assert!(has(&|i| matches!(i, Instr::Barrier)));
        assert!(has(&|i| matches!(i, Instr::ScratchLoad { .. })));
        assert!(has(&|i| matches!(i, Instr::ScratchStore { .. })));
    }
}
