//! The Table 1 use cases as litmus programs, each annotated the way the
//! paper argues is correct. Every one must be race-free under DRFrlx.
//!
//! Each program is a *scaled-down instantiation* of the shared shape
//! templates in [`drfrlx_bridge::templates`] — the same emitters that,
//! at full grid scale, produce the micro workloads the simulator runs
//! (`crates/workloads/src/micro/`). The golden fixtures under
//! `tests/golden_emit/` pin these instances to the historical
//! hand-written builders instruction for instruction, so the checker,
//! the simulator, and the conformance harness all study one source of
//! truth.

use drfrlx_bridge::templates::{
    event_counter, flags as flags_t, ref_counter, seqlock, split_counter, work_queue,
};
use drfrlx_core::program::{Place, Program};
use drfrlx_core::OpClass;

/// Work Queue (Listing 1): a client enqueues a task and raises the
/// occupancy with a paired store; the service thread polls occupancy
/// with an **unpaired** load and, only if non-zero, re-checks with a
/// paired load before touching the task data. The unpaired poll never
/// orders data — the paired dequeue does.
pub fn work_queue() -> Program {
    let mut p = Program::new("work_queue");
    {
        let mut t = p.thread();
        work_queue::producer(
            &mut t,
            "task",
            42,
            &work_queue::Publish::Store(OpClass::Paired, "occupancy".into()),
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

/// Event Counter (Listing 2): workers bump shared counters with
/// **commutative** fetch-adds whose return values are ignored; the main
/// thread reads the totals only after paired join flags.
pub fn event_counter() -> Program {
    let mut p = Program::new("event_counter");
    for (amount, done) in [(1, "done0"), (2, "done1")] {
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
            &[(OpClass::Paired, "done0".into()), (OpClass::Paired, "done1".into())],
            OpClass::Data,
        );
    }
    p.build()
}

/// Flags (Listing 3): a worker polls `stop` with a **non-ordering**
/// load and raises `dirty` with a **commutative** store (always the
/// same value, hence commuting); the main thread raises `stop`
/// (non-ordering store), joins through a paired flag, and only then
/// reads `dirty` with a non-ordering load. The global barrier — not the
/// flags — orders everything that must be ordered.
pub fn flags() -> Program {
    let mut p = Program::new("flags");
    let worker = flags_t::worker(
        &mut p,
        &flags_t::Worker {
            stop_class: OpClass::NonOrdering,
            dirty_class: OpClass::Commutative,
            polls: 1,
            think: 0,
            dirty_every: 1,
            last_poll_works: true,
            observe_poll: false,
            exit: flags_t::Exit::Store(OpClass::Paired),
        },
    );
    p.push_thread(worker);
    let main = flags_t::main(
        &mut p,
        &flags_t::Main {
            delay: None,
            stop_class: OpClass::NonOrdering,
            exited_class: OpClass::Paired,
            join_polls: 1,
            join_target: 1,
            tail: flags_t::Tail::GuardedObserveDirty(OpClass::NonOrdering),
        },
    );
    p.push_thread(main);
    p.build()
}

/// Split Counter (Listing 4): updaters bump per-thread counters and a
/// reader sums them, all with **quantum** atomics — the reader accepts
/// any approximate partial sum.
pub fn split_counter() -> Program {
    let shape = split_counter::Shape {
        counters: vec!["c0".into(), "c1".into()],
        increments: 1,
        sweeps: 1,
        think_between_sweeps: 0,
        update_class: OpClass::Quantum,
        read_class: OpClass::Quantum,
    };
    let mut p = Program::new("split_counter");
    for c in ["c0", "c1"] {
        let mut t = p.thread();
        split_counter::updater(&mut t, &shape, c);
    }
    {
        let mut t = p.thread();
        split_counter::reader(&mut t, &shape, None);
    }
    p.build()
}

/// Reference Counter (Listing 5, reduced to one counter): threads
/// increment and decrement with **quantum** RMWs; whoever sees the
/// count drop to zero marks the object for deletion with a commutative
/// store (same value — the actual deletion happens after a barrier, not
/// shown, as the paper requires).
pub fn ref_counter() -> Program {
    let shape = ref_counter::Shape {
        count_class: OpClass::Quantum,
        mark_class: OpClass::Commutative,
        think: 0,
    };
    let mut p = Program::new("ref_counter");
    for _ in 0..2 {
        let mut t = p.thread();
        let obj =
            [ref_counter::Obj { count: "refcount".into(), mark: "marked".into(), mark_value: 1 }];
        ref_counter::visit(&mut t, &shape, &obj);
    }
    p.build()
}

/// Work Queue over *multiple* queues (the paper's footnote 4): with
/// several occupancy counters, relaxed polls could violate SC — but the
/// counters are amenable to approximation and the dequeue double-checks
/// with paired atomics, so distinguishing the polls as **quantum**
/// retains SC-centric semantics.
pub fn work_queue_multi_quantum() -> Program {
    let mut p = Program::new("work_queue_multi_quantum");
    {
        let mut t = p.thread();
        work_queue::producer(
            &mut t,
            "task1",
            42,
            &work_queue::Publish::Store(OpClass::Paired, "occ1".into()),
        );
    }
    {
        let mut t = p.thread();
        work_queue::consumer(
            &mut t,
            &[(OpClass::Quantum, "occ0".into()), (OpClass::Quantum, "occ1".into())],
            Some((OpClass::Paired, "occ1".into())),
            "task1",
        );
    }
    p.build()
}

/// Seqlocks (Listing 6): the writer bumps `seq` to odd with a paired
/// CAS, updates the data with **speculative** stores, and publishes by
/// setting `seq` even again; the reader brackets speculative data loads
/// between a paired load of `seq` and the odd "read-don't-modify-write"
/// (`fetch_add 0`), and uses the values only when the sequence numbers
/// match and are even.
pub fn seqlock() -> Program {
    let payloads: Vec<Place> = vec!["data1".into(), "data2".into()];
    let mut p = Program::new("seqlock");
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
                writes: 1,
            },
            |_, i| (10 * (i + 1)) as i64,
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
            max_retries: 1,
            tail: seqlock::Tail::ObserveChecked,
        },
    );
    p.push_thread(reader);
    p.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drfrlx_core::{check_program, MemoryModel};

    #[test]
    fn all_use_cases_are_drfrlx_race_free() {
        for (name, p) in [
            ("work_queue", work_queue()),
            ("work_queue_multi_quantum", work_queue_multi_quantum()),
            ("event_counter", event_counter()),
            ("flags", flags()),
            ("split_counter", split_counter()),
            ("ref_counter", ref_counter()),
            ("seqlock", seqlock()),
        ] {
            let r = check_program(&p, MemoryModel::Drfrlx);
            assert!(
                r.is_race_free(),
                "{name} must be race-free under DRFrlx; found: {:?}",
                r.races.iter().map(|f| &f.description).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn quantum_use_cases_are_transformed() {
        let r = check_program(&split_counter(), MemoryModel::Drfrlx);
        assert!(r.quantum_transformed);
        let r = check_program(&ref_counter(), MemoryModel::Drfrlx);
        assert!(r.quantum_transformed);
        let r = check_program(&seqlock(), MemoryModel::Drfrlx);
        assert!(!r.quantum_transformed);
    }
}
