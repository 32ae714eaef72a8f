//! Deliberately mislabeled variants of the Table 1 use cases. Each must
//! be flagged by the DRFrlx programmer-centric model with a specific
//! race kind — this is the paper's negative validation (§3.8).
//!
//! Like [`crate::usecases`], every variant that shares a shape with a
//! use case instantiates the same [`drfrlx_bridge::templates`] emitter
//! with the *wrong* knob — a class left as data, a dropped re-check, a
//! missing lock — so the mislabeling is expressed as a one-knob diff
//! against the correct program rather than a separate hand-written
//! copy. `flags_ordering_through_stop` alone stays hand-built: its
//! branch-on-poll shape exposes the relaxed machine's reordering and
//! corresponds to no template.

use drfrlx_bridge::templates::{
    event_counter, flags as flags_t, ref_counter, seqlock, split_counter, work_queue,
};
use drfrlx_core::program::{Place, Program, RmwOp};
use drfrlx_core::OpClass;

/// One template event-counter worker as its own thread.
fn ec_worker(p: &mut Program, w: &event_counter::Worker) {
    let mut t = p.thread();
    event_counter::worker(&mut t, w);
}

/// Work Queue where the service thread touches the task data after only
/// the *unpaired* poll (skipping the paired re-check, the scenario of
/// the paper's footnote 4 without quantum protection): the task
/// accesses form a data race.
pub fn work_queue_no_recheck() -> Program {
    let mut p = Program::new("work_queue_no_recheck");
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
        work_queue::consumer(&mut t, &[(OpClass::Unpaired, "occupancy".into())], None, "task");
    }
    p.build()
}

/// Event Counter where the counters are left as plain data: a textbook
/// data race.
pub fn event_counter_data() -> Program {
    let mut p = Program::new("event_counter_data");
    for amount in [1, 2] {
        ec_worker(
            &mut p,
            &event_counter::Worker {
                bin_class: OpClass::Data,
                op: RmwOp::FetchAdd,
                amount,
                observe: false,
                done: None,
            },
        );
    }
    p.build()
}

/// Event Counter where a worker *observes* the fetch-add's return value
/// — the commutative contract forbids using the loaded value.
pub fn event_counter_observed() -> Program {
    let mut p = Program::new("event_counter_observed");
    for (amount, observe) in [(1, true), (2, false)] {
        ec_worker(
            &mut p,
            &event_counter::Worker {
                bin_class: OpClass::Commutative,
                op: RmwOp::FetchAdd,
                amount,
                observe,
                done: None,
            },
        );
    }
    p.build()
}

/// Event Counter mixing exchange with fetch-add under commutative
/// labels: the operations do not commute.
pub fn event_counter_noncommuting() -> Program {
    let mut p = Program::new("event_counter_noncommuting");
    for (op, amount) in [(RmwOp::Exchange, 7), (RmwOp::FetchAdd, 2)] {
        ec_worker(
            &mut p,
            &event_counter::Worker {
                bin_class: OpClass::Commutative,
                op,
                amount,
                observe: false,
                done: None,
            },
        );
    }
    p.build()
}

/// Flags where two workers raise `dirty` with *different* values:
/// same-location commutative stores of different values do not commute.
pub fn flags_conflicting_dirty() -> Program {
    let mut p = Program::new("flags_conflicting_dirty");
    for value in [1, 2] {
        let t = flags_t::dirty_only(&mut p, OpClass::Commutative, value);
        p.push_thread(t);
    }
    p.build()
}

/// Flags where `stop` is misused as the *only* ordering between data
/// accesses: the non-ordering atomic now sits on the unique ordering
/// path, which is exactly what non-ordering atomics must not do.
/// (Hand-built: the branch-on-poll shape has no template counterpart.)
pub fn flags_ordering_through_stop() -> Program {
    let mut p = Program::new("flags_ordering_through_stop");
    {
        let mut t = p.thread();
        t.store(OpClass::Unpaired, "x", 3);
        t.store(OpClass::NonOrdering, "stop", 1);
    }
    {
        let mut t = p.thread();
        let s = t.load(OpClass::NonOrdering, "stop");
        t.branch_on(s);
        let x = t.load(OpClass::Unpaired, "x");
        // Expose the outcome in memory: stop == 1 with stale x == 0 is
        // the non-SC result the relaxed machine can produce.
        t.store(OpClass::Data, "out_stop", s);
        t.store(OpClass::Data, "out_x", x);
    }
    p.build()
}

/// Split Counter where the reader uses paired loads against quantum
/// updates: quantum atomics may only race with quantum atomics.
pub fn split_counter_mixed() -> Program {
    let shape = split_counter::Shape {
        counters: vec!["c0".into()],
        increments: 1,
        sweeps: 1,
        think_between_sweeps: 0,
        update_class: OpClass::Quantum,
        read_class: OpClass::Paired,
    };
    let mut p = Program::new("split_counter_mixed");
    {
        let mut t = p.thread();
        split_counter::updater(&mut t, &shape, "c0");
    }
    {
        let mut t = p.thread();
        split_counter::reader(&mut t, &shape, None);
    }
    p.build()
}

/// Reference Counter where the "last one marks" store is plain data:
/// in the quantum-equivalent program both decrements can return 1, so
/// the marking stores race.
pub fn ref_counter_data_mark() -> Program {
    let shape =
        ref_counter::Shape { count_class: OpClass::Quantum, mark_class: OpClass::Data, think: 0 };
    let mut p = Program::new("ref_counter_data_mark");
    for tid in 0..2 {
        let mut t = p.thread();
        // Different values ⇒ plain stores that really conflict.
        let obj = [ref_counter::Obj {
            count: "refcount".into(),
            mark: "marked".into(),
            mark_value: tid + 1,
        }];
        ref_counter::visit(&mut t, &shape, &obj);
    }
    p.build()
}

/// Seqlock where the reader observes the speculative values
/// unconditionally (ignoring the sequence check): a speculative race.
pub fn seqlock_unconditional_use() -> Program {
    let payloads: Vec<Place> = vec!["data1".into()];
    let mut p = Program::new("seqlock_unconditional_use");
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
            |_, _| 10,
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
            // Used without checking the sequence number.
            tail: seqlock::Tail::ObserveUnchecked,
        },
    );
    p.push_thread(reader);
    p.build()
}

/// Two seqlock writers racing on the speculative data (both forgot the
/// lock): write-write speculative race.
pub fn seqlock_double_writer() -> Program {
    let mut p = Program::new("seqlock_double_writer");
    for value in [10, 30] {
        let mut t = p.thread();
        seqlock::writer(
            &mut t,
            &seqlock::Writer {
                lock: false,
                lock_class: OpClass::Paired,
                unlock_class: OpClass::Paired,
                payload_class: OpClass::Speculative,
                payloads: vec!["data1".into()],
                writes: 1,
            },
            move |_, _| value,
        );
    }
    p.build()
}

/// Flags where `stop` is left as plain data: the polling loads race
/// with the main thread's store — a data race under every model.
pub fn flags_stop_data() -> Program {
    let mut p = Program::new("flags_stop_data");
    let worker = flags_t::worker(
        &mut p,
        &flags_t::Worker {
            stop_class: OpClass::Data,
            dirty_class: OpClass::Commutative,
            polls: 1,
            think: 0,
            dirty_every: 0,
            last_poll_works: false,
            observe_poll: true,
            exit: flags_t::Exit::Store(OpClass::Paired),
        },
    );
    p.push_thread(worker);
    let main = flags_t::main(
        &mut p,
        &flags_t::Main {
            delay: None,
            stop_class: OpClass::Data,
            exited_class: OpClass::Paired,
            join_polls: 1,
            join_target: 1,
            tail: flags_t::Tail::ObserveJoin,
        },
    );
    p.push_thread(main);
    p.build()
}

/// A work queue where the producer forgets the paired publish: the
/// consumer's data read of the slot is guarded only by the unpaired
/// occupancy counter — a data race (the UTS bug this corpus guards
/// against).
pub fn work_queue_unpublished_slot() -> Program {
    let mut p = Program::new("work_queue_unpublished_slot");
    {
        let mut t = p.thread();
        // Should be Paired (release); mislabeled as unpaired.
        work_queue::producer(
            &mut t,
            "slot",
            42,
            &work_queue::Publish::Fadd(OpClass::Unpaired, "tail".into()),
        );
    }
    {
        let mut t = p.thread();
        work_queue::consumer(&mut t, &[(OpClass::Unpaired, "tail".into())], None, "slot");
    }
    p.build()
}

/// Seqlock whose writer publishes with a *non-ordering* unlock: the
/// reader's sequence check can pass without any happens-before to the
/// payload stores, so the observed speculative loads race.
pub fn seqlock_relaxed_unlock() -> Program {
    let payloads: Vec<Place> = vec!["data1".into()];
    let mut p = Program::new("seqlock_relaxed_unlock");
    {
        let mut t = p.thread();
        seqlock::writer(
            &mut t,
            &seqlock::Writer {
                lock: true,
                lock_class: OpClass::Paired,
                // Should be Paired (release); mislabeled as non-ordering.
                unlock_class: OpClass::NonOrdering,
                payload_class: OpClass::Speculative,
                payloads: payloads.clone(),
                writes: 1,
            },
            |_, _| 10,
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
    use drfrlx_core::{check_program, MemoryModel, RaceKind};

    fn expect_kind(p: Program, kind: RaceKind) {
        let r = check_program(&p, MemoryModel::Drfrlx);
        assert!(!r.is_race_free(), "{} must be flagged", r.program);
        assert!(
            r.has_race_kind(kind),
            "{} must contain a {kind}; found {:?}",
            r.program,
            r.race_kinds()
        );
    }

    #[test]
    fn each_mislabeling_is_flagged_with_its_kind() {
        expect_kind(work_queue_no_recheck(), RaceKind::Data);
        expect_kind(event_counter_data(), RaceKind::Data);
        expect_kind(event_counter_observed(), RaceKind::Commutative);
        expect_kind(event_counter_noncommuting(), RaceKind::Commutative);
        expect_kind(flags_conflicting_dirty(), RaceKind::Commutative);
        expect_kind(flags_ordering_through_stop(), RaceKind::NonOrdering);
        expect_kind(split_counter_mixed(), RaceKind::Quantum);
        expect_kind(ref_counter_data_mark(), RaceKind::Data);
        expect_kind(seqlock_unconditional_use(), RaceKind::Speculative);
        expect_kind(seqlock_double_writer(), RaceKind::Speculative);
        expect_kind(flags_stop_data(), RaceKind::Data);
        expect_kind(work_queue_unpublished_slot(), RaceKind::Data);
        expect_kind(seqlock_relaxed_unlock(), RaceKind::Speculative);
    }
}
