//! Byte-for-byte pin of every template-built program's emitted text.
//!
//! The Table-1 corpus, the template corpus and the litmus use-case and
//! mislabeled programs are all instantiated from the shared
//! `drfrlx_bridge::templates`. Their canonical `emit` text is committed
//! in `emitted_corpora.txt`, so a refactor of the templates or of the
//! program builders that changes a location's name, the location order,
//! a register number or an instruction fails here. The template corpus
//! feeds the conformance goldens through its register-dump windows, so
//! register numbering is part of what is pinned.

use drfrlx_conform::{table1_corpus, template_corpus};
use drfrlx_core::emit::emit;
use drfrlx_core::program::Program;
use drfrlx_litmus::{mislabeled, usecases};

type Build = fn() -> Program;

const USECASES: [Build; 7] = [
    usecases::work_queue,
    usecases::event_counter,
    usecases::flags,
    usecases::split_counter,
    usecases::ref_counter,
    usecases::work_queue_multi_quantum,
    usecases::seqlock,
];

const MISLABELED: [Build; 13] = [
    mislabeled::work_queue_no_recheck,
    mislabeled::event_counter_data,
    mislabeled::event_counter_observed,
    mislabeled::event_counter_noncommuting,
    mislabeled::flags_conflicting_dirty,
    mislabeled::flags_ordering_through_stop,
    mislabeled::split_counter_mixed,
    mislabeled::ref_counter_data_mark,
    mislabeled::seqlock_unconditional_use,
    mislabeled::seqlock_double_writer,
    mislabeled::flags_stop_data,
    mislabeled::work_queue_unpublished_slot,
    mislabeled::seqlock_relaxed_unlock,
];

/// Every template-built program, named by corpus, in a fixed order.
fn programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> =
        table1_corpus().into_iter().map(|(n, p)| (format!("table1/{n}"), p)).collect();
    out.extend(template_corpus().into_iter().map(|(n, p)| (format!("template/{n}"), p)));
    for (corpus, builds) in [("usecases", &USECASES[..]), ("mislabeled", &MISLABELED[..])] {
        out.extend(builds.iter().map(|build| {
            let p = build();
            (format!("{corpus}/{}", p.name()), p)
        }));
    }
    out
}

/// The fixture's text: each program's emit under a `=== name ===` header.
fn rendered() -> String {
    programs().iter().map(|(name, p)| format!("=== {name} ===\n{}\n", emit(p))).collect()
}

#[test]
fn template_built_programs_emit_their_committed_text() {
    let golden = include_str!("emitted_corpora.txt");
    let text = rendered();
    if text != golden {
        let (g, t): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), text.lines().collect());
        let at = g.iter().zip(&t).position(|(a, b)| a != b).unwrap_or(g.len().min(t.len()));
        panic!(
            "emitted text drifted from the fixture at line {}:\n  fixture: {:?}\n  now:     {:?}",
            at + 1,
            g.get(at),
            t.get(at)
        );
    }
}
