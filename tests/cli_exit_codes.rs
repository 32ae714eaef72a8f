//! Satellite: CI-friendly exit codes. `drfrlx check`/`conform` exit
//! 0 when clean, 2 on a real finding (race / soundness violation), 3
//! when a run ends without a verdict (budget exhausted, degraded) and
//! 101 on an internal error — so CI can tell "the program is racy"
//! from "the checker fell over". Also exercises the checkpoint/resume
//! round trip through the real binary, checkpoint integrity, and the
//! one report a budget-exhausted run prints.

use std::path::PathBuf;
use std::process::{Command, Output};

fn drfrlx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drfrlx")).args(args).output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A test's own scratch directory under the system temp dir, removed
/// when the test ends — also when it fails — so runs leave nothing
/// behind. Named by process and test, so tests may run in parallel.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(test: &str) -> ScratchDir {
        let name = format!("drfrlx_exit_codes_{}_{test}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }

    /// Path of `name` inside the directory.
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// Write a litmus source into the directory, returning its path.
    fn litmus(&self, name: &str, src: &str) -> PathBuf {
        let path = self.path(name);
        std::fs::write(&path, src).expect("litmus file written");
        path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory must not fail the test.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const RACE_FREE: &str = "litmus quiet\n\nthread t0 {\n    store.data x 1;\n}\n";

const RACY: &str = "litmus noisy\n\n\
    thread t0 {\n    store.data x 1;\n}\n\n\
    thread t1 {\n    store.data x 2;\n}\n";

/// Race-free (paired atomics never race) but every store conflicts,
/// so sleep sets prune nothing: 1680 interleavings dwarf any small
/// --max-execs budget, the verdict needs the whole tree, and the
/// sharded resilient runner has real work to checkpoint.
const WIDE: &str = "litmus wide\n\n\
    thread t0 {\n    store.paired x 1;\n    store.paired x 2;\n    store.paired x 3;\n}\n\n\
    thread t1 {\n    store.paired x 4;\n    store.paired x 5;\n    store.paired x 6;\n}\n\n\
    thread t2 {\n    store.paired x 7;\n    store.paired x 8;\n    store.paired x 9;\n}\n";

#[test]
fn check_exits_0_on_race_free_and_2_on_racy() {
    let dir = ScratchDir::new("check_exits_0_on_race_free_and_2_on_racy");
    let clean = dir.litmus("quiet.litmus", RACE_FREE);
    assert_eq!(code(&drfrlx(&["check", clean.to_str().unwrap()])), 0);

    let racy = dir.litmus("noisy.litmus", RACY);
    let out = drfrlx(&["check", racy.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "a data race is a finding: {}", stdout(&out));
}

#[test]
fn check_exits_3_when_the_execution_budget_runs_out() {
    let dir = ScratchDir::new("check_exits_3_when_the_execution_budget_runs_out");
    let wide = dir.litmus("wide3.litmus", WIDE);
    let out = drfrlx(&["check", wide.to_str().unwrap(), "--max-execs", "10", "--model", "drf0"]);
    // 10 of 1680 executions seen, all race-free: no verdict.
    assert_eq!(code(&out), 3, "{}\n{}", stdout(&out), String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("INCONCLUSIVE"), "{}", stdout(&out));
}

#[test]
fn usage_errors_exit_2_and_internal_errors_exit_101() {
    assert_eq!(code(&drfrlx(&["frobnicate"])), 2, "unknown subcommand");
    // A missing file is an error inside a verdict subcommand: 101,
    // distinguishable from the racy exit 2.
    assert_eq!(code(&drfrlx(&["check", "/no/such/file.litmus"])), 101);
    assert_eq!(code(&drfrlx(&["conform", "--fuzz", "0"])), 101);
}

/// A scratch address the litmus lowering cannot bound is user input:
/// one `error:` line naming the program and the expression, exit 101,
/// never a panic.
#[test]
fn conform_rejects_an_unlowerable_program_without_panicking() {
    let dir = ScratchDir::new("conform_rejects_an_unlowerable_program_without_panicking");
    let bad = dir.litmus(
        "scratch_reg.litmus",
        "litmus scratch_reg\n\
         thread t0 { r0 = load.data x; sstore r0 1; barrier; }\n\
         thread t1 { barrier; r1 = sload 0; observe r1; }\n",
    );
    let negative =
        dir.litmus("scratch_neg.litmus", "litmus scratch_neg\nthread t0 { sstore (-1) 1; }\n");
    for (file, expr) in [(&bad, "`r0`"), (&negative, "`-1`")] {
        for extra in [&[][..], &["--timeout-secs", "60"]] {
            let mut args = vec!["conform", file.to_str().unwrap(), "--schedules", "2"];
            args.extend_from_slice(extra);
            let out = drfrlx(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(code(&out), 101, "{stderr}");
            assert!(!stderr.contains("panicked"), "{stderr}");
            assert_eq!(stderr.lines().count(), 1, "one error line: {stderr}");
            assert!(stderr.starts_with("error: "), "{stderr}");
            assert!(stderr.contains("scratch_") && stderr.contains(expr), "{stderr}");
        }
    }
}

#[test]
fn check_checkpoint_resume_round_trips_byte_for_byte() {
    let dir = ScratchDir::new("check_checkpoint_resume_round_trips_byte_for_byte");
    let wide = dir.litmus("wide_resume.litmus", WIDE);
    let path = wide.to_str().unwrap();
    let ckpt = wide.with_file_name("wide.ckpt.json");
    let ckpt = ckpt.to_str().unwrap();

    // Uninterrupted resilient run (checkpoint flag engages the same
    // code path the resumed run takes).
    let full = drfrlx(&["check", path, "--model", "drfrlx", "--checkpoint", ckpt]);
    assert_eq!(code(&full), 0, "the wide program is race-free");

    // Leg 1: a tight budget interrupts mid-plan; no verdict yet.
    let leg1 =
        drfrlx(&["check", path, "--model", "drfrlx", "--max-execs", "600", "--checkpoint", ckpt]);
    assert_eq!(code(&leg1), 3, "interrupted without a verdict");
    assert!(stdout(&leg1).contains("status:"), "{}", stdout(&leg1));

    // Leg 2: resume with the full budget reproduces the uninterrupted
    // stdout exactly.
    let leg2 = drfrlx(&["check", path, "--model", "drfrlx", "--resume", ckpt]);
    assert_eq!(code(&leg2), 0);
    assert_eq!(stdout(&leg2), stdout(&full), "resumed == uninterrupted");
}

#[test]
fn resume_rejects_a_checkpoint_from_different_options() {
    let dir = ScratchDir::new("resume_rejects_a_checkpoint_from_different_options");
    let wide = dir.litmus("wide_reject.litmus", WIDE);
    let path = wide.to_str().unwrap();
    let ckpt = wide.with_file_name("wide_reject.ckpt.json");
    let ckpt = ckpt.to_str().unwrap();
    assert_eq!(code(&drfrlx(&["check", path, "--model", "drfrlx", "--checkpoint", ckpt])), 0);
    let out = drfrlx(&["check", path, "--model", "drf0", "--resume", ckpt]);
    assert_eq!(code(&out), 101, "fingerprint mismatch is an error, not a silent merge");
    assert!(String::from_utf8_lossy(&out.stderr).contains("fingerprint"));
}

#[test]
fn conform_fuzz_exits_0_and_checkpoints_round_trip() {
    let dir = ScratchDir::new("conform_fuzz_exits_0_and_checkpoints_round_trip");
    let ckpt = dir.path("fuzz.ckpt.json");
    let ckpt = ckpt.to_str().unwrap();

    let run = drfrlx(&[
        "conform",
        "--fuzz",
        "2",
        "--seed",
        "1",
        "--schedules",
        "2",
        "--checkpoint",
        ckpt,
    ]);
    assert_eq!(code(&run), 0, "{}", String::from_utf8_lossy(&run.stderr));
    let summary = stdout(&run);
    assert!(summary.contains("2 programs from seed 1"), "{summary}");

    // Resuming a finished campaign reprints the same summary, clean.
    let resumed =
        drfrlx(&["conform", "--fuzz", "2", "--seed", "1", "--schedules", "2", "--resume", ckpt]);
    assert_eq!(code(&resumed), 0);
    assert_eq!(stdout(&resumed), summary, "resumed == uninterrupted");
}

/// Every corpus file under every model, at one thread: checkpoint an
/// uninterrupted run, resume from it, and the resumed stdout must be
/// the uninterrupted stdout. Most files finish inside the serial probe
/// (a one-record plan), which must not be re-read as shard 0 of the
/// frontier plan; the stress files run under one execution cap on both
/// legs, so some checkpoints are partial and the resume re-trips the
/// same budget at the same shard.
#[test]
fn every_corpus_file_round_trips_through_a_checkpoint_under_every_model() {
    let dir =
        ScratchDir::new("every_corpus_file_round_trips_through_a_checkpoint_under_every_model");
    let mut files: Vec<PathBuf> = std::fs::read_dir("litmus-tests")
        .expect("corpus dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    files.sort();
    let names: Vec<String> =
        files.iter().map(|f| f.file_stem().unwrap().to_string_lossy().into_owned()).collect();
    for must in ["figure2a", "sb_relaxed", "event_counter", "mp_unpaired"] {
        assert!(names.iter().any(|n| n == must), "corpus lost {must}");
    }
    for (file, name) in files.iter().zip(&names) {
        for model in ["drf0", "drf1", "drfrlx"] {
            let ckpt = dir.path(&format!("{name}.{model}.ckpt.json"));
            let mut args =
                vec!["check", file.to_str().unwrap(), "--model", model, "--threads", "1"];
            if name.contains("stress") {
                args.extend_from_slice(&["--max-execs", "2000"]);
            }
            let leg = |flag: &str| {
                let mut a = args.clone();
                a.extend_from_slice(&[flag, ckpt.to_str().unwrap()]);
                drfrlx(&a)
            };
            let full = leg("--checkpoint");
            let resumed = leg("--resume");
            assert_eq!(code(&resumed), code(&full), "{name} {model}: {}", stderr(&resumed));
            assert_eq!(stdout(&resumed), stdout(&full), "{name} {model}: resumed == uninterrupted");
        }
    }
}

/// Write a checkpoint for `src` under DRFrlx, let `tamper` edit it, and
/// return the resume's output.
fn resume_tampered(
    dir: &ScratchDir,
    name: &str,
    src: &str,
    tamper: impl Fn(&str) -> String,
) -> Output {
    let file = dir.litmus(&format!("{name}.litmus"), src);
    let path = file.to_str().unwrap();
    let ckpt = file.with_file_name(format!("{name}.ckpt.json"));
    let ckpt = ckpt.to_str().unwrap();
    let args = ["check", path, "--model", "drfrlx", "--threads", "1"];
    let written = drfrlx(&[&args[..], &["--checkpoint", ckpt]].concat());
    assert!(matches!(code(&written), 0 | 2), "{}", stderr(&written));
    let text = std::fs::read_to_string(ckpt).expect("checkpoint written");
    let edited = tamper(&text);
    assert_ne!(edited, text, "the tamper must change the file");
    std::fs::write(ckpt, edited).expect("checkpoint rewritten");
    drfrlx(&[&args[..], &["--resume", ckpt]].concat())
}

fn assert_rejected(out: &Output) {
    let err = stderr(out);
    assert_eq!(code(out), 101, "a tampered checkpoint is an error: {}", stdout(out));
    assert!(err.starts_with("error: ") && err.contains("digest"), "{err}");
    assert!(stdout(out).is_empty(), "nothing merged: {}", stdout(out));
}

#[test]
fn a_checkpoint_with_its_races_emptied_is_rejected() {
    let dir = ScratchDir::new("a_checkpoint_with_its_races_emptied_is_rejected");
    let src = std::fs::read_to_string("litmus-tests/sb_relaxed.litmus").expect("corpus file");
    let out = resume_tampered(&dir, "sb_tampered", &src, |text| {
        // sb_relaxed finishes in the probe: one record, whose races
        // array runs to the end of the document.
        let start = text.find("\"races\":[").expect("races array") + "\"races\":[".len();
        format!("{}]}}]}}\n", &text[..start])
    });
    assert_rejected(&out);
}

#[test]
fn a_checkpoint_missing_one_shard_record_is_rejected() {
    let dir = ScratchDir::new("a_checkpoint_missing_one_shard_record_is_rejected");
    let out = resume_tampered(&dir, "wide_tampered", WIDE, |text| {
        let records: Vec<usize> = text.match_indices("{\"index\":").map(|(i, _)| i).collect();
        assert!(records.len() > 2, "the wide program shards");
        format!("{}{}", &text[..records[1]], &text[records[2]..])
    });
    assert_rejected(&out);
}

/// One budget, one report: a budget-exhausted, race-free run prints
/// the same stdout whether or not a deadline is also set.
#[test]
fn a_budget_exhausted_run_prints_one_report_with_or_without_a_deadline() {
    let dir =
        ScratchDir::new("a_budget_exhausted_run_prints_one_report_with_or_without_a_deadline");
    let wide = dir.litmus("wide_budget.litmus", WIDE);
    let seqlock = "litmus-tests/seqlock_counter_stress.litmus";
    let run = |file: &str, extra: &[&str]| {
        let args = [&["check", file, "--model", "drfrlx", "--threads", "1"][..], extra].concat();
        drfrlx(&args)
    };
    let plain = run(wide.to_str().unwrap(), &["--max-execs", "600"]);
    assert_eq!(code(&plain), 3);
    assert_eq!(
        stdout(&plain),
        "DRFrlx: INCONCLUSIVE (no races in 590 SC executions explored)\n  \
         status: inconclusive (execution budget (600) exhausted; 50 unit(s) unfinished) \
         — 28 of 78 shards completed\n"
    );
    let timed = run(wide.to_str().unwrap(), &["--max-execs", "600", "--timeout-secs", "100"]);
    assert_eq!((code(&timed), stdout(&timed)), (3, stdout(&plain)));
    // The stress program that used to print two different reports.
    let plain = run(seqlock, &["--max-execs", "2000"]);
    let timed = run(seqlock, &["--max-execs", "2000", "--timeout-secs", "100"]);
    assert_eq!(code(&plain), 3);
    assert_eq!((code(&timed), stdout(&timed)), (3, stdout(&plain)));
    // At more than one thread the completed prefix depends on timing;
    // the verdict and the exit code do not.
    for extra in [&["--max-execs", "600"][..], &["--max-execs", "600", "--timeout-secs", "100"]] {
        let args =
            [&["check", wide.to_str().unwrap(), "--model", "drfrlx", "--threads", "2"], extra]
                .concat();
        let out = drfrlx(&args);
        assert_eq!(code(&out), 3);
        assert!(stdout(&out).starts_with("DRFrlx: INCONCLUSIVE (no races in "), "{}", stdout(&out));
    }
}
