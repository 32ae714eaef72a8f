//! Satellite: CI-friendly exit codes. `drfrlx check`/`conform` exit
//! 0 when clean, 2 on a real finding (race / soundness violation), 3
//! when a run ends without a verdict (budget exhausted, degraded) and
//! 101 on an internal error — so CI can tell "the program is racy"
//! from "the checker fell over". Also exercises the checkpoint/resume
//! round trip through the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn drfrlx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_drfrlx")).args(args).output().expect("binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Write a litmus source into a per-test scratch dir, returning its path.
fn litmus_file(name: &str, src: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drfrlx_exit_codes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, src).expect("litmus file written");
    path
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
    let clean = litmus_file("quiet.litmus", RACE_FREE);
    assert_eq!(code(&drfrlx(&["check", clean.to_str().unwrap()])), 0);

    let racy = litmus_file("noisy.litmus", RACY);
    let out = drfrlx(&["check", racy.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "a data race is a finding: {}", stdout(&out));
}

#[test]
fn check_exits_3_when_the_execution_budget_runs_out() {
    let wide = litmus_file("wide3.litmus", WIDE);
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
    let bad = litmus_file(
        "scratch_reg.litmus",
        "litmus scratch_reg\n\
         thread t0 { r0 = load.data x; sstore r0 1; barrier; }\n\
         thread t1 { barrier; r1 = sload 0; observe r1; }\n",
    );
    let negative =
        litmus_file("scratch_neg.litmus", "litmus scratch_neg\nthread t0 { sstore (-1) 1; }\n");
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
    let wide = litmus_file("wide_resume.litmus", WIDE);
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
    let wide = litmus_file("wide_reject.litmus", WIDE);
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
    let dir = std::env::temp_dir().join(format!("drfrlx_exit_codes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt = dir.join("fuzz.ckpt.json");
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
