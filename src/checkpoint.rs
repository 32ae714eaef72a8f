//! Checkpoint files for `--checkpoint`/`--resume`.
//!
//! A checkpoint serializes the *completed* work of a resilient run —
//! the checker's per-shard records, or a fuzz campaign's tallies and
//! resume index — as a small JSON document (written with the same
//! dependency-free machinery as `drfrlx-bench::json`). Resuming
//! re-derives everything else: the shard plan is a pure function of
//! the program and options, and fuzz program `i` is a pure function
//! of `seed + i`, so a resumed run reproduces the uninterrupted
//! report exactly.
//!
//! Every checkpoint embeds a fingerprint of the program and the
//! options that shaped the run. A resume under different options
//! would silently merge incompatible work, so a fingerprint mismatch
//! is a hard error. A checker checkpoint also carries a digest of its
//! payload (`total_shards` and every shard record): an edited or
//! truncated file that still parses could otherwise drop findings, so
//! a digest mismatch is a hard error too. Both are SplitMix64 folds —
//! integrity checks against accidents, not cryptographic MACs.

use crate::bench::json::{escape, parse_json, Json};
use crate::conform::{CampaignState, ConformOptions};
use crate::model::checker::{CheckOptions, CheckOutcome, FoundRace, ShardRecord};
use crate::model::emit::emit;
use crate::model::exec::EnumStats;
use crate::model::program::Program;
use crate::model::races::{Race, RaceKind};
use crate::MemoryModel;
use std::fmt::Write as _;

/// SplitMix64 finalizer — the workspace's standard bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fold `bytes` into a running fingerprint.
fn fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| mix64(h ^ b as u64))
}

/// Fingerprint of a `drfrlx check` run: the canonical program text
/// plus every option that shapes the shard plan or the verdict.
/// Thread count is deliberately excluded — the plan and the merged
/// report are thread-invariant. So is the execution budget: a
/// completed shard record is fully explored whatever budget it ran
/// under, and resuming under a *larger* budget is the whole point.
pub fn check_fingerprint(p: &Program, model: MemoryModel, opts: &CheckOptions) -> u64 {
    let mut h = fold(0x5EED_C0DE, emit(p).as_bytes());
    h = fold(h, model.to_string().as_bytes());
    h = fold(h, format!("{:?}", opts.reduction).as_bytes());
    mix64(h ^ opts.early_exit as u64)
}

/// Fingerprint of a `drfrlx conform --fuzz` campaign: every option
/// that shapes per-program verdicts. The root seed lives in the
/// campaign state itself, and thread count is verdict-invariant.
pub fn fuzz_fingerprint(opts: &ConformOptions) -> u64 {
    let mut h = mix64(0xF0_22ED ^ opts.schedules as u64);
    for c in &opts.configs {
        h = fold(h, c.abbrev().as_bytes());
    }
    mix64(h ^ opts.limits.max_executions as u64)
}

/// Digest of a checker checkpoint's payload: the plan size and every
/// field of every shard record, in file order.
fn records_digest(total_shards: usize, shards: &[ShardRecord]) -> u64 {
    let nums = |h: u64, ns: &[usize]| ns.iter().fold(h, |h, &n| mix64(h ^ n as u64));
    let mut h = nums(0xD16E_5700, &[total_shards]);
    for r in shards {
        let s = r.stats;
        let head = [r.index, s.explored, s.pruned, s.memo_pruned, s.table_peak];
        h = nums(h, &head);
        h = nums(h, &[r.saturated as usize, r.races.len()]);
        for f in &r.races {
            let (kind, (at, ai), (bt, bi)) = f.key;
            h = fold(h, kind_tag(kind).as_bytes());
            h = nums(h, &[f.exec_index, f.race.a, f.race.b, at, ai, bt, bi]);
            h = fold(h, f.description.as_bytes());
        }
    }
    h
}

fn kind_tag(k: RaceKind) -> &'static str {
    match k {
        RaceKind::Data => "data",
        RaceKind::Commutative => "commutative",
        RaceKind::NonOrdering => "non_ordering",
        RaceKind::Quantum => "quantum",
        RaceKind::Speculative => "speculative",
        RaceKind::OneSided => "one_sided",
    }
}

fn kind_from(tag: &str) -> Option<RaceKind> {
    Some(match tag {
        "data" => RaceKind::Data,
        "commutative" => RaceKind::Commutative,
        "non_ordering" => RaceKind::NonOrdering,
        "quantum" => RaceKind::Quantum,
        "speculative" => RaceKind::Speculative,
        "one_sided" => RaceKind::OneSided,
        _ => return None,
    })
}

/// Render a checker checkpoint: fingerprint, plan size, payload digest
/// and the completed shard records of `outcome` (its `shards` field is
/// exactly the payload [`crate::model::checker::check_program_outcome`]
/// resumes from).
pub fn render_check_checkpoint(
    p: &Program,
    model: MemoryModel,
    opts: &CheckOptions,
    outcome: &CheckOutcome,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"kind\":\"check\",\"fingerprint\":\"{:016x}\",\"program\":\"{}\",\
         \"model\":\"{}\",\"total_shards\":{},\"digest\":\"{:016x}\",\"shards\":[",
        check_fingerprint(p, model, opts),
        escape(p.name()),
        model,
        outcome.total_shards,
        records_digest(outcome.total_shards, &outcome.shards)
    );
    for (i, r) in outcome.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"index\":{},\"explored\":{},\"pruned\":{},\"memo_pruned\":{},\
             \"table_peak\":{},\"saturated\":{},\"races\":[",
            r.index,
            r.stats.explored,
            r.stats.pruned,
            r.stats.memo_pruned,
            r.stats.table_peak,
            r.saturated
        );
        for (j, f) in r.races.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let (kind, (at, ai), (bt, bi)) = f.key;
            let _ = write!(
                out,
                "{{\"exec_index\":{},\"kind\":\"{}\",\"ea\":{},\"eb\":{},\
                 \"a_tid\":{at},\"a_iid\":{ai},\"b_tid\":{bt},\"b_iid\":{bi},\
                 \"description\":\"{}\"}}",
                f.exec_index,
                kind_tag(kind),
                f.race.a,
                f.race.b,
                escape(&f.description)
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}

fn usize_field(j: &Json, key: &str) -> Result<usize, String> {
    let n = j.get(key).and_then(Json::as_num).ok_or_else(|| format!("missing `{key}`"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("`{key}` is not an unsigned integer"));
    }
    Ok(n as usize)
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, String> {
    j.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing `{key}`"))
}

fn arr_field<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], String> {
    j.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing `{key}`"))
}

fn expect_fingerprint(j: &Json, kind: &str, fp: u64) -> Result<(), String> {
    if str_field(j, "kind")? != kind {
        return Err(format!("not a `{kind}` checkpoint"));
    }
    let want = format!("{fp:016x}");
    let got = str_field(j, "fingerprint")?;
    if got != want {
        return Err(format!(
            "checkpoint fingerprint {got} does not match this program and these \
             options ({want}); resume with the original --model/--max-execs/--reduction"
        ));
    }
    Ok(())
}

/// Parse a checker checkpoint back into its plan size and
/// completed-shard records (the `total_shards` and `completed` of a
/// [`crate::model::checker::CheckResilience`]), verifying it belongs to
/// exactly this `(program, model, options)` and that its payload is
/// the one that was written. Whether the plan size fits the program is
/// checked when the run resumes.
///
/// # Errors
///
/// Malformed JSON, a missing field, a fingerprint mismatch, or a
/// digest mismatch.
pub fn parse_check_checkpoint(
    text: &str,
    p: &Program,
    model: MemoryModel,
    opts: &CheckOptions,
) -> Result<(usize, Vec<ShardRecord>), String> {
    let j = parse_json(text)?;
    expect_fingerprint(&j, "check", check_fingerprint(p, model, opts))?;
    let mut shards = Vec::new();
    for s in arr_field(&j, "shards")? {
        let mut races = Vec::new();
        for f in arr_field(s, "races")? {
            let tag = str_field(f, "kind")?;
            let kind = kind_from(tag).ok_or_else(|| format!("unknown race kind `{tag}`"))?;
            let key = (
                kind,
                (usize_field(f, "a_tid")?, usize_field(f, "a_iid")?),
                (usize_field(f, "b_tid")?, usize_field(f, "b_iid")?),
            );
            races.push(FoundRace {
                exec_index: usize_field(f, "exec_index")?,
                race: Race { kind, a: usize_field(f, "ea")?, b: usize_field(f, "eb")? },
                key,
                description: str_field(f, "description")?.to_string(),
            });
        }
        shards.push(ShardRecord {
            index: usize_field(s, "index")?,
            stats: EnumStats {
                explored: usize_field(s, "explored")?,
                pruned: usize_field(s, "pruned")?,
                memo_pruned: usize_field(s, "memo_pruned")?,
                table_peak: usize_field(s, "table_peak")?,
            },
            saturated: s.get("saturated") == Some(&Json::Bool(true)),
            races,
        });
    }
    let total_shards = usize_field(&j, "total_shards")?;
    let want = format!("{:016x}", records_digest(total_shards, &shards));
    let got = str_field(&j, "digest")?;
    if got != want {
        return Err(format!(
            "checkpoint digest {got} does not match its shard records ({want}); \
             the file was altered or truncated"
        ));
    }
    Ok((total_shards, shards))
}

/// Render a fuzz-campaign checkpoint. Seeds are serialized as strings:
/// the JSON reader parses numbers as `f64`, which cannot hold every
/// `u64` seed exactly.
pub fn render_fuzz_checkpoint(opts: &ConformOptions, state: &CampaignState) -> String {
    let list =
        |seeds: &[u64]| seeds.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(",");
    format!(
        "{{\"kind\":\"conform-fuzz\",\"fingerprint\":\"{:016x}\",\"seed\":\"{}\",\
         \"total\":{},\"next_index\":{},\"sound\":{},\"violations\":[{}],\"skipped\":[{}]}}\n",
        fuzz_fingerprint(opts),
        state.seed,
        state.total,
        state.next_index,
        state.sound,
        list(&state.violations),
        list(&state.skipped)
    )
}

fn u64_str_field(j: &Json, key: &str) -> Result<u64, String> {
    str_field(j, key)?.parse().map_err(|_| format!("`{key}` is not a u64"))
}

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    Ok(usize_field(j, key)? as u64)
}

fn seed_list(j: &Json, key: &str) -> Result<Vec<u64>, String> {
    arr_field(j, key)?
        .iter()
        .map(|s| {
            s.as_str()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("`{key}` holds a non-seed entry"))
        })
        .collect()
}

/// Parse a fuzz-campaign checkpoint, verifying it belongs to these
/// conformance options.
///
/// # Errors
///
/// Malformed JSON, a missing field, or a fingerprint mismatch.
pub fn parse_fuzz_checkpoint(text: &str, opts: &ConformOptions) -> Result<CampaignState, String> {
    let j = parse_json(text)?;
    expect_fingerprint(&j, "conform-fuzz", fuzz_fingerprint(opts))?;
    let state = CampaignState {
        seed: u64_str_field(&j, "seed")?,
        total: u64_field(&j, "total")?,
        next_index: u64_field(&j, "next_index")?,
        sound: u64_field(&j, "sound")?,
        violations: seed_list(&j, "violations")?,
        skipped: seed_list(&j, "skipped")?,
    };
    if state.next_index > state.total
        || state.sound + state.violations.len() as u64 + state.skipped.len() as u64
            != state.next_index
    {
        return Err("checkpoint tallies do not add up".to_string());
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::checker::{check_program_outcome, CheckResilience};
    use crate::OpClass;

    fn racy() -> Program {
        let mut p = Program::new("racy");
        for t in 0..3 {
            let mut th = p.thread();
            for i in 0..3 {
                th.store(OpClass::Data, "x", (t * 3 + i) as i64);
            }
        }
        p.build()
    }

    #[test]
    fn check_checkpoint_round_trips() {
        let p = racy();
        let opts = CheckOptions { early_exit: false, ..CheckOptions::default() };
        let out =
            check_program_outcome(&p, MemoryModel::Drfrlx, &opts, &CheckResilience::default())
                .unwrap();
        let text = render_check_checkpoint(&p, MemoryModel::Drfrlx, &opts, &out);
        let (total, shards) =
            parse_check_checkpoint(&text, &p, MemoryModel::Drfrlx, &opts).unwrap();
        assert_eq!(total, out.total_shards);
        assert_eq!(shards.len(), out.shards.len());
        for (a, b) in shards.iter().zip(&out.shards) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.saturated, b.saturated);
            assert_eq!(a.races.len(), b.races.len());
            for (x, y) in a.races.iter().zip(&b.races) {
                assert_eq!(x.key, y.key);
                assert_eq!(x.exec_index, y.exec_index);
                assert_eq!((x.race.kind, x.race.a, x.race.b), (y.race.kind, y.race.a, y.race.b));
                assert_eq!(x.description, y.description);
            }
        }
    }

    #[test]
    fn a_fingerprint_mismatch_is_rejected() {
        let p = racy();
        let opts = CheckOptions::default();
        let out =
            check_program_outcome(&p, MemoryModel::Drfrlx, &opts, &CheckResilience::default())
                .unwrap();
        let text = render_check_checkpoint(&p, MemoryModel::Drfrlx, &opts, &out);
        // Same file, different model: refused.
        let err = parse_check_checkpoint(&text, &p, MemoryModel::Drf0, &opts).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        // A different execution budget is fine — resuming under a
        // larger one is the point of checkpointing.
        let mut tight = CheckOptions::default();
        tight.limits.max_executions = 7;
        assert!(parse_check_checkpoint(&text, &p, MemoryModel::Drfrlx, &tight).is_ok());
        // But a different reduction reshapes the plan: refused.
        let memo = CheckOptions {
            reduction: crate::model::exec::Reduction::Exhaustive,
            ..CheckOptions::default()
        };
        assert!(parse_check_checkpoint(&text, &p, MemoryModel::Drfrlx, &memo).is_err());
    }

    #[test]
    fn every_race_kind_round_trips() {
        for k in [
            RaceKind::Data,
            RaceKind::Commutative,
            RaceKind::NonOrdering,
            RaceKind::Quantum,
            RaceKind::Speculative,
            RaceKind::OneSided,
        ] {
            assert_eq!(kind_from(kind_tag(k)), Some(k));
        }
        assert_eq!(kind_from("bogus"), None);
    }

    #[test]
    fn fuzz_checkpoint_round_trips_with_u64_seeds() {
        let opts = ConformOptions::default();
        let state = CampaignState {
            seed: u64::MAX - 2,
            total: 10,
            next_index: 4,
            sound: 2,
            violations: vec![u64::MAX - 1],
            skipped: vec![u64::MAX],
        };
        let text = render_fuzz_checkpoint(&opts, &state);
        assert_eq!(parse_fuzz_checkpoint(&text, &opts).unwrap(), state);
        // Different schedule count: refused.
        let other = ConformOptions { schedules: 3, ..ConformOptions::default() };
        assert!(parse_fuzz_checkpoint(&text, &other).is_err());
    }

    #[test]
    fn inconsistent_tallies_are_rejected() {
        let opts = ConformOptions::default();
        let mut state = CampaignState::new(1, 5);
        state.next_index = 3; // but sound + violations + skipped == 0
        let text = render_fuzz_checkpoint(&opts, &state);
        assert!(parse_fuzz_checkpoint(&text, &opts).unwrap_err().contains("tallies"));
    }
}
