//! End-to-end determinism of the `titan-prof/2` cost ledger, driven
//! through the real `titan-repro` binary (the contract OBSERVABILITY.md
//! documents):
//!
//! 1. the deterministic section of a `--prof` document (everything but
//!    the quarantined `wall` block and the host-variant CLI-scope
//!    allocator counters — CLI scopes cover rayon-parallel figure work
//!    whose thread placement tracks the pool width) is byte-identical
//!    at `TITAN_NUM_THREADS` 1 and 8, engine alloc counters included;
//! 2. the resume-invariant section (additionally excluding the
//!    allocator counters, which measure host-process heap state a
//!    checkpoint does not carry) is byte-identical between a straight
//!    run and a `--from-checkpoint` resume;
//! 3. `--prof` is a pure observer — the printed report is unchanged;
//! 4. resume validates the ledger flag against the checkpoint, both
//!    ways, like `--health`;
//! 5. `profile --perfetto` is byte-stable for a fixed seed and
//!    `--flamegraph` has the documented collapsed-stack shape.
//!
//! No comparison in this file looks at a wall-clock value: the `wall`
//! section is stripped (via [`titan_obs::ProfDoc::deterministic_json`]
//! and [`titan_obs::ProfDoc::invariant_json`]) before any byte
//! equality, and stdout comparisons strip nothing but `wrote …` lines.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_titan-repro")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("prof_determinism");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let dir = dir.join(name);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn run_in(dir: &Path, threads: &str, args: &[&str]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .current_dir(dir)
        .env("TITAN_NUM_THREADS", threads)
        .output()
        .expect("spawn titan-repro");
    assert!(
        out.status.success(),
        "titan-repro {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read_prof(dir: &Path) -> titan_obs::ProfDoc {
    let text = std::fs::read_to_string(dir.join("prof.json")).expect("prof doc");
    serde_json::from_str(&text).expect("titan-prof/2 parse")
}

/// Tentpole guarantee: the deterministic section of the ledger — every
/// counter including the allocator tallies, with only the `wall` block
/// stripped — is byte-identical across thread widths, and the printed
/// report does not change either.
#[test]
fn prof_deterministic_section_identical_at_threads_1_vs_8() {
    let args = ["run", "--days", "30", "--seed", "7", "--prof", "prof.json"];
    let t1 = tmp("threads_1");
    let t8 = tmp("threads_8");
    let a = run_in(&t1, "1", &args);
    let b = run_in(&t8, "8", &args);
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "stdout differs between thread widths"
    );
    let da = read_prof(&t1);
    let db = read_prof(&t8);
    assert_eq!(da.schema, "titan-prof/2");
    assert!(!da.ledger.is_empty(), "empty ledger");
    assert_eq!(
        da.deterministic_json(),
        db.deterministic_json(),
        "deterministic prof section differs between --threads 1 and 8"
    );
    // The engine allocation story is complete: every engine scope's
    // allocator counters are in the ledger, and they sum to the totals.
    let alloc_sum: u64 = da.ledger.values().map(|c| c.allocs).sum();
    assert_eq!(alloc_sum, da.totals.allocs, "alloc attribution does not sum to totals");
}

/// Resume invariant: the non-allocator counters are exactly equal
/// between a straight run and a checkpoint resume, and the invariant
/// section (alloc counters zeroed — heap capacity is host-process
/// state a checkpoint does not carry) is byte-identical.
#[test]
fn prof_invariant_section_identical_across_resume() {
    let through = tmp("resume_through");
    let resumed = tmp("resume_resumed");
    run_in(
        &through,
        "1",
        &[
            "run", "--days", "30", "--seed", "7", "--checkpoint-every", "864000", // 10 d
            "--ckpt-dir", "ckpts", "--prof", "prof.json",
        ],
    );
    let ckpt = through.join("ckpts").join("ckpt-000001.json");
    assert!(ckpt.is_file(), "second checkpoint missing");
    run_in(
        &resumed,
        "1",
        &[
            "run",
            "--from-checkpoint",
            ckpt.to_str().expect("utf8 path"),
            "--prof",
            "prof.json",
        ],
    );
    let da = read_prof(&through);
    let db = read_prof(&resumed);
    assert_eq!(
        da.invariant_json(),
        db.invariant_json(),
        "resume-invariant prof section differs across --from-checkpoint"
    );
    // Spelled out: the event-mix counters agree row by row; only the
    // allocator tallies (and wall) are allowed to differ.
    for (name, a) in &da.ledger {
        let b = &db.ledger[name];
        assert_eq!(a.dequeues, b.dequeues, "{name} dequeues");
        assert_eq!(a.heap_pushes, b.heap_pushes, "{name} heap_pushes");
        assert_eq!(a.console_lines, b.console_lines, "{name} console_lines");
        assert_eq!(a.console_bytes, b.console_bytes, "{name} console_bytes");
        assert_eq!(a.rng_draws, b.rng_draws, "{name} rng_draws");
        assert_eq!(a.trace_records, b.trace_records, "{name} trace_records");
    }
}

/// Satellite guarantee: `--prof` is a pure observer — the report is
/// identical with and without it; only the `wrote …` line is new.
#[test]
fn prof_flag_never_changes_the_report() {
    let dir = tmp("pure_observer");
    let plain = run_in(&dir, "1", &["run", "--days", "30", "--seed", "7"]);
    let profiled =
        run_in(&dir, "1", &["run", "--days", "30", "--seed", "7", "--prof", "prof.json"]);
    let strip = |out: &Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&plain), strip(&profiled), "--prof changed the simulation report");
}

/// Resume validates the ledger flag against the checkpoint both ways,
/// with an explanatory error — the restored ledger would otherwise
/// silently miss the pre-boundary counts (or drop the captured ones).
#[test]
fn resume_rejects_prof_flag_mismatch() {
    let dir = tmp("flag_mismatch");
    run_in(
        &dir,
        "1",
        &[
            "run", "--days", "20", "--seed", "7", "--checkpoint-every", "864000",
            "--ckpt-dir", "with_prof", "--prof", "prof.json",
        ],
    );
    run_in(
        &dir,
        "1",
        &[
            "run", "--days", "20", "--seed", "7", "--checkpoint-every", "864000",
            "--ckpt-dir", "without_prof",
        ],
    );
    let cases = [
        ("with_prof", vec![]),
        ("without_prof", vec!["--prof", "prof2.json"]),
    ];
    for (ckpt_dir, extra) in cases {
        let ckpt = dir.join(ckpt_dir).join("ckpt-000000.json");
        let mut args = vec!["run", "--from-checkpoint", ckpt.to_str().expect("utf8 path")];
        args.extend(extra);
        let out = Command::new(bin())
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("spawn titan-repro");
        assert!(!out.status.success(), "prof flag mismatch accepted for {ckpt_dir}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--prof"),
            "expected a --prof mismatch error for {ckpt_dir}, got:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "mismatch caused a panic:\n{stderr}");
    }
}

/// `profile --perfetto` contains no wall-clock values, so it is
/// byte-identical run to run; `--flamegraph` is wall-weighted (not
/// comparable) but must keep the documented collapsed-stack shape.
#[test]
fn profile_exports_have_documented_determinism() {
    let args = [
        "profile", "--days", "6", "--seed", "42", "--flamegraph", "fg.txt", "--perfetto",
        "pf.json",
    ];
    let d1 = tmp("exports_1");
    let d2 = tmp("exports_2");
    run_in(&d1, "1", &args);
    run_in(&d2, "1", &args);
    let p1 = std::fs::read(d1.join("pf.json")).expect("perfetto 1");
    let p2 = std::fs::read(d2.join("pf.json")).expect("perfetto 2");
    assert!(!p1.is_empty());
    assert_eq!(p1, p2, "perfetto counter export differs run to run");
    let text = String::from_utf8(p1).expect("utf8 perfetto");
    assert!(text.contains("\"ph\":\"C\""), "no counter events in perfetto export");

    let fg = std::fs::read_to_string(d1.join("fg.txt")).expect("flamegraph");
    assert!(!fg.is_empty(), "empty flamegraph");
    for line in fg.lines() {
        assert!(line.starts_with("titan;"), "collapsed stack line `{line}` lacks root frame");
        let (_, weight) = line.rsplit_once(' ').expect("weight column");
        weight.parse::<u64>().unwrap_or_else(|_| panic!("non-integer weight in `{line}`"));
    }
    assert!(
        fg.lines().any(|l| l.starts_with("titan;engine:event_loop;ev:")),
        "no event-kind frames nested under the engine loop:\n{fg}"
    );
}
