//! End-to-end checkpoint/restore identity, driven through the real
//! `titan-repro` binary (the contract DETERMINISM.md documents):
//!
//! 1. `run --from-checkpoint` at boundary T reproduces a run that
//!    passed straight through T **byte for byte** — console report on
//!    stdout, `titan-obs/2` metrics document, and `titan-trace/1`
//!    flight recording — at `TITAN_NUM_THREADS` 1 and 8;
//! 2. a corrupted checkpoint (one flipped byte) fails chained-digest
//!    verification with a clean error, never a panic;
//! 3. `ckpt bisect` localizes an injected divergence to the one
//!    checkpoint interval that contains it.
//!
//! Runs use relative artifact paths under per-test working directories
//! so the `wrote …` lines on stdout are byte-comparable too.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const DAY: u64 = 86_400;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_titan-repro")
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("checkpoint_determinism");
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

/// The tentpole invariant: resuming from checkpoint T produces output
/// byte-identical to a run that passed through T — stdout (report and
/// `wrote …` lines), metrics JSON, and trace JSONL — at thread width 1
/// and 8. Checkpoint progress chatter stays on stderr, so stdout needs
/// no filtering at all.
#[test]
fn resume_is_byte_identical_to_run_through() {
    for threads in ["1", "8"] {
        let through = tmp(&format!("through_t{threads}"));
        let resumed = tmp(&format!("resumed_t{threads}"));
        let a = run_in(
            &through,
            threads,
            &[
                "run",
                "--days",
                "30",
                "--seed",
                "7",
                "--checkpoint-every",
                "864000", // 10 days: checkpoints at t = 10 d and 20 d
                "--ckpt-dir",
                "ckpts",
                "--metrics",
                "metrics.json",
                "--trace",
                "trace.jsonl",
            ],
        );
        let ckpt = through.join("ckpts").join("ckpt-000001.json");
        assert!(ckpt.is_file(), "second checkpoint missing");
        let b = run_in(
            &resumed,
            threads,
            &[
                "run",
                "--from-checkpoint",
                ckpt.to_str().expect("utf8 path"),
                "--metrics",
                "metrics.json",
                "--trace",
                "trace.jsonl",
            ],
        );
        assert_eq!(
            String::from_utf8_lossy(&a.stdout),
            String::from_utf8_lossy(&b.stdout),
            "stdout diverged after resume (threads {threads})"
        );
        for artifact in ["metrics.json", "trace.jsonl"] {
            let x = std::fs::read(through.join(artifact)).expect("through artifact");
            let y = std::fs::read(resumed.join(artifact)).expect("resumed artifact");
            assert!(!x.is_empty());
            assert_eq!(x, y, "{artifact} diverged after resume (threads {threads})");
        }
    }
}

/// A resumed run that keeps checkpointing reproduces the original
/// run's remaining checkpoints exactly — same bytes, same chained
/// digests — so `ckpt bisect` can compare a partial re-run against the
/// original chain. Also covers `ckpt verify` on an intact file.
#[test]
fn resumed_checkpoints_continue_the_identical_chain() {
    let through = tmp("chain_through");
    let resumed = tmp("chain_resumed");
    run_in(
        &through,
        "1",
        &[
            "run", "--days", "30", "--seed", "11", "--checkpoint-every", "518400", // 6 d
            "--ckpt-dir", "ckpts",
        ],
    );
    let first = through.join("ckpts").join("ckpt-000000.json");
    run_in(
        &resumed,
        "1",
        &[
            "run",
            "--from-checkpoint",
            first.to_str().expect("utf8 path"),
            "--checkpoint-every",
            "518400",
            "--ckpt-dir",
            "ckpts",
        ],
    );
    // 30 d at a 6 d cadence: boundaries 6/12/18/24 d => indexes 0..=3.
    for idx in 1..=3 {
        let name = format!("ckpt-{idx:06}.json");
        let x = std::fs::read(through.join("ckpts").join(&name)).expect("through ckpt");
        let y = std::fs::read(resumed.join("ckpts").join(&name)).expect("resumed ckpt");
        assert_eq!(x, y, "{name} differs between original and resumed chains");
    }
    let verify = run_in(&through, "1", &["ckpt", "verify", "ckpts/ckpt-000003.json"]);
    let text = String::from_utf8_lossy(&verify.stdout);
    assert!(text.contains("digest OK"), "verify did not confirm digest:\n{text}");
}

/// Corruption must be detected, not propagated: flipping one byte of a
/// checkpoint makes `--from-checkpoint` fail with a clean chained-digest
/// error — nonzero exit, explanatory message, no panic.
#[test]
fn corrupted_checkpoint_fails_cleanly() {
    let dir = tmp("corrupt");
    run_in(
        &dir,
        "1",
        &[
            "run", "--days", "12", "--seed", "3", "--checkpoint-every", "345600", // 4 d
            "--ckpt-dir", "ckpts",
        ],
    );
    let path = dir.join("ckpts").join("ckpt-000000.json");
    let mut text = std::fs::read_to_string(&path).expect("checkpoint file");
    // Flip one digit of the checkpoint's sim time: still valid JSON, so
    // the failure is digest verification, not a parse error.
    let t_at = text.find("\"t\":").expect("t field") + 4;
    let digit = text[t_at..].chars().next().expect("t digit");
    let flipped = if digit == '9' { '8' } else { '9' };
    text.replace_range(t_at..t_at + 1, &flipped.to_string());
    std::fs::write(&path, text).expect("write corrupted checkpoint");

    let out = Command::new(bin())
        .args(["run", "--from-checkpoint", path.to_str().expect("utf8 path")])
        .current_dir(&dir)
        .output()
        .expect("spawn titan-repro");
    assert!(!out.status.success(), "corrupted checkpoint was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("digest mismatch"),
        "expected a chained-digest error, got:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "corruption caused a panic:\n{stderr}");
}

/// The text of a real checkpoint (12-day window, boundary at day 4),
/// written once and shared by the hostile-checkpoint tests.
fn base_checkpoint() -> &'static str {
    static TEXT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = tmp("hostile_base");
        run_in(
            &dir,
            "1",
            &[
                "run", "--days", "12", "--seed", "3", "--checkpoint-every", "345600", // 4 d
                "--ckpt-dir", "ckpts",
            ],
        );
        std::fs::read_to_string(dir.join("ckpts").join("ckpt-000000.json")).expect("checkpoint")
    })
}

/// The named field of a JSON object.
fn field_mut<'a>(v: &'a mut serde::Value, name: &str) -> &'a mut serde::Value {
    match v {
        serde::Value::Object(o) => {
            &mut o.iter_mut().find(|(k, _)| k == name).expect(name).1
        }
        _ => panic!("{name}: parent is not an object"),
    }
}

/// The base checkpoint with the engine's `pre_sbe` list of the first
/// job running at the boundary replaced by `edit(job, node_job)`, where
/// `node_job[n]` is the job holding node `n`.
fn edit_pre_sbe(edit: impl FnOnce(u64, &[serde::Value]) -> serde::Value) -> serde::Value {
    use serde::Value;
    let mut doc: Value = serde_json::from_str(base_checkpoint().trim_end()).expect("json");
    let jobs = field_mut(field_mut(&mut doc, "engine"), "jobs");
    let Value::Array(node_job) = jobs.get_field("node_job").clone() else {
        panic!("node_job: not an array");
    };
    let Value::Array(states) = field_mut(jobs, "state") else {
        panic!("state: not an array");
    };
    let (j, state) = states
        .iter_mut()
        .enumerate()
        .find(|(_, st)| st.get_field("pre_sbe") != &Value::Null)
        .expect("a job running at the checkpoint");
    *field_mut(state, "pre_sbe") = edit(j as u64, &node_job);
    doc
}

/// Resumes from `text` and returns stderr, asserting the run was
/// refused without a panic.
fn refused(name: &str, text: &str) -> String {
    let dir = tmp(name);
    let path = dir.join("ckpt.json");
    std::fs::write(&path, text).expect("write checkpoint");
    let out = Command::new(bin())
        .args(["run", "--from-checkpoint", path.to_str().expect("utf8 path")])
        .current_dir(&dir)
        .output()
        .expect("spawn titan-repro");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "{name}: hostile checkpoint was accepted");
    assert!(
        !stderr.contains("panicked"),
        "{name}: panic on resume:\n{stderr}"
    );
    stderr
}

/// Seals an edited document that still has the current shape: the
/// chained digest is recomputed, so only the engine's own checks can
/// refuse it.
fn resealed(doc: &serde::Value) -> String {
    let text = serde_json::to_string(doc).expect("serialize");
    let mut doc: titan_runner::CheckpointDoc =
        serde_json::from_str(&text).expect("current shape");
    doc.digest = titan_runner::checkpoint_digest(&doc);
    titan_runner::render_checkpoint(&doc)
}

fn entry(node: &serde::Value) -> serde::Value {
    let zeros = vec![serde::Value::UInt(0); 5];
    serde::Value::Array(vec![node.clone(), serde::Value::Array(zeros)])
}

/// Nodes of the job `j` according to `node_job`.
fn job_nodes(j: u64, node_job: &[serde::Value]) -> Vec<serde::Value> {
    (0u64..)
        .zip(node_job)
        .filter(|(_, held)| **held == serde::Value::UInt(j))
        .map(|(n, _)| serde::Value::UInt(n))
        .collect()
}

/// A checkpoint whose engine keeps a reading of every node of a running
/// job (the dense nvidia-smi prologue of earlier builds) no longer
/// parses: resuming from it fails with a clean error, not a panic.
#[test]
fn dense_prologue_checkpoint_is_refused() {
    let doc = edit_pre_sbe(|j, node_job| {
        let zeros = serde::Value::Array(vec![serde::Value::UInt(0); 5]);
        serde::Value::Array(vec![zeros; job_nodes(j, node_job).len()])
    });
    let text = serde_json::to_string(&doc).expect("serialize") + "\n";
    let stderr = refused("hostile_dense", &text);
    assert!(
        stderr.contains("checkpoint parse"),
        "expected a parse error, got:\n{stderr}"
    );
}

/// A prologue reading for a node the job does not hold is refused.
#[test]
fn prologue_reading_for_a_foreign_node_is_refused() {
    let doc = edit_pre_sbe(|j, node_job| {
        let foreign = (0u64..)
            .zip(node_job)
            .find(|(_, held)| **held != serde::Value::UInt(j))
            .map(|(n, _)| serde::Value::UInt(n))
            .expect("a node outside the job");
        serde::Value::Array(vec![entry(&foreign)])
    });
    let stderr = refused("hostile_foreign", &resealed(&doc));
    assert!(stderr.contains("does not hold"), "unexpected error:\n{stderr}");
}

/// Two prologue readings for the same node are refused.
#[test]
fn duplicate_prologue_reading_is_refused() {
    let doc = edit_pre_sbe(|j, node_job| {
        let nodes = job_nodes(j, node_job);
        let node = nodes.first().expect("the job holds a node");
        serde::Value::Array(vec![entry(node), entry(node)])
    });
    let stderr = refused("hostile_duplicate", &resealed(&doc));
    assert!(stderr.contains("twice"), "unexpected error:\n{stderr}");
}

/// Acceptance: `ckpt bisect` pins an injected divergence to
/// the single checkpoint interval that contains it, and reports clean
/// agreement for identical runs.
#[test]
fn bisect_localizes_injected_divergence() {
    let clean = tmp("bisect_clean");
    let dirty = tmp("bisect_dirty");
    let base = [
        "run", "--days", "30", "--seed", "5", "--checkpoint-every", "864000", // 10 d
        "--ckpt-dir", "ckpts",
    ];
    run_in(&clean, "1", &base);
    // One extra RNG draw at day 15 — inside the (10 d, 20 d] interval.
    let inject = format!("{}", 15 * DAY);
    let mut dirty_args: Vec<&str> = base.to_vec();
    dirty_args.extend_from_slice(&["--inject-divergence", &inject]);
    run_in(&dirty, "1", &dirty_args);

    let clean_ckpts = clean.join("ckpts");
    let dirty_ckpts = dirty.join("ckpts");
    let out = run_in(
        &clean,
        "1",
        &[
            "ckpt",
            "bisect",
            clean_ckpts.to_str().expect("utf8 path"),
            dirty_ckpts.to_str().expect("utf8 path"),
        ],
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("first divergence at checkpoint 1"),
        "bisect did not localize to checkpoint 1:\n{text}"
    );
    assert!(
        text.contains(&format!("({} s, {} s]", 10 * DAY, 20 * DAY)),
        "bisect interval wrong:\n{text}"
    );
    // A chain compared against itself reports no divergence.
    let same = run_in(
        &clean,
        "1",
        &[
            "ckpt",
            "bisect",
            clean_ckpts.to_str().expect("utf8 path"),
            clean_ckpts.to_str().expect("utf8 path"),
        ],
    );
    let text = String::from_utf8_lossy(&same.stdout);
    assert!(text.contains("no divergence"), "self-comparison diverged:\n{text}");
}

/// Telemetry accounting across the resume boundary: every `titan-obs/2`
/// time series is an exact bucketization of its run-end counter, even
/// when the run was split by `--from-checkpoint` — the restored
/// `TimeBuckets` carry the pre-boundary mass, and the resumed half
/// only adds to it. Verified on both the uninterrupted and the resumed
/// document (which are also byte-identical by the resume contract).
#[test]
fn timeseries_sums_match_counters_across_resume() {
    let through = tmp("ts_sum_through");
    let resumed = tmp("ts_sum_resumed");
    run_in(
        &through,
        "1",
        &[
            "run", "--days", "30", "--seed", "9", "--checkpoint-every", "864000", // 10 d
            "--ckpt-dir", "ckpts", "--metrics", "metrics.json",
        ],
    );
    let ckpt = through.join("ckpts").join("ckpt-000000.json");
    run_in(
        &resumed,
        "1",
        &[
            "run",
            "--from-checkpoint",
            ckpt.to_str().expect("utf8 path"),
            "--metrics",
            "metrics.json",
        ],
    );
    for dir in [&through, &resumed] {
        let text = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics doc");
        let doc: titan_obs::MetricsDoc =
            serde_json::from_str(&text).expect("titan-obs/2 metrics parse");
        assert!(!doc.timeseries.series.is_empty(), "no time series in {}", dir.display());
        for (name, buckets) in &doc.timeseries.series {
            let sum: u64 = buckets.iter().sum();
            let counter = doc
                .engine
                .get(name)
                .or_else(|| doc.faults.get(name))
                .or_else(|| doc.sec.get(name))
                .or_else(|| doc.nvsmi.get(name))
                .unwrap_or_else(|| panic!("series `{name}` has no run-end counter"));
            assert_eq!(
                sum, *counter,
                "series `{name}` buckets sum to {sum} but the run-end counter is {counter} \
                 ({})",
                dir.display()
            );
        }
    }
    // And the split run's document is the uninterrupted one, byte for
    // byte — the sums above are the same numbers.
    let x = std::fs::read(through.join("metrics.json")).expect("through metrics");
    let y = std::fs::read(resumed.join("metrics.json")).expect("resumed metrics");
    assert_eq!(x, y, "metrics diverged across the resume boundary");
}
