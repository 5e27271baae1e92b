//! perfbench: the layered end-to-end benchmark of the Titan GPU
//! reliability reproduction. See README.md in this directory for the
//! workloads, the metrics and which layer moves which metric.
//!
//! Usage: `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics, traced runs the
//! per-layer ones.

mod alloc;
mod catalog;
mod pipeline;
mod stats;
mod tracer;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catalog::{END_TO_END, PER_LAYER};
use tracer::Tracer;
use workloads::Run;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0x7174_414E;
/// Where artifacts go while a run writes them; removed at the end, but
/// for the span file.
const OUT_DIR: &str = ".perfbench-out";
/// Share of a traced study that named layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;
/// Widest replication pool the benchmark uses.
const MAX_THREADS: usize = 2;

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
     workloads: full_study, replicate_short, observed_study, checkpoint_resume";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = catalog::workload(value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                workload = Some(w.name);
            }
            "--seed" => {
                seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("--seed {value}: {e}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected seconds >= 0"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(OUT_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let threads = titan_runner::recommended_threads().clamp(1, MAX_THREADS);
    println!("{}", host_facts(&args, threads));

    let mut run = Run::new(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        threads,
        dir.clone(),
    );
    run.execute();

    let spans_path = Path::new(OUT_DIR).join(format!(
        "spans-{}-{:x}-trace{}.jsonl",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&spans_path, run.t.to_jsonl(args.workload)) {
        run.problems
            .push(format!("write {}: {e}", spans_path.display()));
    }
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        run.problems.push(format!("remove {}: {e}", dir.display()));
    }

    let metrics = if args.trace {
        traced_summary(&mut run)
    } else {
        untraced_summary(&mut run)
    };
    for p in &run.problems {
        println!("problem: {p}");
    }
    println!("spans: {}", spans_path.display());
    let correct = run.failed == 0 && run.problems.is_empty();
    println!(
        "{}",
        result_json(correct, run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// What every result carries so numbers from different hosts, pool
/// widths, build profiles or commits are not compared by accident.
fn host_facts(args: &Args, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pool_env = std::env::var("TITAN_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let why = catalog::workload(args.workload).map_or("", |w| w.why);
    format!(
        "perfbench: workload {} ({} d window)  seed {:#x}  trace {}  seconds {}\n  {why}\n\
         host: nproc {nproc}  pool width {} (TITAN_NUM_THREADS {pool_env})  replicate threads \
         {threads}  profile {profile}  {}  commit {}",
        args.workload,
        workloads::window_days(args.workload),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        titan_runner::recommended_threads(),
        env!("PERFBENCH_RUSTC"),
        git_commit()
    )
}

/// The checkout's commit, or `unknown` outside a git work tree. The
/// search stops at the current directory, so an enclosing repository
/// is never reported by mistake.
fn git_commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(Path::to_path_buf).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// End-to-end metrics over the run's successful operations.
fn untraced_summary(run: &mut Run) -> BTreeMap<&'static str, f64> {
    let t = &run.t;
    let ok = run.ok_ops.clone();
    let cost = |op| t.root_cost(op, "study", &["split"]);
    let study: Vec<f64> = ok
        .iter()
        .filter_map(|&op| cost(op))
        .map(|c| c.secs)
        .collect();
    let alloc: Vec<f64> = ok
        .iter()
        .filter_map(|&op| cost(op))
        .map(|c| c.bytes as f64 / 1e6)
        .collect();
    let written: Vec<f64> = ok
        .iter()
        .map(|&op| {
            t.notes(op, "study")
                .get("written_bytes")
                .copied()
                .unwrap_or(0.0)
                / 1e6
        })
        .collect();
    let setup = run.setup_samples();
    // Per-operation peaks when the high-water mark could be reset before
    // each operation; otherwise the whole process's peak.
    let peaks: Vec<f64> = run
        .op_peak_mb
        .iter()
        .filter(|(op, _)| ok.contains(op))
        .map(|&(_, mb)| mb)
        .collect();
    let (peak, peak_text) = match (run.peak_reset, workloads::peak_rss_mb()) {
        (true, _) if !peaks.is_empty() => (
            stats::median(&peaks),
            format!("{} (VmHWM per operation)", stats::describe(&peaks, "MB")),
        ),
        (_, Some(p)) => (
            p,
            format!("{p:.1} MB (VmHWM of the process; could not reset it)"),
        ),
        (_, None) => {
            run.problems
                .push("VmHWM not readable from /proc/self/status".into());
            (f64::NAN, "not measured".to_string())
        }
    };
    let total: f64 = study.iter().sum();
    let mut m = BTreeMap::new();
    m.insert("setup_s", stats::median(&setup));
    m.insert("study_s", stats::median(&study));
    m.insert("seeds_per_s", run.seeds_done as f64 / total);
    m.insert("peak_rss_mb", peak);
    m.insert("alloc_mb", stats::median(&alloc));
    m.insert("written_mb", stats::median(&written));

    let seeds_line = format!(
        "{:.4} 1/s ({} seeds in {total:.3} s of studies)",
        m["seeds_per_s"], run.seeds_done
    );
    let described = [
        ("setup_s", stats::describe(&setup, "s")),
        ("study_s", stats::describe(&study, "s")),
        ("seeds_per_s", seeds_line),
        ("peak_rss_mb", peak_text),
        ("alloc_mb", stats::describe(&alloc, "MB")),
        ("written_mb", stats::describe(&written, "MB")),
    ];
    println!(
        "end-to-end ({} of {} operations succeeded):",
        ok.len(),
        run.attempted
    );
    for (e, (name, text)) in END_TO_END.iter().zip(&described) {
        debug_assert_eq!(e.name, *name);
        println!(
            "  {name:<12} {text}  ({} is better, bound {:.0}%)",
            e.better,
            e.bound * 100.0
        );
    }
    // Printed, not in the result line: it exists on one workload only.
    let resume: Vec<f64> = ok
        .iter()
        .filter_map(|&op| {
            t.layer_totals(op, "study")
                .get("runner.resume")
                .map(|l| l.secs)
        })
        .collect();
    let resume_text = if resume.is_empty() {
        "n/a (only checkpoint_resume resumes)".to_string()
    } else {
        stats::describe(&resume, "s")
    };
    println!("  {:<12} {resume_text}", "resume_s");
    println!(
        "  {:<12} {} ratio ({} failed / {} attempted)",
        "failed_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    if run.workload == "observed_study" {
        let plain: Vec<f64> = ok
            .iter()
            .filter_map(|&op| t.root(op, "plain"))
            .map(|(_, s)| s.secs())
            .collect();
        println!("{}", overhead_statement(&plain, &study));
    }
    m
}

/// `observed_study` minus the plain run of the same seeds, resolved
/// only when the difference exceeds both sides' quartile spread.
fn overhead_statement(plain: &[f64], observed: &[f64]) -> String {
    let (Some(p), Some(o)) = (stats::quartiles(plain), stats::quartiles(observed)) else {
        return "observer overhead: unresolved (no pairs)".into();
    };
    let diff = o.1 - p.1;
    let spread = (p.2 - p.0).max(o.2 - o.0);
    let verdict = if plain.len() < 2 {
        format!(
            "unresolved ({} pair; quartiles need two or more)",
            plain.len()
        )
    } else if spread >= diff.abs() {
        format!("unresolved (quartile spread {spread:.3} s >= difference)")
    } else {
        "resolved".into()
    };
    format!(
        "observer overhead: {diff:+.3} s ({:+.1}%) {verdict}\n  plain    median {:.3} s \
         [q1 {:.3}, q3 {:.3}] n={}\n  observed median {:.3} s [q1 {:.3}, q3 {:.3}] n={}",
        diff / p.1 * 100.0,
        p.1,
        p.0,
        p.2,
        plain.len(),
        o.1,
        o.0,
        o.2,
        observed.len()
    )
}

/// Per-layer metrics of the traced operations (every operation after
/// the untraced reference, operation 0), medians across them, plus the
/// attribution and exact-repeat checks.
fn traced_summary(run: &mut Run) -> BTreeMap<&'static str, f64> {
    let t = &run.t;
    let reference = t
        .root_cost(0, "study", &["split"])
        .map_or(f64::NAN, |c| c.secs);
    let traced: Vec<usize> = run.ok_ops.iter().copied().filter(|&op| op > 0).collect();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &op in &traced {
        for (name, v) in layer_metrics(t, op, reference) {
            samples.entry(name).or_default().push(v);
        }
    }
    let mut problems = Vec::new();
    let mut m = BTreeMap::new();
    println!(
        "per-layer ({} traced operation(s); self-time rule: span minus children):",
        traced.len()
    );
    for layer in &PER_LAYER {
        let v = samples.get(layer.name).map_or(0.0, |s| stats::median(s));
        m.insert(layer.name, v);
        println!(
            "  {:<28} {v:>14.6} {:<6} ({} is better)",
            layer.name, layer.unit, layer.better
        );
    }
    let coverage = m["trace.coverage"];
    println!(
        "tracing: untraced study {reference:.3} s, traced study {:.3} s, overhead {:+.3} s; \
         named layer spans cover {:.2}% of the traced study",
        reference + m["trace.overhead_s"],
        m["trace.overhead_s"],
        coverage * 100.0
    );
    if traced.is_empty() {
        problems.push("no traced operation succeeded".to_string());
    } else if coverage < MIN_COVERAGE {
        problems.push(format!(
            "layer spans cover only {:.2}% of the study",
            coverage * 100.0
        ));
    }
    // Exact-repeat check of the engine's allocation columns: the
    // untraced reference and the traced operations ran the same seed.
    let base = t.layer_totals(0, "study");
    for &op in &traced {
        let totals = t.layer_totals(op, "study");
        for name in ["sim.setup", "sim.loop", "sim.finalize"] {
            if let (Some(a), Some(b)) = (base.get(name), totals.get(name)) {
                let same = if a.bytes == b.bytes {
                    "repeats"
                } else {
                    "DIFFERS"
                };
                println!(
                    "exact-repeat {name}: {} B then {} B: {same}",
                    a.bytes, b.bytes
                );
                if a.bytes != b.bytes {
                    problems.push(format!("{name} allocations do not repeat"));
                }
            }
        }
    }
    run.problems.extend(problems);
    m
}

/// One traced operation's per-layer values.
fn layer_metrics(t: &Tracer, op: usize, reference_s: f64) -> BTreeMap<&'static str, f64> {
    let totals = t.layer_totals(op, "study");
    let mut notes = t.notes(op, "study");
    notes.extend(t.notes(op, ""));
    let cost = t.root_cost(op, "study", &["split"]);
    let secs = |n: &str| totals.get(n).map_or(0.0, |l| l.secs);
    let bytes = |n: &str| totals.get(n).map_or(0.0, |l| l.bytes as f64 / 1e6);
    let seed_secs: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.op == op && s.name == "runner.seed")
        .map(|s| s.secs())
        .collect();
    let seed_pct = |p| {
        if seed_secs.is_empty() {
            0.0
        } else {
            stats::percentile(&seed_secs, p)
        }
    };
    let mut out = BTreeMap::new();
    for layer in &PER_LAYER {
        let n = layer.name;
        let v = match n {
            "core.bundle_s" => totals.get("core.bundle").map_or(0.0, |l| l.self_secs),
            "conlog.alloc_mb" => totals
                .iter()
                .filter(|(k, _)| k.starts_with("conlog."))
                .map(|(_, l)| l.bytes as f64 / 1e6)
                .sum(),
            "runner.seed_s_p50" => seed_pct(50.0),
            "runner.seed_s_p90" => seed_pct(90.0),
            "trace.coverage" => cost.map_or(0.0, |c| c.coverage),
            "trace.overhead_s" => cost.map_or(0.0, |c| c.secs - reference_s),
            _ => match (
                notes.get(n),
                n.strip_suffix("_alloc_mb"),
                n.strip_suffix("_s"),
            ) {
                (Some(&v), _, _) => v,
                (None, Some(span), _) => bytes(span),
                (None, None, Some(span)) => secs(span),
                _ => 0.0,
            },
        };
        out.insert(n, v);
    }
    out
}

/// The result line. Every metric the mode reports appears once, with
/// its unit; a value that could not be measured prints as 0.
fn result_json(correct: bool, attempted: u64, failed: u64, m: &BTreeMap<&str, f64>) -> String {
    let units = END_TO_END
        .iter()
        .map(|e| (e.name, e.unit))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)));
    let mut metrics = String::new();
    for (name, unit) in units {
        assert!(
            catalog::valid_name(name) && catalog::valid_unit(unit),
            "bad name {name}"
        );
        if let Some(&v) = m.get(name) {
            let v = if v.is_finite() { v } else { 0.0 };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(&[
            "--workload",
            "full_study",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("full_study", 7, 10.0, true)
        );
        let a =
            parse_args(&args(&["--workload", "replicate_short", "--seed", "0x10"])).expect("valid");
        assert_eq!((a.seed, a.trace), (16, false));
        let a = parse_args(&args(&["--workload", "checkpoint_resume"])).expect("valid");
        assert_eq!(a.seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_misspelt_workloads_and_bad_values() {
        assert!(parse_args(&args(&["--workload", "full-study"])).is_err());
        assert!(parse_args(&args(&["--seed", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "full_study", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "full_study", "--seconds", "-1"])).is_err());
        assert!(parse_args(&args(&["--workload", "full_study", "--seed"])).is_err());
    }

    #[test]
    fn result_line_has_the_contract_keys_and_known_metrics_only() {
        let mut m = BTreeMap::new();
        m.insert("study_s", 1.25);
        m.insert("setup_s", f64::NAN);
        m.insert("not_a_metric", 3.0);
        let line = result_json(true, 2, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"study_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let doc: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        assert!(matches!(doc.get_field("metrics"), serde::Value::Object(_)));
    }

    #[test]
    fn overhead_is_unresolved_inside_the_spread() {
        assert!(overhead_statement(&[10.0], &[14.0]).contains("unresolved (1 pair"));
        let s = overhead_statement(&[10.0, 10.1, 9.9, 10.0], &[14.0, 14.1, 13.9, 14.0]);
        assert!(s.contains("+4.000 s") && s.contains("resolved") && !s.contains("unresolved"));
        let s = overhead_statement(&[10.0, 12.0, 8.0, 10.0], &[10.5, 12.5, 8.5, 10.5]);
        assert!(s.contains("unresolved (quartile spread"));
    }
}
