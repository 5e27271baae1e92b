//! `titan-repro` — the command-line front end of the reproduction.
//!
//! ```text
//! titan-repro taxonomy                      Tables 1 & 2 (XID taxonomy)
//! titan-repro run   [--days N] [--seed S] [--metrics FILE]
//!                                           simulate and print the report
//! titan-repro check [--days N] [--seed S] [--metrics FILE] [--json FILE]
//!                                           evaluate paper-shape checks;
//!                                           exit 1 on any FAIL
//! titan-repro logs  [--days N] [--seed S] --out DIR
//!                                           write console/job/aprun logs
//! titan-repro replicate --seeds N [--threads T] [--days D] [--seed S]
//!                       [--skip-expectations] [--out FILE.json]
//!                       [--metrics FILE.json]
//!                                           run N seeds in parallel and
//!                                           report mean/95% CI bands
//! titan-repro profile [--days N] [--seed S] [--metrics FILE]
//!                                           run a window and print the
//!                                           titan-prof/2 deterministic
//!                                           cost ledger plus a wall-clock
//!                                           attribution table
//! ```
//!
//! Without `--days` the full Jun'13–Feb'15 window runs (about 7 s in
//! release on a 2-core host). Everything is seed-deterministic: the same
//! seed and window produce byte-identical output.
//!
//! Time domains: the metrics documents written by `--metrics` carry
//! sim-time quantities only and are byte-identical across thread
//! widths; wall-clock timing appears exclusively in `profile` output
//! and the quarantined `wall` section of `titan-prof/2` (this binary is
//! outside the engine, so `std::time` is allowed here — see
//! OBSERVABILITY.md and lint rule D5).

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use titan_gpu_reliability::gpu::{ErrorCategory, GpuErrorKind};
use titan_gpu_reliability::sim::Simulator;
use titan_gpu_reliability::{evaluate_all, full_report, Study, StudyConfig, Verdict};
use titan_obs::Obs;

/// Process-wide allocation accounting for the `titan-prof/2` cost
/// ledger. The engine crates all `#![forbid(unsafe_code)]`, so the
/// counting allocator lives here in the binary and reaches the ledger
/// as a plain `fn() -> AllocStats` probe pointer.
///
/// The counters are thread-local `Cell`s: a `GlobalAlloc` impl must not
/// allocate, lock, or panic, and the engine is strictly single-threaded
/// by design (lint rule D4), so the engine thread's cells observe every
/// engine allocation and the probe's deltas are deterministic — rayon
/// replication workers each count their own thread without contending.
mod alloc_track {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static BYTES: Cell<u64> = const { Cell::new(0) };
        static FREES: Cell<u64> = const { Cell::new(0) };
    }

    /// Pass-through system allocator that counts per-thread traffic.
    pub struct CountingAlloc;

    // SAFETY: defers every allocation to `System`; the bookkeeping is
    // plain `Cell` arithmetic on already-initialized thread-locals
    // (`try_with` makes the TLS-teardown window a silent no-op).
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
                let _ =
                    BYTES.try_with(|c| c.set(c.get().wrapping_add(layout.size() as u64)));
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            let _ = FREES.try_with(|c| c.set(c.get().wrapping_add(1)));
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                // A realloc retires one block and produces another.
                let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
                let _ = BYTES.try_with(|c| c.set(c.get().wrapping_add(new_size as u64)));
                let _ = FREES.try_with(|c| c.set(c.get().wrapping_add(1)));
            }
            p
        }
    }

    /// Monotone allocation totals for the calling thread — the ledger
    /// snapshots these at every scope switch and charges the delta.
    pub fn probe() -> titan_obs::AllocStats {
        titan_obs::AllocStats {
            allocs: ALLOCS.try_with(Cell::get).unwrap_or(0),
            bytes: BYTES.try_with(Cell::get).unwrap_or(0),
            frees: FREES.try_with(Cell::get).unwrap_or(0),
        }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

/// Subcommands that accept `--json`, for the rejection message every
/// other subcommand prints.
const JSON_SUBCOMMANDS: &[&str] = &["check", "profile"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "taxonomy" => taxonomy(&args[1..]),
        "run" => run(&args[1..]),
        "check" => check(&args[1..]),
        "logs" => logs(&args[1..]),
        "replicate" => replicate(&args[1..]),
        "profile" => profile(&args[1..]),
        "trace" => trace_cmd(&args[1..]),
        // lint: allow(P2, first() returned Some above, so index 1.. is in bounds)
        "health" => health_cmd(&args[1..]),
        "ckpt" => ckpt_cmd(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: titan-repro <command> [options]

commands:
  taxonomy                          print Tables 1 & 2 (the XID taxonomy)
  run   [--days N] [--seed S] [--metrics FILE] [--trace FILE] [--health FILE]
        [--prof FILE]
        [--checkpoint-every SECS --ckpt-dir DIR] [--from-checkpoint FILE]
                                    simulate and print the full report;
                                    --metrics writes the sim-time telemetry
                                    document (stable JSON, seed-deterministic);
                                    --trace writes the titan-trace/1 causal
                                    flight-recorder JSONL;
                                    --health writes the titan-health/1 online
                                    reliability-analytics JSONL (rolling MTBF,
                                    spatial heat, top offenders, fired alerts);
                                    --prof arms the deterministic cost ledger
                                    and writes the titan-prof/2 document;
                                    --checkpoint-every freezes the full machine
                                    state into DIR/ckpt-NNNNNN.json (titan-ckpt/1,
                                    hash-chained) every SECS sim seconds;
                                    --from-checkpoint resumes one and reproduces
                                    the run-through output byte for byte (use the
                                    same --metrics/--trace/--health/--prof flags
                                    as the original)
  check [--days N] [--seed S] [--metrics FILE] [--json FILE] [--health FILE]
                                    run the paper-shape checks; exit 1 on FAIL;
                                    --json writes per-check verdicts as JSON
  logs  [--days N] [--seed S] --out DIR
                                    write console.log / job.log / aprun.log
  replicate --seeds N [--threads T] [--days D] [--seed S]
            [--skip-expectations] [--out FILE.json] [--metrics FILE.json]
            [--trace DIR] [--health DIR]
                                    run N independent seeds across T threads
                                    (default: all cores) and report mean/95% CI
                                    bands; per-seed output is byte-identical
                                    to a sequential run of the same seed;
                                    --metrics writes per-seed telemetry
                                    documents plus aggregate metric bands;
                                    --trace writes DIR/trace-seed-<seed>.jsonl
                                    per seed; --health writes
                                    DIR/health-seed-<seed>.jsonl per seed
  profile [--days N] [--seed S] [--metrics FILE] [--json FILE] [--health FILE]
          [--flamegraph FILE] [--perfetto FILE]
                                    run one window with the titan-prof/2 cost
                                    ledger armed and print the deterministic
                                    per-scope cost table plus a quarantined
                                    wall-clock attribution table;
                                    --json writes the titan-prof/2 document
                                    (the titan-profile/1 wall-phase table is
                                    retired); --flamegraph writes collapsed
                                    stacks (flamegraph.pl / inferno input);
                                    --perfetto writes Chrome/Perfetto counter
                                    tracks from the sim-time series
  health <summarize|watch|rules> FILE [--trace TRACEFILE]
                                    inspect a titan-health/1 JSONL: summarize
                                    prints the end-of-run fleet summary; watch
                                    replays the interval stream as deterministic
                                    heatmap frames; rules prints the default
                                    alert-rule set as JSON; --trace additionally
                                    walks every fired alert back to its causing
                                    fault draft in the given titan-trace/1 file
                                    (exit 1 on a provenance hole)
  trace <verify|summarize|show> FILE
        [--card N] [--node N] [--job APID] [--window LO:HI] [--chrome FILE]
                                    inspect a titan-trace/1 JSONL: verify walks
                                    every alert/retirement back to an injected
                                    fault draft (exit 1 on provenance holes);
                                    summarize prints per-kind counts; show
                                    prints matching records; --chrome exports
                                    Chrome trace events (open in Perfetto)
  ckpt <verify|bisect> ...
                                    verify FILE: recompute a checkpoint's chained
                                    digest and report its provenance;
                                    bisect DIR_A DIR_B: compare two runs'
                                    checkpoint chains and report the first
                                    interval whose chained digest diverges

Without --days the full 21-month study window runs (about 7 s in release on a 2-core host).";

/// Parsed common options.
struct Opts {
    days: Option<u64>,
    seed: Option<u64>,
    out: Option<String>,
    metrics: Option<String>,
    json: Option<String>,
    trace: Option<String>,
    health: Option<String>,
    prof: Option<String>,
    flamegraph: Option<String>,
    perfetto: Option<String>,
    checkpoint_every: Option<u64>,
    ckpt_dir: Option<String>,
    from_checkpoint: Option<String>,
    inject_divergence: Option<u64>,
}

impl Opts {
    /// True when any checkpoint/restore flag was given (only `run`
    /// accepts them).
    fn any_checkpoint_flag(&self) -> bool {
        self.checkpoint_every.is_some()
            || self.ckpt_dir.is_some()
            || self.from_checkpoint.is_some()
            || self.inject_divergence.is_some()
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        days: None,
        seed: None,
        out: None,
        metrics: None,
        json: None,
        trace: None,
        health: None,
        prof: None,
        flamegraph: None,
        perfetto: None,
        checkpoint_every: None,
        ckpt_dir: None,
        from_checkpoint: None,
        inject_divergence: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--days" => {
                let v = it.next().ok_or("--days needs a value")?;
                opts.days = Some(
                    v.parse()
                        .map_err(|_| format!("--days: `{v}` is not a non-negative integer"))?,
                );
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: `{v}` is not a non-negative integer"))?,
                );
            }
            "--out" => {
                opts.out = Some(it.next().ok_or("--out needs a directory")?.clone());
            }
            "--metrics" => {
                opts.metrics = Some(it.next().ok_or("--metrics needs a file")?.clone());
            }
            "--json" => {
                opts.json = Some(it.next().ok_or("--json needs a file")?.clone());
            }
            "--trace" => {
                opts.trace = Some(it.next().ok_or("--trace needs a file")?.clone());
            }
            "--health" => {
                opts.health = Some(it.next().ok_or("--health needs a file")?.clone());
            }
            "--prof" => {
                opts.prof = Some(it.next().ok_or("--prof needs a file")?.clone());
            }
            "--flamegraph" => {
                opts.flamegraph = Some(it.next().ok_or("--flamegraph needs a file")?.clone());
            }
            "--perfetto" => {
                opts.perfetto = Some(it.next().ok_or("--perfetto needs a file")?.clone());
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs sim seconds")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--checkpoint-every: `{v}` is not a positive integer"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1 sim second".into());
                }
                opts.checkpoint_every = Some(n);
            }
            "--ckpt-dir" => {
                opts.ckpt_dir = Some(it.next().ok_or("--ckpt-dir needs a directory")?.clone());
            }
            "--from-checkpoint" => {
                opts.from_checkpoint =
                    Some(it.next().ok_or("--from-checkpoint needs a file")?.clone());
            }
            "--inject-divergence" => {
                let v = it.next().ok_or("--inject-divergence needs sim seconds")?;
                opts.inject_divergence = Some(v.parse().map_err(|_| {
                    format!("--inject-divergence: `{v}` is not a non-negative integer")
                })?);
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Builds a validated study config from the common options.
fn study_config(opts: &Opts) -> Result<StudyConfig, String> {
    let mut config = match opts.days {
        Some(days) => StudyConfig::quick(days, opts.seed.unwrap_or(0x7174_414E)),
        None => StudyConfig::default(),
    };
    if let Some(seed) = opts.seed {
        config.sim.seed = seed;
    }
    config
        .sim
        .validate()
        .map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(config)
}

fn write_text(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// Runs a study, collecting telemetry only when the sink is enabled
/// (`--metrics`, or always under `profile`). Collection never perturbs
/// the run — the digest-equality tests in `titan-runner` pin that — so
/// the printed report is identical either way.
fn run_study(
    config: StudyConfig,
    obs: &mut Obs,
) -> (
    titan_gpu_reliability::study::CompletedStudy,
    Option<titan_runner::MetricsDoc>,
) {
    let seed = config.sim.seed;
    let window = config.sim.window;
    let study = Study::new(config).run_with_obs(obs);
    // Collection also runs for a trace-only capture: the SEC replay and
    // nvsmi rollup it performs mint the collect-time trace records.
    let doc = if obs.is_enabled() || obs.trace_enabled() {
        obs.phase("cli:collect_metrics");
        let doc = titan_runner::collect_metrics(&study.sim, seed, window, obs);
        obs.is_enabled().then_some(doc)
    } else {
        None
    };
    (study, doc)
}

/// Builds the CLI's observability sink from the common options.
fn build_obs(opts: &Opts, metrics_on: bool) -> Obs {
    let mut obs = Obs::new(metrics_on);
    if opts.trace.is_some() {
        obs.enable_trace();
    }
    if opts.health.is_some() {
        obs.enable_health();
    }
    obs
}

fn taxonomy(args: &[String]) -> Result<ExitCode, String> {
    if !args.is_empty() {
        return Err(format!("taxonomy takes no options\n{USAGE}"));
    }
    println!("Table 1 — hardware (and ambiguous) GPU errors:");
    for k in GpuErrorKind::ALL {
        if matches!(
            k.category(),
            ErrorCategory::Hardware | ErrorCategory::Ambiguous
        ) {
            print_kind(k);
        }
    }
    println!();
    println!("Table 2 — software/firmware (and ambiguous) GPU errors:");
    for k in GpuErrorKind::ALL {
        if matches!(
            k.category(),
            ErrorCategory::SoftwareFirmware | ErrorCategory::Ambiguous
        ) {
            print_kind(k);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn print_kind(k: GpuErrorKind) {
    let xid = match k.xid() {
        Some(x) => format!("XID {:>3}", x.0),
        None => "no XID ".to_string(),
    };
    println!("  {xid}  {}", k.description());
}

/// Builds the `--ckpt-dir` writer: each sealed checkpoint document goes
/// to `DIR/ckpt-<index>.json` the moment its boundary is reached.
/// Progress chatter goes to **stderr** so stdout stays byte-comparable
/// between checkpointed, plain, and resumed runs.
fn checkpoint_sink(
    dir: Option<String>,
) -> Result<impl FnMut(&titan_runner::CheckpointDoc) -> Result<(), String>, String> {
    if let Some(d) = &dir {
        std::fs::create_dir_all(d).map_err(|e| format!("create {d}: {e}"))?;
    }
    Ok(move |doc: &titan_runner::CheckpointDoc| {
        let Some(d) = &dir else { return Ok(()) };
        let path = format!("{d}/ckpt-{:06}.json", doc.index);
        std::fs::write(&path, titan_runner::render_checkpoint(doc))
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!(
            "checkpoint {:>3}  t = {:>10} s  digest {:016x}  -> {path}",
            doc.index, doc.t, doc.digest
        );
        Ok(())
    })
}

/// The shared tail of every `run` variant: collect telemetry, print the
/// report, write the artifacts. Identical on the straight-through,
/// checkpointing, and resumed paths — that is what makes their stdout,
/// metrics, and trace byte-comparable.
fn finish_run(
    study: &titan_gpu_reliability::study::CompletedStudy,
    obs: &mut Obs,
    opts: &Opts,
    seed: u64,
    window: u64,
    prof_clock: Option<Rc<RefCell<KindClock>>>,
) -> Result<ExitCode, String> {
    let doc = if obs.is_enabled() || obs.trace_enabled() {
        obs.phase("cli:collect_metrics");
        let doc = titan_runner::collect_metrics(&study.sim, seed, window, obs);
        obs.is_enabled().then_some(doc)
    } else {
        None
    };
    println!("{}", full_report(study));
    if let (Some(path), Some(doc)) = (&opts.metrics, &doc) {
        write_text(path, &doc.to_json())?;
    }
    if let Some(path) = &opts.trace {
        write_text(path, &obs.stream.render_jsonl(seed, window / 86_400))?;
    }
    if let Some(path) = &opts.health {
        write_text(path, &obs.health.render_jsonl(seed, window / 86_400))?;
    }
    if let Some(path) = &opts.prof {
        // The ledger is closed only now, so the report rendering above is
        // attributed (to cli:collect_metrics) like everything else.
        obs.prof_finish();
        let wall = match &prof_clock {
            Some(clock) => clock.borrow_mut().finish(),
            None => return Err("prof clock missing (internal error)".into()),
        };
        let metrics = doc.ok_or("prof collected no telemetry (internal error)")?;
        let prof_doc =
            titan_obs::ProfDoc::build(obs.prof_ledger(), seed, window / 86_400, metrics, wall);
        write_text(path, &prof_doc.to_json())?;
    }
    Ok(ExitCode::SUCCESS)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    if opts.json.is_some() {
        return Err(json_rejection());
    }
    if opts.flamegraph.is_some() || opts.perfetto.is_some() {
        return Err("--flamegraph and --perfetto apply to `profile` only".into());
    }
    if opts.checkpoint_every.is_some() != opts.ckpt_dir.is_some() {
        return Err("--checkpoint-every and --ckpt-dir must be given together".into());
    }
    if opts.inject_divergence.is_some()
        && opts.checkpoint_every.is_none()
        && opts.from_checkpoint.is_none()
    {
        return Err(
            "--inject-divergence is for validating `ckpt bisect`; combine it with \
             --checkpoint-every or --from-checkpoint"
                .into(),
        );
    }
    let every = opts.checkpoint_every.unwrap_or(0);

    // Resume: the checkpoint carries the full configuration.
    if let Some(path) = &opts.from_checkpoint {
        if opts.days.is_some() || opts.seed.is_some() {
            return Err(
                "--from-checkpoint carries its own configuration; drop --days/--seed".into(),
            );
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let ck = titan_runner::parse_checkpoint(&text)?;
        // Every observer's state rides the checkpoint: a sink switched on
        // only at resume would start from zero, and one switched off
        // would drop what was captured, so any flag mismatch is refused
        // up front instead of diverging. `--prof` embeds the metrics
        // document, so it switches metrics on too; it is checked first
        // so the error names the flag that was actually given.
        let sinks = [
            ("--prof", ck.obs.prof_enabled(), opts.prof.is_some()),
            ("--health", ck.obs.health_enabled(), opts.health.is_some()),
            ("--metrics", ck.metrics_enabled, opts.metrics.is_some() || opts.prof.is_some()),
            ("--trace", ck.trace_enabled, opts.trace.is_some()),
        ];
        if let Some((flag, was_on, _)) = sinks.iter().find(|(_, was_on, on)| was_on != on) {
            return Err(format!(
                "--from-checkpoint {path}: the checkpoint was written {} {flag}; \
                 resume with the same --metrics/--trace/--health/--prof flags as the \
                 original run",
                if *was_on { "with" } else { "without" }
            ));
        }
        let seed = ck.seed;
        let window = ck.config.sim.window;
        eprintln!(
            "resuming from checkpoint {} (t = {} s, digest {:016x})",
            ck.index, ck.t, ck.digest
        );
        let mut obs = build_obs(&opts, opts.metrics.is_some() || opts.prof.is_some());
        let prof_clock = opts.prof.is_some().then(|| arm_prof(&mut obs));
        let sink = checkpoint_sink(opts.ckpt_dir.clone())?;
        let study =
            titan_runner::resume_checkpointed(&ck, every, opts.inject_divergence, &mut obs, sink)?;
        return finish_run(&study, &mut obs, &opts, seed, window, prof_clock);
    }

    let config = study_config(&opts)?;
    let seed = config.sim.seed;
    let window = config.sim.window;
    // `--prof` embeds the metrics document in titan-prof/2, so the sink
    // comes on with it (collection never perturbs the run — the
    // digest-equality tests in `titan-runner` pin that).
    let mut obs = build_obs(&opts, opts.metrics.is_some() || opts.prof.is_some());
    let prof_clock = opts.prof.is_some().then(|| arm_prof(&mut obs));

    // Checkpointing run: the runner drives the engine in boundary-sized
    // steps; output is byte-identical to the plain path below.
    if every > 0 {
        let sink = checkpoint_sink(opts.ckpt_dir.clone())?;
        let study =
            titan_runner::run_checkpointed(&config, every, opts.inject_divergence, &mut obs, sink)?;
        return finish_run(&study, &mut obs, &opts, seed, window, prof_clock);
    }

    let study = Study::new(config).run_with_obs(&mut obs);
    finish_run(&study, &mut obs, &opts, seed, window, prof_clock)
}

/// Builds the `--json applies to …` rejection from the actual list of
/// subcommands that accept the flag, so the message can never drift from
/// the dispatch table.
fn json_rejection() -> String {
    let list: Vec<String> = JSON_SUBCOMMANDS.iter().map(|s| format!("`{s}`")).collect();
    format!("--json applies to {} only", list.join(" and "))
}

/// The `ckpt` subcommand: offline tooling over `titan-ckpt/1` files.
fn ckpt_cmd(args: &[String]) -> Result<ExitCode, String> {
    let Some(mode) = args.first() else {
        return Err(format!("ckpt needs a mode (verify | bisect)\n{USAGE}"));
    };
    match mode.as_str() {
        "verify" => {
            let [_, file] = args else {
                return Err("usage: ckpt verify FILE".into());
            };
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
            let doc = titan_runner::parse_checkpoint(&text)?;
            println!(
                "{file}: checkpoint {} of seed {} ({} days), t = {} s, digest {:016x} \
                 (chained over {:016x}) — digest OK",
                doc.index, doc.seed, doc.window_days, doc.t, doc.digest, doc.prev_digest
            );
            Ok(ExitCode::SUCCESS)
        }
        "bisect" => {
            let [_, dir_a, dir_b] = args else {
                return Err("usage: ckpt bisect DIR_A DIR_B".into());
            };
            let a = load_checkpoint_chain(dir_a)?;
            let b = load_checkpoint_chain(dir_b)?;
            println!(
                "run A: {} checkpoints ({dir_a}), run B: {} checkpoints ({dir_b})",
                a.len(),
                b.len()
            );
            let report = titan_runner::bisect(&a, &b)?;
            match report.divergence {
                Some(d) => {
                    println!(
                        "first divergence at checkpoint {}: the runs diverged in \
                         ({} s, {} s] — chained digests agree through t = {} s",
                        d.index, d.t_lo, d.t_hi, d.t_lo
                    );
                }
                None => {
                    println!(
                        "chains agree through all {} compared checkpoints — no divergence",
                        report.compared
                    );
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown ckpt mode `{other}`\n{USAGE}")),
    }
}

/// Loads every `ckpt-*.json` in `dir`, digest-verifying each, sorted by
/// checkpoint index.
fn load_checkpoint_chain(dir: &str) -> Result<Vec<titan_runner::CheckpointDoc>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {dir}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{dir}: no ckpt-*.json checkpoint files"));
    }
    let mut docs = Vec::new();
    for name in names {
        let path = format!("{dir}/{name}");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        docs.push(titan_runner::parse_checkpoint(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    docs.sort_by_key(|d| d.index);
    Ok(docs)
}

/// One line of the `check --json` document.
#[derive(serde::Serialize)]
struct CheckVerdict {
    id: String,
    verdict: String,
    paper: String,
    measured: String,
}

/// The `check --json` document: machine-readable per-check verdicts.
#[derive(serde::Serialize)]
struct CheckDoc {
    schema: String,
    seed: u64,
    window_days: u64,
    pass: u32,
    weak: u32,
    fail: u32,
    checks: Vec<CheckVerdict>,
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    if opts.trace.is_some() {
        return Err("--trace applies to `run` and `replicate` only".into());
    }
    if opts.prof.is_some() {
        return Err("--prof applies to `run` only (profile always arms the ledger)".into());
    }
    if opts.flamegraph.is_some() || opts.perfetto.is_some() {
        return Err("--flamegraph and --perfetto apply to `profile` only".into());
    }
    if opts.any_checkpoint_flag() {
        return Err("checkpoint flags apply to `run` only".into());
    }
    let config = study_config(&opts)?;
    let seed = config.sim.seed;
    let window_days = config.sim.window / 86_400;
    let mut obs = build_obs(&opts, opts.metrics.is_some());
    let (study, doc) = run_study(config, &mut obs);
    let figures = study.figures();
    let (mut pass, mut weak, mut fail) = (0u32, 0u32, 0u32);
    let mut checks = Vec::new();
    for e in evaluate_all(&figures) {
        println!("[{}] {:<6} {}", e.verdict, e.id, e.measured);
        match e.verdict {
            Verdict::Pass => pass += 1,
            Verdict::Weak => weak += 1,
            Verdict::Fail => fail += 1,
        }
        checks.push(CheckVerdict {
            id: e.id,
            verdict: e.verdict.to_string(),
            paper: e.paper,
            measured: e.measured,
        });
    }
    println!("{pass} PASS / {weak} WEAK / {fail} FAIL");
    if let Some(path) = &opts.json {
        let doc = CheckDoc {
            schema: "titan-check/1".to_string(),
            seed,
            window_days,
            pass,
            weak,
            fail,
            checks,
        };
        let mut json = serde_json::to_string_pretty(&doc)
            .map_err(|e| format!("serialize checks: {e}"))?;
        json.push('\n');
        write_text(path, &json)?;
    }
    if let (Some(path), Some(doc)) = (&opts.metrics, &doc) {
        write_text(path, &doc.to_json())?;
    }
    if let Some(path) = &opts.health {
        write_text(path, &obs.health.render_jsonl(seed, window_days))?;
    }
    if fail > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn replicate(args: &[String]) -> Result<ExitCode, String> {
    let mut days: Option<u64> = None;
    let mut base_seed: u64 = 0x7174_414E;
    let mut seeds: Option<u64> = None;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut health_dir: Option<String> = None;
    let mut skip_expectations = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{name} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{name}: `{v}` is not a non-negative integer"))
        };
        match flag.as_str() {
            "--days" => days = Some(num("--days")?),
            "--seed" => base_seed = num("--seed")?,
            "--seeds" => seeds = Some(num("--seeds")?),
            "--threads" => threads = Some(num("--threads")? as usize),
            "--skip-expectations" => skip_expectations = true,
            "--out" => out = Some(it.next().ok_or("--out needs a file")?.clone()),
            "--metrics" => {
                metrics = Some(it.next().ok_or("--metrics needs a file")?.clone());
            }
            "--trace" => {
                trace_dir = Some(it.next().ok_or("--trace needs a directory")?.clone());
            }
            "--health" => {
                health_dir = Some(it.next().ok_or("--health needs a directory")?.clone());
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let n = seeds.ok_or("replicate requires --seeds N")?;
    if n == 0 {
        return Err("--seeds must be at least 1".into());
    }
    let base = match days {
        Some(d) => StudyConfig::quick(d, base_seed),
        None => {
            let mut c = StudyConfig::default();
            c.sim.seed = base_seed;
            c
        }
    };
    let threads = threads.unwrap_or_else(titan_runner::recommended_threads);
    let mut opts = titan_runner::ReplicateOptions::consecutive(base, base_seed, n, threads)?;
    opts.skip_expectations = skip_expectations;
    opts.collect_obs = metrics.is_some();
    opts.collect_trace = trace_dir.is_some();
    opts.collect_health = health_dir.is_some();
    let (report, traces, healths) = titan_runner::replicate_full(&opts)?;
    print!("{}", titan_runner::render_report(&report));
    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
        for (run, trace) in report.runs.iter().zip(&traces) {
            let Some(text) = trace else {
                return Err("replicate produced no trace (internal error)".into());
            };
            write_text(&format!("{dir}/trace-seed-{}.jsonl", run.seed), text)?;
        }
    }
    if let Some(dir) = health_dir {
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
        for (run, health) in report.runs.iter().zip(&healths) {
            let Some(text) = health else {
                return Err("replicate produced no health doc (internal error)".into());
            };
            write_text(&format!("{dir}/health-seed-{}.jsonl", run.seed), text)?;
        }
    }
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("serialize report: {e}"))?;
        std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = metrics {
        let doc = titan_runner::obs_replicate_doc(&report)
            .ok_or("replicate produced no telemetry (internal error)")?;
        write_text(&path, &titan_runner::render_obs_metrics_json(&doc))?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Wall-clock scope ledger the cost ledger's edge hook writes into. This
/// is the only place in the workspace where scope markers meet
/// `Instant`: the engine emits pure `&'static str` edges (phase markers
/// and `ev:` kind names), and this CLI timestamps them on arrival (lint
/// rule D5 keeps it that way). Unlike the retired `PhaseClock`, scopes
/// repeat — every row is find-or-push accumulated.
struct KindClock {
    started: Instant,
    current: Option<(&'static str, Instant)>,
    scopes: Vec<(&'static str, Duration, u64)>,
}

impl KindClock {
    fn new() -> Self {
        KindClock {
            started: Instant::now(),
            current: None,
            scopes: Vec::new(),
        }
    }

    fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        if let Some((prev, t0)) = self.current.take() {
            self.credit(prev, now.duration_since(t0));
        }
        self.current = Some((name, now));
    }

    fn credit(&mut self, name: &'static str, d: Duration) {
        match self.scopes.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, total, switches)) => {
                *total += d;
                *switches += 1;
            }
            None => self.scopes.push((name, d, 1)),
        }
    }

    /// Closes the open scope and renders the quarantined wall section:
    /// rows largest-first, attribution percentage against the time since
    /// the ledger was armed.
    fn finish(&mut self) -> titan_obs::WallDoc {
        let now = Instant::now();
        if let Some((prev, t0)) = self.current.take() {
            self.credit(prev, now.duration_since(t0));
        }
        let total_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let attributed_ms: f64 =
            self.scopes.iter().map(|(_, d, _)| d.as_secs_f64() * 1e3).sum();
        let mut scopes: Vec<titan_obs::WallScope> = self
            .scopes
            .iter()
            .map(|(name, d, switches)| titan_obs::WallScope {
                name: (*name).to_string(),
                wall_ms: d.as_secs_f64() * 1e3,
                switches: *switches,
            })
            .collect();
        scopes.sort_by(|a, b| {
            b.wall_ms.partial_cmp(&a.wall_ms).unwrap_or(std::cmp::Ordering::Equal)
        });
        titan_obs::WallDoc {
            total_ms,
            attributed_ms,
            attributed_pct: if total_ms > 0.0 { attributed_ms / total_ms * 100.0 } else { 0.0 },
            scopes,
        }
    }
}

/// Arms the `titan-prof/2` cost ledger on `obs`: collection on, the
/// binary's allocator probe installed, and the wall-clock edge hook
/// wired to a fresh [`KindClock`] whose epoch starts now.
fn arm_prof(obs: &mut Obs) -> Rc<RefCell<KindClock>> {
    let clock = Rc::new(RefCell::new(KindClock::new()));
    obs.enable_prof();
    obs.set_prof_alloc_probe(alloc_track::probe);
    let hook = Rc::clone(&clock);
    obs.set_prof_wall_hook(Box::new(move |name| hook.borrow_mut().mark(name)));
    clock
}

fn profile(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    if opts.out.is_some() || opts.trace.is_some() || opts.prof.is_some()
        || opts.any_checkpoint_flag()
    {
        return Err(
            "profile takes --days / --seed / --metrics / --json / --health / \
             --flamegraph / --perfetto only (the ledger is always armed here; \
             `run --prof` writes the same document from a plain run)"
                .into(),
        );
    }
    let config = study_config(&opts)?;
    let seed = config.sim.seed;
    let window_days = config.sim.window / 86_400;

    let mut obs = build_obs(&opts, true);
    // Health collection is always on under `profile`, so the ledger (and
    // the titan-prof/2 document) exposes what the online analytics layer
    // costs on top of the metrics sink.
    obs.enable_health();
    let clock = arm_prof(&mut obs);

    let (study, doc) = run_study(config, &mut obs);
    obs.phase("cli:figures_checks");
    let figures = study.figures();
    let evals = evaluate_all(&figures);
    obs.phase("cli:render_health");
    let health_text = obs.health.render_jsonl(seed, window_days);
    obs.prof_finish();
    let wall = clock.borrow_mut().finish();
    let doc = doc.ok_or("profile collected no telemetry (internal error)")?;
    let prof_doc =
        titan_obs::ProfDoc::build(obs.prof_ledger(), seed, window_days, doc.clone(), wall);

    println!("titan-repro profile — seed {seed}, {window_days} days");
    println!();
    println!("deterministic cost ledger (titan-prof/2; seed-deterministic):");
    println!(
        "  {:<28} {:>9} {:>9} {:>10} {:>8} {:>8} {:>11}",
        "scope", "dequeues", "pushes", "rng_draws", "trace", "console", "alloc_bytes"
    );
    for (name, c) in &prof_doc.ledger {
        println!(
            "  {name:<28} {:>9} {:>9} {:>10} {:>8} {:>8} {:>11}",
            c.dequeues, c.heap_pushes, c.rng_draws, c.trace_records, c.console_lines,
            c.alloc_bytes
        );
    }
    let t = &prof_doc.totals;
    println!(
        "  {:<28} {:>9} {:>9} {:>10} {:>8} {:>8} {:>11}",
        "totals", t.dequeues, t.heap_pushes, t.rng_draws, t.trace_records, t.console_lines,
        t.alloc_bytes
    );
    println!();
    println!("wall-clock attribution (this host; quarantined from digests):");
    for s in &prof_doc.wall.scopes {
        println!(
            "  {:<28} {:>10.3} ms  ({} switch{})",
            s.name,
            s.wall_ms,
            s.switches,
            if s.switches == 1 { "" } else { "es" }
        );
    }
    println!(
        "  {:<28} {:>10.3} ms  ({:.1}% attributed)",
        "total", prof_doc.wall.total_ms, prof_doc.wall.attributed_pct
    );
    println!();
    println!("sim-time telemetry (seed-deterministic; see OBSERVABILITY.md):");
    for (section, map) in [
        ("engine", &doc.engine),
        ("faults", &doc.faults),
        ("sec", &doc.sec),
        ("nvsmi", &doc.nvsmi),
    ] {
        println!("  [{section}]");
        for (name, value) in map {
            println!("    {name:<38} {value:>12}");
        }
    }
    println!("  [histograms]");
    for (name, h) in &doc.histograms {
        println!("    {name:<38} count {:>8}  sum {:>10}", h.count, h.sum);
    }
    let fails = evals.iter().filter(|e| e.verdict == Verdict::Fail).count();
    println!("  [health]");
    let hdoc = titan_obs::parse_health(&health_text)?;
    println!("    {:<38} {:>12}", "intervals", hdoc.header.intervals);
    println!("    {:<38} {:>12}", "alerts_fired", hdoc.header.alerts);
    println!();
    println!(
        "checks: {} evaluated, {fails} FAIL (run `titan-repro check` for detail)",
        evals.len()
    );
    if let Some(path) = &opts.metrics {
        write_text(path, &doc.to_json())?;
    }
    if let Some(path) = &opts.health {
        write_text(path, &health_text)?;
    }
    if let Some(path) = &opts.json {
        eprintln!(
            "note: `profile --json` now writes titan-prof/2; the titan-profile/1 \
             wall-clock phase table is retired (wall time lives on in the \
             quarantined `wall` section)"
        );
        write_text(path, &prof_doc.to_json())?;
    }
    if let Some(path) = &opts.flamegraph {
        write_text(path, &prof_doc.collapsed_stacks())?;
    }
    if let Some(path) = &opts.perfetto {
        write_text(path, &prof_doc.perfetto_counters())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The `trace` subcommand: verify / summarize / show over a
/// `titan-trace/1` JSONL file written by `run --trace` or
/// `replicate --trace`.
fn trace_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut mode: Option<String> = None;
    let mut file: Option<String> = None;
    let mut filter = titan_obs::TraceFilter::default();
    let mut chrome: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{name} needs a value"))?;
            v.parse()
                .map_err(|_| format!("{name}: `{v}` is not a non-negative integer"))
        };
        match arg.as_str() {
            "--card" => filter.card = Some(num("--card")?),
            "--node" => filter.node = Some(num("--node")?),
            "--job" => filter.apid = Some(num("--job")?),
            "--window" => {
                let v = it.next().ok_or("--window needs LO:HI (sim seconds)")?;
                let Some((lo, hi)) = v.split_once(':') else {
                    return Err(format!("--window: `{v}` is not LO:HI"));
                };
                let lo: u64 = lo
                    .parse()
                    .map_err(|_| format!("--window: `{lo}` is not a non-negative integer"))?;
                let hi: u64 = hi
                    .parse()
                    .map_err(|_| format!("--window: `{hi}` is not a non-negative integer"))?;
                if lo > hi {
                    return Err(format!("--window: {lo} > {hi}"));
                }
                filter.window = Some((lo, hi));
            }
            "--chrome" => {
                chrome = Some(it.next().ok_or("--chrome needs a file")?.clone());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            word if mode.is_none() => mode = Some(word.to_string()),
            word if file.is_none() => file = Some(word.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let mode = mode.ok_or(format!("trace needs a mode\n{USAGE}"))?;
    let file = file.ok_or(format!("trace needs a FILE\n{USAGE}"))?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("read {file}: {e}"))?;
    let (header, records) = titan_obs::parse_trace(&text)?;
    match mode.as_str() {
        "verify" => {
            let report = titan_obs::verify_trace(&header, &records);
            println!(
                "{}: {} records, {} chains walked, max depth {}",
                file, report.records, report.chains_walked, report.max_depth
            );
            if report.ok() {
                println!("provenance OK: every alert and retirement walks back to a fault draft");
                Ok(ExitCode::SUCCESS)
            } else {
                for e in &report.errors {
                    println!("VIOLATION: {e}");
                }
                println!("{} provenance violation(s)", report.errors.len());
                Ok(ExitCode::FAILURE)
            }
        }
        "summarize" => {
            let kept: Vec<titan_obs::TraceRecord> = records
                .iter()
                .filter(|r| filter.matches(r))
                .cloned()
                .collect();
            print!("{}", titan_obs::summarize_trace(&header, &kept));
            Ok(ExitCode::SUCCESS)
        }
        "show" => {
            let kept: Vec<titan_obs::TraceRecord> = records
                .iter()
                .filter(|r| filter.matches(r))
                .cloned()
                .collect();
            if let Some(path) = chrome {
                write_text(&path, &titan_obs::chrome_trace(&kept))?;
            } else {
                for r in &kept {
                    println!(
                        "{}",
                        serde_json::to_string(r).map_err(|e| format!("serialize record: {e}"))?
                    );
                }
                eprintln!("{} of {} records matched", kept.len(), records.len());
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown trace mode `{other}`\n{USAGE}")),
    }
}

/// The `health` subcommand: summarize / watch / rules over a
/// `titan-health/1` JSONL file written by `run --health`,
/// `check --health`, or `replicate --health`.
fn health_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut mode: Option<String> = None;
    let mut file: Option<String> = None;
    let mut trace_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace_file = Some(it.next().ok_or("--trace needs a file")?.clone());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n{USAGE}"));
            }
            word if mode.is_none() => mode = Some(word.to_string()),
            word if file.is_none() => file = Some(word.to_string()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    let mode = mode.ok_or(format!("health needs a mode\n{USAGE}"))?;
    if mode == "rules" {
        // `rules` takes no FILE: it prints the default alert-rule set,
        // the starting point for a hand-rolled rule JSON.
        if let Some(extra) = file {
            return Err(format!("health rules takes no FILE (got `{extra}`)"));
        }
        print!(
            "{}",
            titan_obs::rules_to_json(&titan_obs::olcf_default_rules())
        );
        return Ok(ExitCode::SUCCESS);
    }
    let file = file.ok_or(format!("health needs a FILE\n{USAGE}"))?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("read {file}: {e}"))?;
    let doc = titan_obs::parse_health(&text).map_err(|e| format!("{file}: {e}"))?;
    let walk = |doc: &titan_obs::HealthDoc| -> Result<(), String> {
        let Some(tf) = &trace_file else { return Ok(()) };
        let ttext = std::fs::read_to_string(tf).map_err(|e| format!("read {tf}: {e}"))?;
        let (_, records) = titan_obs::parse_trace(&ttext).map_err(|e| format!("{tf}: {e}"))?;
        let walked = titan_obs::verify_health_alerts(doc, &records)?;
        println!("provenance OK: {walked} alert(s) walk back to a causing fault draft");
        Ok(())
    };
    match mode.as_str() {
        "summarize" => {
            print!("{}", titan_obs::summarize_health(&doc));
            walk(&doc)?;
            Ok(ExitCode::SUCCESS)
        }
        "watch" => {
            print!("{}", titan_obs::watch_health(&doc));
            walk(&doc)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown health mode `{other}`\n{USAGE}")),
    }
}

fn logs(args: &[String]) -> Result<ExitCode, String> {
    let opts = parse_opts(args)?;
    if opts.metrics.is_some() || opts.json.is_some() || opts.trace.is_some()
        || opts.health.is_some() || opts.prof.is_some() || opts.flamegraph.is_some()
        || opts.perfetto.is_some() || opts.any_checkpoint_flag()
    {
        return Err("logs takes --days / --seed / --out only".into());
    }
    let out_dir = opts.out.clone().ok_or("logs requires --out DIR")?;
    let config = study_config(&opts)?;
    let sim = Simulator::new(config.sim)?;
    let output = sim.run();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let write = |name: &str, text: String| -> Result<(), String> {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
        Ok(())
    };
    write("console.log", output.render_console_log())?;
    write("job.log", output.render_job_log())?;
    write("aprun.log", output.render_aprun_log())?;
    Ok(ExitCode::SUCCESS)
}
