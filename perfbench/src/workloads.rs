//! The four workloads. Each operation runs under a root span named
//! `study`; its wall time, allocation volume and written bytes are the
//! operation's end-to-end samples. Traced operations add a `split`
//! child (the per-piece calls and their checks), which the end-to-end
//! figures leave out. `observed_study` also runs a `plain` root, the
//! same seed with observers off, and extra engine set-ups run under
//! `setup` roots.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

use titan_obs::{Obs, ProfDoc, WallDoc, WallScope};
use titan_reliability::{evaluate_all, Figures, StudyConfig};
use titan_runner::{
    output_digest, parse_checkpoint, render_checkpoint, render_report, replicate,
    resume_checkpointed, run_checkpointed, ReplicateOptions,
};
use titan_sim::{EngineState, SimConfig};

use crate::alloc;
use crate::pipeline::{self, fnv1a, mb};
use crate::tracer::Tracer;

/// Every seed corpus below counts from the CLI's default seed.
const CORPUS_BASE: u64 = 0x7174_414E;

// Seed corpora, as offsets from CORPUS_BASE. A study's cost is heavy
// tailed across seeds: over the full window the bytes the engine run
// and the log round trip allocate (`Simulator::run`, then
// `Study::complete_from_sim`) range from 1.3 to 4.9 GB over the first
// 64 seeds, and console volume from 0.51 to 1.60 million lines. An
// input of a stated size therefore takes its seeds from a band: each
// corpus holds the seeds whose allocation volume over the workload's
// window lies within 3% of the median of the first N seeds from
// CORPUS_BASE. The volume is deterministic per seed, so the band is
// fixed; it is a property of the input, not of any timing.

/// Full window, N = 64, median 2 819 MB.
const FULL_CORPUS: [u64; 9] = [5, 10, 11, 30, 32, 39, 44, 45, 50];
/// The full-window corpus entries whose trace document (what
/// `observed_study` writes most of) lies within 3% of the corpus median
/// of 296 MB; the nine range from 264 to 318 MB.
const OBSERVED_CORPUS: [u64; 2] = [5, 30];
/// 120 days, N = 128, median 680 MB (range 369 to 1 492 MB). The size
/// of the two checkpoints varies as widely (39 to 219 MB, median 87 MB),
/// so this corpus also keeps it within 3% of its median.
const CKPT_CORPUS: [u64; 7] = [7, 11, 71, 77, 86, 118, 123];
/// 30 days, N = 128, median 227 MB (range 130 to 524 MB).
const SHORT_CORPUS: [u64; 16] = [
    9, 11, 13, 25, 39, 46, 77, 79, 81, 83, 85, 90, 109, 112, 120, 124,
];

/// Entry `n + i` of `corpus` (cyclically) as a seed: the `--seed` value
/// `n` picks where a run starts, and its `i`-th study takes the next.
fn corpus_seed(corpus: &[u64], n: u64, i: usize) -> u64 {
    let len = corpus.len() as u64;
    CORPUS_BASE + corpus[((n % len + i as u64) % len) as usize]
}

/// Window and seed count of `replicate_short`.
pub const REPLICATE_DAYS: u64 = 30;
pub const REPLICATE_SEEDS: u64 = 8;
/// Window and checkpoint interval of `checkpoint_resume`.
pub const CKPT_DAYS: u64 = 120;
pub const CKPT_EVERY_DAYS: u64 = 40;
/// Engine set-ups measured per run for `setup_s`, counting those the
/// operations made themselves: at least the minimum, and more (up to
/// the maximum) while they have taken under [`SETUP_BUDGET_S`].
const SETUP_MIN_SAMPLES: usize = 5;
const SETUP_MAX_SAMPLES: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// No new operation starts after this much wall time, whatever
/// `--seconds` says, so a run stays well inside its time limit.
const HARD_STOP_S: f64 = 100.0;

/// Writes artifacts into the run's output directory.
pub struct Io {
    dir: PathBuf,
}

impl Io {
    /// Writes `text` to `name`, noting the bytes written.
    pub fn write(&self, t: &mut Tracer, name: &str, text: &str) -> Result<(), String> {
        let path = self.dir.join(name);
        t.span("bench.write", |t| {
            t.note("written_bytes", text.len() as f64);
            std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
        })
    }
}

/// One benchmark run: its settings, spans and tallies.
pub struct Run {
    pub workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    io: Io,
    pub t: Tracer,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Operations that completed without a problem.
    pub ok_ops: Vec<usize>,
    /// Seeds completed by the successful operations.
    pub seeds_done: u64,
    /// Each operation's peak resident memory, MB.
    pub op_peak_mb: Vec<(usize, f64)>,
    /// Whether every operation's peak was measured from a reset
    /// high-water mark.
    pub peak_reset: bool,
    /// `replicate_short`: per-seed digests from the first repeat.
    reference: Option<Vec<(u64, u64)>>,
}

/// What an operation prints about itself besides its costs.
struct OpNote {
    /// FNV-1a of the operation's report, for comparing commits.
    digest: u64,
    detail: String,
    problems: Vec<String>,
}

impl Run {
    pub fn new(
        workload: &'static str,
        seed: u64,
        seconds: f64,
        traced: bool,
        threads: usize,
        dir: PathBuf,
    ) -> Self {
        Run {
            workload,
            seed,
            seconds,
            traced,
            threads,
            io: Io { dir },
            t: Tracer::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            ok_ops: Vec::new(),
            seeds_done: 0,
            op_peak_mb: Vec::new(),
            peak_reset: true,
            reference: None,
        }
    }

    /// Runs operations until `--seconds` have passed (a traced run makes
    /// one untraced reference operation and at least one traced one, on
    /// the same seed), then the extra engine set-ups.
    pub fn execute(&mut self) {
        if self.traced {
            // Run the engine's one-time lazy initialisation first, so the
            // reference and traced operations allocate alike.
            let sim = workload_sim(self.workload, self.op_seed(0));
            self.t.begin_op(usize::MAX, sim.seed);
            self.t
                .span("warmup", |_| EngineState::new(&sim, &mut Obs::disabled()));
        }
        let started = Instant::now();
        let mut op = 0;
        loop {
            let split = self.traced && op > 0;
            let seed = self.op_seed(op);
            self.t.begin_op(op, seed);
            self.peak_reset &= reset_peak_rss();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.operation(op, seed, split)
            }));
            self.attempted += 1;
            if let Some(mb) = peak_rss_mb() {
                self.op_peak_mb.push((op, mb));
            }
            let problem = match result {
                Ok(Ok(note)) => {
                    self.print_op(op, seed, &note);
                    (!note.problems.is_empty()).then(|| note.problems.join("; "))
                }
                Ok(Err(e)) => Some(e),
                Err(panic) => Some(format!("panicked: {}", panic_text(&*panic))),
            };
            match problem {
                Some(p) => {
                    self.failed += 1;
                    println!("op {op}: FAILED: {p}");
                    self.problems.push(format!("op {op} (seed {seed:#x}): {p}"));
                }
                None => {
                    self.ok_ops.push(op);
                    self.seeds_done += if self.workload == "replicate_short" {
                        REPLICATE_SEEDS
                    } else {
                        1
                    };
                }
            }
            op += 1;
            let elapsed = started.elapsed().as_secs_f64();
            let enough = op >= if self.traced { 2 } else { 1 };
            if (enough && elapsed >= self.seconds) || elapsed >= HARD_STOP_S {
                break;
            }
        }
        if !self.traced {
            self.extra_setups(op);
        }
    }

    /// Operation `op`'s seed, from the workload's corpus. A traced run
    /// repeats its reference seed; `replicate_short` repeats one seed
    /// list and this is its first seed.
    fn op_seed(&self, op: usize) -> u64 {
        let i = if self.traced || self.workload == "replicate_short" {
            0
        } else {
            op
        };
        corpus_seed(corpus(self.workload), self.seed, i)
    }

    fn operation(&mut self, op: usize, seed: u64, split: bool) -> Result<OpNote, String> {
        match self.workload {
            "full_study" => self.full_study(seed, split),
            "replicate_short" => self.replicate_short(seed, split),
            "observed_study" => self.observed_study(op, seed, split),
            "checkpoint_resume" => self.checkpoint_resume(seed, split),
            other => Err(format!("unknown workload {other}")),
        }
    }

    fn print_op(&self, op: usize, seed: u64, note: &OpNote) {
        let Some(cost) = self.t.root_cost(op, "study", &["split"]) else {
            return;
        };
        let written = self
            .t
            .notes(op, "study")
            .get("written_bytes")
            .copied()
            .unwrap_or(0.0);
        println!(
            "op {op}: seed {seed:#x}  study {:.3} s  alloc {:.1} MB  written {:.3} MB  \
             report fnv1a {:016x}  {}",
            cost.secs,
            cost.bytes as f64 / 1e6,
            written / 1e6,
            note.digest,
            note.detail
        );
    }

    fn full_study(&mut self, seed: u64, split: bool) -> Result<OpNote, String> {
        let cfg = full_config(seed);
        let Run { t, io, .. } = self;
        t.span("study", |t| {
            let mut obs = Obs::disabled();
            let sim = pipeline::simulate(&cfg.sim, &mut obs, t);
            let study = pipeline::bundle(&cfg, sim, &mut obs, t, split);
            let report = pipeline::report(&study, t);
            io.write(t, "report.md", &report)?;
            let mut problems: Vec<String> =
                pipeline::roundtrip_problem(&study).into_iter().collect();
            if split {
                problems.extend(t.span("split", |t| {
                    pipeline::split_and_verify(&study, Some(&report), t)
                }));
            }
            t.span("core.free", |_| drop(study));
            Ok(report_note(&report, problems))
        })
    }

    fn observed_study(&mut self, op: usize, seed: u64, split: bool) -> Result<OpNote, String> {
        let cfg = full_config(seed);
        let Run { t, io, .. } = self;
        // Alternate which arm runs first, so drift within a run does not
        // always favour the same side.
        let (mut plain, mut observed) = (None, None);
        let plain_first = op.is_multiple_of(2);
        for observed_arm in [!plain_first, plain_first] {
            if observed_arm {
                observed = Some(t.span("study", |t| observed_arm_run(&cfg, io, t, split))?);
            } else {
                plain = Some(t.span("plain", |t| plain_arm_run(&cfg, t)));
            }
        }
        let (Some(plain), Some((mut note, report))) = (plain, observed) else {
            return Err("an arm did not run".into());
        };
        if plain != report {
            note.problems
                .push("observed report differs from the plain report".into());
        }
        let loop_s = |root| {
            t.layer_totals(op, root)
                .get("sim.loop")
                .map_or(0.0, |l| l.secs)
        };
        // Noted outside any root span; the per-layer table reads these.
        let inloop = loop_s("study") - loop_s("plain");
        t.note("obs.inloop_s", inloop);
        let plain_s = t.root(op, "plain").map_or(0.0, |(_, s)| s.secs());
        note.detail
            .push_str(&format!("  plain {plain_s:.3} s  in-loop {inloop:+.3} s"));
        Ok(note)
    }

    fn replicate_short(&mut self, seed: u64, split: bool) -> Result<OpNote, String> {
        let base = StudyConfig::quick(REPLICATE_DAYS, seed);
        let opts = ReplicateOptions {
            base: base.clone(),
            seeds: (0..REPLICATE_SEEDS as usize)
                .map(|i| corpus_seed(&SHORT_CORPUS, self.seed, i))
                .collect(),
            threads: self.threads,
            skip_expectations: false,
            collect_obs: false,
            collect_trace: false,
            collect_health: false,
        };
        let threads = self.threads;
        let Run { t, io, .. } = self;
        let (digests, mut note) = t.span("study", |t| {
            let rep = t.span("runner.replicate", |_| replicate(&opts))?;
            let text = t.span("runner.render_report", |_| render_report(&rep));
            io.write(t, "replication.txt", &text)?;
            let digests: Vec<(u64, u64)> =
                rep.runs.iter().map(|r| (r.seed, r.output_digest)).collect();
            let mut problems = Vec::new();
            if rep.runs.iter().any(|r| r.expectations.is_empty()) {
                problems.push("a seed ran without the expectation registry".to_string());
            }
            if split {
                let wall = t.last("runner.replicate").map_or(f64::NAN, |s| s.secs());
                problems.extend(t.span("split", |t| seeds_split(&base, &digests, t)));
                let seed_secs: f64 = t
                    .spans()
                    .iter()
                    .rev()
                    .take_while(|s| s.name != "runner.replicate")
                    .filter(|s| s.name == "runner.seed")
                    .map(|s| s.secs())
                    .sum();
                t.note(
                    "runner.pool_efficiency",
                    seed_secs / (threads as f64 * wall),
                );
            }
            t.span("core.free", |_| drop(rep));
            let mut digest_text = String::new();
            for (s, d) in &digests {
                digest_text.push_str(&format!("{s}:{d:016x}\n"));
            }
            let note = OpNote {
                digest: fnv1a(digest_text.as_bytes()),
                detail: format!(
                    "{} seeds x {REPLICATE_DAYS} d on {threads} threads",
                    digests.len()
                ),
                problems,
            };
            Ok::<_, String>((digests, note))
        })?;
        match &self.reference {
            None => self.reference = Some(digests),
            Some(r) if *r != digests => note
                .problems
                .push("per-seed output_digest differs from the first repeat".into()),
            Some(_) => {}
        }
        Ok(note)
    }

    fn checkpoint_resume(&mut self, seed: u64, split: bool) -> Result<OpNote, String> {
        let cfg = StudyConfig::quick(CKPT_DAYS, seed);
        let every = CKPT_EVERY_DAYS * 86_400;
        let Run { t, io, .. } = self;
        t.span("study", |t| {
            // (digest, prev_digest, file) per checkpoint, write order.
            let mut chain: Vec<(u64, u64, String)> = Vec::new();
            let written = t.span("runner.ckpt_run", |t| {
                run_checkpointed(&cfg, every, None, &mut Obs::disabled(), |doc| {
                    let text = t.span("runner.ckpt_render", |_| render_checkpoint(doc));
                    t.note("runner.ckpt_mb", mb(text.len()));
                    let name = format!("ckpt-{:06}.json", doc.index);
                    io.write(t, &name, &text)?;
                    chain.push((doc.digest, doc.prev_digest, name));
                    Ok(())
                })
            })?;
            let report_a = pipeline::report(&written, t);
            io.write(t, "report.md", &report_a)?;
            let mut problems: Vec<String> =
                pipeline::roundtrip_problem(&written).into_iter().collect();
            if chain
                .iter()
                .skip(1)
                .zip(&chain)
                .any(|(next, prev)| next.1 != prev.0)
                || chain.first().is_some_and(|c| c.1 != 0)
            {
                problems.push("checkpoint digests do not chain".into());
            }
            let (last_digest, _, last_file) =
                chain.last().cloned().ok_or("no checkpoint written")?;
            let last_path = io.dir.join(&last_file);

            let (text, doc, resumed, report_b) = t.span("runner.resume", |t| {
                let text = t
                    .span("bench.read", |_| std::fs::read_to_string(&last_path))
                    .map_err(|e| format!("read {}: {e}", last_path.display()))?;
                let doc = t.span("runner.ckpt_parse", |_| parse_checkpoint(&text))?;
                let resumed = t.span("runner.resume_run", |_| {
                    resume_checkpointed(&doc, 0, None, &mut Obs::disabled(), |_| Ok(()))
                })?;
                let report_b = pipeline::report(&resumed, t);
                io.write(t, "report-resumed.md", &report_b)?;
                Ok::<_, String>((text, doc, resumed, report_b))
            })?;
            if doc.digest != last_digest {
                problems.push("parsed checkpoint is not the last one written".into());
            }
            if report_a != report_b {
                problems.push("resumed report differs from the straight-through report".into());
            }
            if split {
                problems.extend(t.span("split", |t| {
                    let mut p = ckpt_split(&cfg, &written, &doc, &text, t);
                    p.extend(pipeline::split_and_verify(&resumed, Some(&report_b), t));
                    p
                }));
            }
            t.span("core.free", |_| drop((written, resumed, doc, text)));
            let resume_s = t.last("runner.resume").map_or(0.0, |s| s.secs());
            let mut note = report_note(&report_b, problems);
            note.detail = format!(
                "{} checkpoints, resume {resume_s:.3} s  {}",
                chain.len(),
                note.detail
            );
            Ok(note)
        })
    }

    /// Engine set-ups on the workload's own configuration until enough
    /// have been measured in this run (see [`SETUP_MIN_SAMPLES`]).
    fn extra_setups(&mut self, ops: usize) {
        let sim = workload_sim(self.workload, self.op_seed(0));
        let armed = self.workload == "observed_study";
        for k in 0.. {
            let samples = self.setup_samples();
            let spent: f64 = samples.iter().sum();
            if samples.len() >= SETUP_MAX_SAMPLES
                || (samples.len() >= SETUP_MIN_SAMPLES && spent >= SETUP_BUDGET_S)
            {
                break;
            }
            self.t.begin_op(ops + k, sim.seed);
            self.t.span("setup", |t| {
                let mut obs = if armed {
                    armed_obs().0
                } else {
                    Obs::disabled()
                };
                let st = t.span("sim.setup", |_| EngineState::new(&sim, &mut obs));
                drop(st);
            });
        }
    }

    /// Every engine set-up time measured for this workload: those inside
    /// measured studies and the extra ones, not those of plain arms or
    /// traced splits.
    pub fn setup_samples(&self) -> Vec<f64> {
        let spans = self.t.spans();
        (0..spans.len())
            .filter(|&i| spans[i].name == "sim.setup")
            .filter(|&i| {
                (self.t.under(i, "study") || self.t.under(i, "setup")) && !self.t.under(i, "split")
            })
            .map(|i| spans[i].secs())
            .collect()
    }
}

/// Peak resident memory (VmHWM) since the process started or since the
/// last [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Resets VmHWM to the current resident size (Linux `clear_refs` value
/// 5), so the next read is one operation's peak rather than the largest
/// over every operation and pool thread arena so far. False where the
/// kernel does not allow it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The seed corpus of `workload`.
fn corpus(workload: &str) -> &'static [u64] {
    match workload {
        "replicate_short" => &SHORT_CORPUS,
        "checkpoint_resume" => &CKPT_CORPUS,
        "observed_study" => &OBSERVED_CORPUS,
        _ => &FULL_CORPUS,
    }
}

/// The engine configuration of `workload`'s studies.
fn workload_sim(workload: &str, seed: u64) -> SimConfig {
    match workload {
        "replicate_short" => StudyConfig::quick(REPLICATE_DAYS, seed).sim,
        "checkpoint_resume" => StudyConfig::quick(CKPT_DAYS, seed).sim,
        _ => full_config(seed).sim,
    }
}

/// The full 638-day window, observers off: what `titan-repro run` runs.
fn full_config(seed: u64) -> StudyConfig {
    let mut cfg = StudyConfig::default();
    cfg.sim.seed = seed;
    cfg
}

fn report_note(report: &str, mut problems: Vec<String>) -> OpNote {
    let [pass, weak, fail] = pipeline::report_verdicts(report);
    if pass + weak + fail == 0 {
        problems.push("report carries no registry verdicts".into());
    }
    OpNote {
        digest: fnv1a(report.as_bytes()),
        detail: format!("registry {pass} pass / {weak} weak / {fail} fail"),
        problems,
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// The plain arm of `observed_study`: the same seed with observers off,
/// rendered but not written. Returns the report.
fn plain_arm_run(cfg: &StudyConfig, t: &mut Tracer) -> String {
    let mut obs = Obs::disabled();
    let sim = pipeline::simulate(&cfg.sim, &mut obs, t);
    let study = pipeline::bundle(cfg, sim, &mut obs, t, false);
    let report = pipeline::report(&study, t);
    t.span("core.free", |_| drop(study));
    report
}

/// The observed arm: what `titan-repro run --metrics --trace --health
/// --prof` does, writing the report and all four documents. Returns the
/// report with its note.
fn observed_arm_run(
    cfg: &StudyConfig,
    io: &Io,
    t: &mut Tracer,
    split: bool,
) -> Result<(OpNote, String), String> {
    let seed = cfg.sim.seed;
    let window = cfg.sim.window;
    let days = window / 86_400;
    let (mut obs, clock) = armed_obs();
    let sim = pipeline::simulate(&cfg.sim, &mut obs, t);
    let study = pipeline::bundle(cfg, sim, &mut obs, t, split);
    obs.phase("cli:collect_metrics");
    let doc = t.span("runner.collect_metrics", |_| {
        titan_runner::collect_metrics(&study.sim, seed, window, &mut obs)
    });
    let report = pipeline::report(&study, t);
    io.write(t, "report.md", &report)?;
    let text = t.span("obs.metrics_doc", |_| doc.to_json());
    io.write(t, "metrics.json", &text)?;
    let text = t.span("obs.trace_render", |_| obs.stream.render_jsonl(seed, days));
    t.note("obs.trace_mb", mb(text.len()));
    io.write(t, "trace.jsonl", &text)?;
    let text = t.span("obs.health_render", |_| obs.health.render_jsonl(seed, days));
    io.write(t, "health.jsonl", &text)?;
    let text = t.span("obs.prof_doc", |_| {
        obs.prof_finish();
        let wall = clock.borrow_mut().finish();
        ProfDoc::build(obs.prof_ledger(), seed, days, doc, wall).to_json()
    });
    io.write(t, "prof.json", &text)?;
    drop(text);
    let mut problems: Vec<String> = pipeline::roundtrip_problem(&study).into_iter().collect();
    if split {
        problems.extend(t.span("split", |t| {
            pipeline::split_and_verify(&study, Some(&report), t)
        }));
    }
    t.span("core.free", |_| drop((study, obs)));
    Ok((report_note(&report, problems), report))
}

/// An observability sink armed as `run --metrics --trace --health
/// --prof` arms it, with this binary's allocator as the ledger's probe.
fn armed_obs() -> (Obs, Rc<RefCell<WallClock>>) {
    let mut obs = Obs::new(true);
    obs.enable_trace();
    obs.enable_health();
    obs.enable_prof();
    obs.set_prof_alloc_probe(alloc::totals);
    let clock = Rc::new(RefCell::new(WallClock::new()));
    let hook = Rc::clone(&clock);
    obs.set_prof_wall_hook(Box::new(move |name| hook.borrow_mut().mark(name)));
    (obs, clock)
}

/// Wall time per prof scope, for the quarantined `wall` section of the
/// `titan-prof/2` document (the ledger reports scope edges; the caller
/// timestamps them).
struct WallClock {
    started: Instant,
    current: Option<(&'static str, Instant)>,
    scopes: Vec<(&'static str, Duration, u64)>,
}

impl WallClock {
    fn new() -> Self {
        WallClock {
            started: Instant::now(),
            current: None,
            scopes: Vec::new(),
        }
    }

    fn mark(&mut self, name: &'static str) {
        let now = Instant::now();
        self.close(now);
        self.current = Some((name, now));
    }

    fn close(&mut self, now: Instant) {
        if let Some((prev, t0)) = self.current.take() {
            let d = now.duration_since(t0);
            match self.scopes.iter_mut().find(|(n, _, _)| *n == prev) {
                Some((_, total, switches)) => {
                    *total += d;
                    *switches += 1;
                }
                None => self.scopes.push((prev, d, 1)),
            }
        }
    }

    fn finish(&mut self) -> WallDoc {
        self.close(Instant::now());
        let total_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let mut scopes: Vec<WallScope> = self
            .scopes
            .iter()
            .map(|(name, d, switches)| WallScope {
                name: (*name).to_string(),
                wall_ms: d.as_secs_f64() * 1e3,
                switches: *switches,
            })
            .collect();
        scopes.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        let attributed_ms: f64 = scopes.iter().map(|s| s.wall_ms).sum();
        WallDoc {
            total_ms,
            attributed_ms,
            attributed_pct: if total_ms > 0.0 {
                attributed_ms / total_ms * 100.0
            } else {
                0.0
            },
            scopes,
        }
    }
}

/// `replicate_short`'s split: each seed's `run_seed` work done one call
/// at a time on this thread, checked against the pool's digests.
fn seeds_split(base: &StudyConfig, digests: &[(u64, u64)], t: &mut Tracer) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, &(seed, digest)) in digests.iter().enumerate() {
        let study = t.span("runner.seed", |t| {
            let mut cfg = base.clone();
            cfg.sim.seed = seed;
            let mut obs = Obs::disabled();
            let sim = pipeline::simulate(&cfg.sim, &mut obs, t);
            let study = pipeline::bundle(&cfg, sim, &mut obs, t, true);
            let figures = t.span("core.figures", |_| Figures::compute(&study.data));
            t.span("core.checks", |_| evaluate_all(&figures));
            let d = t.span("runner.digest", |_| output_digest(&study.sim));
            if d != digest {
                problems.push(format!(
                    "seed {seed}: sequential output_digest differs from the pool's"
                ));
            }
            if i == 0 {
                Some(study)
            } else {
                t.span("core.free", |_| drop(study));
                None
            }
        });
        if let Some(study) = study {
            // The digest layer is single-threaded: a second call on the
            // same output must allocate exactly as much.
            let first = t.last("runner.digest").map(|s| s.alloc_bytes);
            t.span("verify.digest", |_| output_digest(&study.sim));
            let again = t.last("verify.digest").map(|s| s.alloc_bytes);
            if first != again {
                problems.push(format!(
                    "runner.digest allocations do not repeat: {first:?} B then {again:?} B"
                ));
            }
            problems.extend(pipeline::split_and_verify(&study, None, t));
        }
    }
    problems
}

/// `checkpoint_resume`'s split: the same window run straight through
/// (sim layer, and the resumed output must equal it), and the last
/// checkpoint rendered again from its parsed form (same text, same
/// allocation volume).
fn ckpt_split(
    cfg: &StudyConfig,
    written: &titan_reliability::study::CompletedStudy,
    doc: &titan_runner::CheckpointDoc,
    text: &str,
    t: &mut Tracer,
) -> Vec<String> {
    let mut problems = Vec::new();
    let straight = pipeline::simulate(&cfg.sim, &mut Obs::disabled(), t);
    if straight != written.sim {
        problems.push("checkpointed run's output differs from a straight-through run".into());
    }
    let rendered = t.last("runner.ckpt_render").map(|s| s.alloc_bytes);
    let again = t.span("verify.ckpt_render", |_| render_checkpoint(doc));
    if again != text {
        problems.push("parsed checkpoint does not render back to the same text".into());
    }
    let again_bytes = t.last("verify.ckpt_render").map(|s| s.alloc_bytes);
    if rendered != again_bytes {
        problems.push(format!(
            "runner.ckpt allocations do not repeat: {rendered:?} B then {again_bytes:?} B"
        ));
    }
    let study = pipeline::bundle(cfg, straight, &mut Obs::disabled(), t, true);
    t.span("core.free", |_| drop(study));
    problems
}

/// The study window of `workload`, in days.
pub fn window_days(workload: &str) -> u64 {
    workload_sim(workload, 0).window / 86_400
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_seeds_start_at_the_seed_and_wrap() {
        assert_eq!(corpus_seed(&FULL_CORPUS, 0, 0), CORPUS_BASE + 5);
        assert_eq!(corpus_seed(&FULL_CORPUS, 0, 1), CORPUS_BASE + 10);
        assert_eq!(corpus_seed(&FULL_CORPUS, 8, 1), CORPUS_BASE + 5);
        assert_eq!(corpus_seed(&FULL_CORPUS, 9, 0), CORPUS_BASE + 5);
        // 2^64 - 1 = 6 (mod 9): no overflow at the top of the range.
        assert_eq!(
            corpus_seed(&FULL_CORPUS, u64::MAX, 1),
            CORPUS_BASE + FULL_CORPUS[7]
        );
    }

    #[test]
    fn corpora_are_sorted_distinct_and_hold_a_replication() {
        for c in [
            &FULL_CORPUS[..],
            &CKPT_CORPUS[..],
            &SHORT_CORPUS[..],
            &OBSERVED_CORPUS[..],
        ] {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(OBSERVED_CORPUS.iter().all(|s| FULL_CORPUS.contains(s)));
        assert!(SHORT_CORPUS.len() as u64 >= REPLICATE_SEEDS);
    }
}
