//! The study pipeline as the benchmark drives it: one call into each
//! layer's public functions per span, plus the traced-only split calls
//! that break `Study::complete_from_sim` and `Figures::compute` into
//! their pieces, and the checks that the pieces rebuild the same
//! results.

use titan_analysis::consistency::dbe_accounting;
use titan_analysis::cooccurrence::cooccurrence_heatmap;
use titan_analysis::correlation::job_sbe_correlations;
use titan_analysis::filtering::dedup_by_job;
use titan_analysis::granularity::aprun_granularity;
use titan_analysis::interarrival::retirement_delays;
use titan_analysis::offenders::sbe_offender_analysis;
use titan_analysis::spatial::{cage_tally, incident_stripe, spatial_grid, spatial_with_filtering};
use titan_analysis::thermal::thermal_survey;
use titan_analysis::timeseries::{burstiness, monthly_counts, mtbf_hours};
use titan_analysis::user_proxy::user_level_correlation;
use titan_analysis::workload_charac::workload_characterization;
use titan_conlog::format::parse_stream;
use titan_conlog::time::SimTime;
use titan_conlog::{Aprun, JobRecord};
use titan_faults::calibration;
use titan_gpu::{GpuErrorKind, MemoryStructure};
use titan_obs::Obs;
use titan_reliability::study::CompletedStudy;
use titan_reliability::{evaluate_all, full_report, Figures, Study, StudyConfig, StudyData};
use titan_sim::{EngineState, SimConfig, SimOutput};

use crate::tracer::Tracer;

/// Engine set-up, event loop and finalize, one span each.
pub fn simulate(cfg: &SimConfig, obs: &mut Obs, t: &mut Tracer) -> SimOutput {
    let mut st = t.span("sim.setup", |_| EngineState::new(cfg, obs));
    t.span("sim.loop", |_| st.run_until(SimTime::MAX, obs));
    let sim = t.span("sim.finalize", |_| st.finalize(obs));
    t.note("sim.console_lines", sim.console.len() as f64);
    t.note("sim.jobs", sim.jobs.len() as f64);
    sim
}

/// Render → parse → bundle. Untraced, this is the one program call
/// `Study::complete_from_sim`; split, it makes the same calls that
/// function makes, one span each, and assembles the same bundle.
pub fn bundle(
    config: &StudyConfig,
    sim: SimOutput,
    obs: &mut Obs,
    t: &mut Tracer,
    split: bool,
) -> CompletedStudy {
    if !split {
        let study = Study::new(config.clone());
        return t.span("core.bundle", |_| study.complete_from_sim(sim, obs));
    }
    assert!(
        !config.skip_text_roundtrip,
        "the split path measures the text round trip"
    );
    // The phase marker `complete_from_sim` sets; outside the span, since
    // an armed sink allocates for it and that is not bundle work.
    obs.phase("study:render_parse_logs");
    t.span("core.bundle", |t| {
        let console_text = t.span("conlog.render_console", |_| sim.render_console_log());
        let (console, console_parse) =
            t.span("conlog.parse_console", |_| parse_stream(&console_text));
        let job_text = t.span("conlog.render_jobs", |_| sim.render_job_log());
        let (jobs, job_parse_errors) = t.span("conlog.parse_jobs", |_| {
            let mut jobs = Vec::new();
            let mut errors = 0u64;
            for line in job_text.lines() {
                match JobRecord::parse(line) {
                    Ok(j) => jobs.push(j),
                    Err(_) => errors += 1,
                }
            }
            (jobs, errors)
        });
        let aprun_text = t.span("conlog.render_apruns", |_| sim.render_aprun_log());
        let apruns: Vec<Aprun> = t.span("conlog.parse_apruns", |_| {
            aprun_text.lines().filter_map(Aprun::parse).collect()
        });
        t.note("conlog.console_mb", mb(console_text.len()));
        t.note("conlog.joblog_mb", mb(job_text.len()));
        t.note("conlog.parse_skipped", console_parse.skipped as f64);
        let data = StudyData {
            console,
            jobs,
            job_sbe: sim.job_sbe.clone(),
            apruns,
            snapshots: sim.final_snapshots.clone(),
            console_parse,
            job_parse_errors,
        };
        CompletedStudy {
            config: config.clone(),
            sim,
            data,
        }
    })
}

/// Why a study's log round trip was lossy, if it was.
pub fn roundtrip_problem(study: &CompletedStudy) -> Option<String> {
    let d = &study.data;
    let s = &study.sim;
    let lossless = d.console_parse.skipped == 0
        && d.job_parse_errors == 0
        && d.console.len() == s.console.len()
        && d.jobs.len() == s.jobs.len()
        && d.apruns.len() == s.apruns.len();
    (!lossless).then(|| {
        format!(
            "lossy round trip: {} console lines skipped, {} job-parse errors, \
             console {}/{}, jobs {}/{}, apruns {}/{}",
            d.console_parse.skipped,
            d.job_parse_errors,
            d.console.len(),
            s.console.len(),
            d.jobs.len(),
            s.jobs.len(),
            d.apruns.len(),
            s.apruns.len()
        )
    })
}

/// Tallies of the registry verdict lines at the end of a report:
/// `[pass, weak, fail]`.
pub fn report_verdicts(report: &str) -> [u32; 3] {
    let mut n = [0u32; 3];
    for line in report.lines() {
        for (i, tag) in ["[PASS] ", "[WEAK] ", "[FAIL] "].iter().enumerate() {
            if line.starts_with(tag) {
                n[i] += 1;
            }
        }
    }
    n
}

/// The traced-only checks on a finished study: the real
/// `complete_from_sim` rebuilds the split bundle, allocating exactly as
/// much; the per-family analysis calls rebuild `Figures::compute`'s
/// result; and the report (when there is one) carries exactly
/// `evaluate_all`'s verdict lines. Returns the problems found.
pub fn split_and_verify(
    study: &CompletedStudy,
    report: Option<&str>,
    t: &mut Tracer,
) -> Vec<String> {
    let mut problems = Vec::new();
    let split_bytes = t.last("core.bundle").map(|s| s.alloc_bytes);
    let sim = study.sim.clone();
    let runner = Study::new(study.config.clone());
    let mut obs = Obs::disabled();
    let real = t.span("verify.bundle", |_| runner.complete_from_sim(sim, &mut obs));
    if !same_bundle(&real.data, &study.data) {
        problems.push("split render/parse pieces differ from Study::complete_from_sim".into());
    }
    let real_bytes = t.last("verify.bundle").map(|s| s.alloc_bytes);
    if split_bytes.is_some() && split_bytes != real_bytes {
        problems.push(format!(
            "conlog allocations do not repeat: split {split_bytes:?} B, complete_from_sim \
             {real_bytes:?} B"
        ));
    }
    drop(real);
    let figures = t.span("core.figures", |_| Figures::compute(&study.data));
    let checks = t.span("core.checks", |_| evaluate_all(&figures));
    let pieces = t.span("split.analysis", |t| figures_split(&study.data, t));
    if json(&pieces) != json(&figures) {
        problems.push("per-family analysis calls differ from Figures::compute".into());
    }
    if let Some(report) = report {
        let mut block = String::from("## Paper-shape checks\n\n");
        for e in &checks {
            block.push_str(&format!("[{}] {:<6} {}\n", e.verdict, e.id, e.measured));
        }
        if !report.ends_with(&block) {
            problems.push("report verdict lines differ from evaluate_all".into());
        }
    }
    problems
}

fn same_bundle(a: &StudyData, b: &StudyData) -> bool {
    a.console == b.console
        && a.jobs == b.jobs
        && a.job_sbe == b.job_sbe
        && a.apruns == b.apruns
        && a.snapshots == b.snapshots
        && a.console_parse == b.console_parse
        && a.job_parse_errors == b.job_parse_errors
}

/// Serialized form for comparing figure sets: NaN statistics compare
/// equal as text where `PartialEq` would call them different.
fn json(f: &Figures) -> String {
    serde_json::to_string(f).unwrap_or_default()
}

/// `Figures::compute` family by family, single-threaded, one span per
/// analysis module.
fn figures_split(data: &StudyData, t: &mut Tracer) -> Figures {
    use GpuErrorKind::*;
    let console = &data.console;

    let offenders = t.span("analysis.offenders", |_| {
        sbe_offender_analysis(&data.snapshots)
    });
    let correlation = t.span("analysis.correlation", |_| {
        job_sbe_correlations(&data.jobs, &data.job_sbe, &data.snapshots)
    });
    let user = t.span("analysis.user_proxy", |_| {
        user_level_correlation(&data.jobs, &data.job_sbe, &data.snapshots)
    });
    let heatmap = t.span("analysis.cooccurrence", |_| cooccurrence_heatmap(console));

    let mut sbe_by_structure: Vec<(MemoryStructure, u64)> = MemoryStructure::ECC_COUNTED
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let total = data
                .job_sbe
                .iter()
                .map(|d| d.per_structure_sbe.get(i).copied().unwrap_or(0))
                .sum();
            (m, total)
        })
        .collect();
    sbe_by_structure.sort_by_key(|&(_, c)| std::cmp::Reverse(c));

    let fig09_kinds = [
        GpuMemoryPageFault,
        PushBufferStream,
        GpuStoppedProcessing,
        ContextSwitchFault,
        DriverFirmware,
        VideoProcessorSw,
    ];
    // Incident granularity for the job-wide kinds: the paper's 5 s
    // filter first (filtering), then the monthly series (timeseries).
    let deduped: Vec<Option<Vec<titan_conlog::ConsoleEvent>>> =
        t.span("analysis.filtering", |_| {
            fig09_kinds
                .iter()
                .map(|&k| {
                    k.user_application_possible()
                        .then(|| dedup_by_job(console, k, 5).parents)
                })
                .collect()
        });

    let series = t.span("analysis.timeseries", |_| {
        let fig09: Vec<_> = fig09_kinds
            .iter()
            .zip(&deduped)
            .map(|(&k, d)| match d {
                Some(parents) => monthly_counts(parents, k),
                None => monthly_counts(console, k),
            })
            .collect();
        (
            monthly_counts(console, DoubleBitError),
            mtbf_hours(console, DoubleBitError),
            burstiness(console, DoubleBitError),
            monthly_counts(console, OffTheBus),
            monthly_counts(console, EccPageRetirement),
            fig09,
            monthly_counts(console, GraphicsEngineException),
            burstiness(console, GraphicsEngineException),
            burstiness(console, GpuStoppedProcessing),
            [MicrocontrollerHaltOld, MicrocontrollerHaltNew]
                .iter()
                .map(|&k| monthly_counts(console, k))
                .collect::<Vec<_>>(),
        )
    });
    let (dbe_m, mtbf, dbe_burst, otb_m, retire_m, fig09, xid13_m, xid13_b, xid43_b, uchalt) =
        series;

    let spatial = t.span("analysis.spatial", |_| {
        (
            spatial_grid(console, DoubleBitError, false),
            cage_tally(console, DoubleBitError),
            spatial_grid(console, OffTheBus, false),
            cage_tally(console, OffTheBus),
            spatial_grid(console, EccPageRetirement, false),
            cage_tally(console, EccPageRetirement),
            spatial_with_filtering(console, GraphicsEngineException),
            incident_stripe(console, GraphicsEngineException, 5),
        )
    });
    let (dbe_grid, dbe_cage, otb_grid, otb_cage, retire_grid, retire_cage, xid13_spatial, stripe) =
        spatial;

    let delays = t.span("analysis.interarrival", |_| {
        retirement_delays(console, calibration::retirement_xid_introduced())
    });
    let accounting = t.span("analysis.consistency", |_| {
        dbe_accounting(console, &data.snapshots)
    });
    let workload = t.span("analysis.workload_charac", |_| {
        workload_characterization(&data.jobs)
    });
    let thermal = t.span("analysis.thermal", |_| thermal_survey(&data.snapshots));
    let granularity = t.span("analysis.granularity", |_| {
        aprun_granularity(&data.apruns, &data.job_sbe)
    });

    Figures {
        fig02_dbe_monthly: dbe_m,
        fig02_mtbf_hours: mtbf,
        fig02_burstiness: dbe_burst,
        fig03_dbe_grid: dbe_grid,
        fig03_dbe_cage: dbe_cage,
        fig03_accounting: accounting,
        fig04_otb_monthly: otb_m,
        fig05_otb_grid: otb_grid,
        fig05_otb_cage: otb_cage,
        fig06_retire_monthly: retire_m,
        fig07_retire_grid: retire_grid,
        fig07_retire_cage: retire_cage,
        fig08_delays: delays,
        fig09_xid_monthly: fig09,
        fig10_xid13_monthly: xid13_m,
        fig10_xid13_burstiness: xid13_b,
        fig10_xid43_burstiness: xid43_b,
        fig11_uchalt_monthly: uchalt,
        fig12_xid13_spatial: xid13_spatial,
        fig12_incident_stripe: stripe,
        fig13_heatmap: heatmap,
        fig14_15_offenders: offenders,
        fig16_19_correlation: correlation,
        fig20_user: user,
        fig21_workload: workload,
        sbe_by_structure,
        thermal,
        granularity,
    }
}

/// The rendered report: figures, the registry and the text, in one
/// program call.
pub fn report(study: &CompletedStudy, t: &mut Tracer) -> String {
    t.span("core.report", |_| full_report(study))
}

/// Bytes as megabytes (10^6).
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// 64-bit FNV-1a, for printing output digests two commits can compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
