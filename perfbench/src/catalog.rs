//! Names the benchmark prints: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root must list
//! exactly these (checked by the tests below), so a misspelt name fails
//! a test instead of silently dropping out of a comparison.

/// A workload and why it is in the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// An end-to-end metric with the share by which its median may worsen
/// before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// A per-layer metric (no bound: layers explain, end-to-end metrics gate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "full_study",
        why: "one seed over the full 638-day window with observers off, as titan-repro run: \
              engine, log render and parse, figures, checks and report",
    },
    Workload {
        name: "replicate_short",
        why: "8 seeds x 30 days through titan_runner::replicate on 2 threads: per-seed \
              fixed costs, output_digest and the pool",
    },
    Workload {
        name: "observed_study",
        why: "full_study with metrics, trace, health and prof armed and all four documents \
              written, paired with a plain run of the same seed",
    },
    Workload {
        name: "checkpoint_resume",
        why: "120-day window checkpointed every 40 days, then resumed from the last \
              checkpoint to the report: the only user of runner::ckpt",
    },
];

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "study_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "seeds_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
    EndToEnd {
        name: "alloc_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "written_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

macro_rules! layer {
    ($name:literal, $unit:literal) => {
        layer!($name, $unit, "lower")
    };
    ($name:literal, $unit:literal, $better:literal) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: $better,
        }
    };
}

pub const PER_LAYER: [PerLayer; 52] = [
    layer!("sim.setup_alloc_mb", "MB"),
    layer!("sim.loop_s", "s"),
    layer!("sim.loop_alloc_mb", "MB"),
    layer!("sim.finalize_s", "s"),
    layer!("sim.console_lines", "count"),
    layer!("sim.jobs", "count"),
    layer!("conlog.render_console_s", "s"),
    layer!("conlog.parse_console_s", "s"),
    layer!("conlog.render_jobs_s", "s"),
    layer!("conlog.parse_jobs_s", "s"),
    layer!("conlog.render_apruns_s", "s"),
    layer!("conlog.parse_apruns_s", "s"),
    layer!("conlog.console_mb", "MB"),
    layer!("conlog.joblog_mb", "MB"),
    layer!("conlog.alloc_mb", "MB"),
    layer!("conlog.parse_skipped", "count"),
    layer!("core.bundle_s", "s"),
    layer!("core.figures_s", "s"),
    layer!("core.checks_s", "s"),
    layer!("core.report_s", "s"),
    layer!("core.figures_alloc_mb", "MB"),
    layer!("core.report_alloc_mb", "MB"),
    layer!("analysis.offenders_s", "s"),
    layer!("analysis.correlation_s", "s"),
    layer!("analysis.user_proxy_s", "s"),
    layer!("analysis.cooccurrence_s", "s"),
    layer!("analysis.timeseries_s", "s"),
    layer!("analysis.spatial_s", "s"),
    layer!("analysis.filtering_s", "s"),
    layer!("analysis.interarrival_s", "s"),
    layer!("analysis.consistency_s", "s"),
    layer!("analysis.workload_charac_s", "s"),
    layer!("analysis.thermal_s", "s"),
    layer!("analysis.granularity_s", "s"),
    layer!("runner.seed_s_p50", "s"),
    layer!("runner.seed_s_p90", "s"),
    layer!("runner.digest_s", "s"),
    layer!("runner.digest_alloc_mb", "MB"),
    layer!("runner.pool_efficiency", "ratio", "higher"),
    layer!("runner.collect_metrics_s", "s"),
    layer!("runner.ckpt_render_s", "s"),
    layer!("runner.ckpt_mb", "MB"),
    layer!("runner.ckpt_parse_s", "s"),
    layer!("runner.resume_run_s", "s"),
    layer!("obs.trace_render_s", "s"),
    layer!("obs.trace_mb", "MB"),
    layer!("obs.health_render_s", "s"),
    layer!("obs.metrics_doc_s", "s"),
    layer!("obs.prof_doc_s", "s"),
    layer!("obs.inloop_s", "s"),
    layer!("trace.coverage", "ratio", "higher"),
    layer!("trace.overhead_s", "s"),
];

/// A name as the result format allows: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 in all.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::BTreeSet;

    #[test]
    fn name_rules() {
        assert!(valid_name("study_s") && valid_name("sim.loop_s") && valid_name("9x-y"));
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b"));
        assert!(!valid_name("a/b") && !valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MB"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn catalog_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(valid_name(n), "invalid name {n}");
            assert!(seen.insert(n), "duplicate name {n}");
        }
        for (unit, better) in END_TO_END
            .iter()
            .map(|m| (m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.unit, m.better)))
        {
            assert!(valid_unit(unit), "invalid unit {unit}");
            assert!(better == "lower" || better == "higher");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    fn field<'a>(v: &'a Value, k: &str) -> &'a Value {
        v.get_field(k)
    }

    fn str_of(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Array(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn num(v: &Value) -> f64 {
        match v {
            Value::Float(f) => *f,
            Value::UInt(n) => *n as f64,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn keys(v: &Value) -> Vec<&str> {
        v.as_object("entry")
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");

        let workloads = list(field(&doc, "workloads"));
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(j), ["name", "why"]);
            assert_eq!(str_of(field(j, "name")), w.name);
            assert_eq!(str_of(field(j, "why")), w.why);
        }

        let e2e = list(field(&doc, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(keys(j), ["name", "unit", "better", "bound"]);
            assert_eq!(str_of(field(j, "name")), m.name);
            assert_eq!(str_of(field(j, "unit")), m.unit);
            assert_eq!(str_of(field(j, "better")), m.better);
            assert_eq!(num(field(j, "bound")), m.bound);
        }

        let layers = list(field(&doc, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(keys(j), ["name", "unit", "better"]);
            assert_eq!(str_of(field(j, "name")), m.name);
            assert_eq!(str_of(field(j, "unit")), m.unit);
            assert_eq!(str_of(field(j, "better")), m.better);
        }
    }
}
