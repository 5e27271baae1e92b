//! The stable JSON metrics document.
//!
//! One [`MetricsDoc`] is the on-disk contract for `--metrics FILE`:
//! section maps are `BTreeMap`s (sorted, so serialization order never
//! depends on registration order), every value is an exact `u64`, and
//! the schema string is bumped on any breaking change. Because nothing
//! in here is wall-clock-derived, the document is byte-identical for a
//! fixed seed at any thread width — `titan-runner` relies on that to
//! aggregate per-seed metric bands.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::series::TsSeries;
use crate::{Obs, GRID_SECS};

/// Current schema identifier written into every document. `/2` added
/// the `timeseries` section on top of `/1`; `/3` dropped the `spans`
/// section (its per-kind totals equal the `ev_job_start`, `ev_dbe +
/// ev_otb`, `ev_retire_record` and `swaps_fired` counters, and its
/// retained tail duplicated the last job-log records).
pub const SCHEMA: &str = "titan-obs/3";

/// Snapshot of one fixed-bucket histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Ascending inclusive upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; one trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// The `timeseries` section: fixed sim-time buckets of the curated
/// counter subset ([`TsSeries::ALL`]). Every series is padded to the
/// same length (`buckets`), covering the whole window, so the buckets
/// of each series sum exactly to the run-end counter of the same name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSeriesDoc {
    /// Bucket width in sim seconds ([`GRID_SECS`]).
    pub bucket_secs: u64,
    /// Bucket count (`ceil(window / bucket_secs)`).
    pub buckets: u64,
    /// Per-series bucket counts, keyed by the shadowed counter name.
    pub series: BTreeMap<String, Vec<u64>>,
}

/// The full metrics document for one simulated window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsDoc {
    /// Schema identifier ([`SCHEMA`]).
    pub schema: String,
    /// Seed the window ran with.
    pub seed: u64,
    /// Window length in days.
    pub window_days: u64,
    /// Engine hot-loop counters and gauges.
    pub engine: BTreeMap<String, u64>,
    /// Fault-process counters.
    pub faults: BTreeMap<String, u64>,
    /// SEC pipeline counters (filled at collect time by the runner).
    pub sec: BTreeMap<String, u64>,
    /// nvidia-smi pipeline counters.
    pub nvsmi: BTreeMap<String, u64>,
    /// Fixed-bucket histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Time-bucketed counter subset (new in `/2`).
    pub timeseries: TimeSeriesDoc,
}

impl MetricsDoc {
    /// Snapshots an [`Obs`] sink into a document. Counters and gauges
    /// are routed by their section name; a metric registered under an
    /// unknown section lands in `engine` under `section.name` so it is
    /// never silently lost.
    pub fn from_obs(obs: &Obs, seed: u64, window_days: u64) -> Self {
        let window_secs = window_days * 86_400;
        let n_buckets = window_secs.div_ceil(GRID_SECS).max(1);
        let mut series = BTreeMap::new();
        for s in TsSeries::ALL {
            // lint: allow(N1, bucket count: window/bucket_secs is far below 2^32)
            series.insert(s.name().to_string(), obs.ts.padded(s, n_buckets as usize));
        }
        let mut doc = MetricsDoc {
            schema: SCHEMA.to_string(),
            seed,
            window_days,
            engine: BTreeMap::new(),
            faults: BTreeMap::new(),
            sec: BTreeMap::new(),
            nvsmi: BTreeMap::new(),
            histograms: BTreeMap::new(),
            timeseries: TimeSeriesDoc {
                bucket_secs: GRID_SECS,
                buckets: n_buckets,
                series,
            },
        };
        let entries = obs
            .reg
            .counters()
            .chain(obs.reg.gauges())
            .map(|(s, n, v)| (s.to_string(), n.to_string(), v))
            .collect::<Vec<_>>();
        for (section, name, value) in entries {
            match section.as_str() {
                "engine" => doc.engine.insert(name, value),
                "faults" => doc.faults.insert(name, value),
                "sec" => doc.sec.insert(name, value),
                "nvsmi" => doc.nvsmi.insert(name, value),
                other => doc.engine.insert(format!("{other}.{name}"), value),
            };
        }
        for (name, bounds, counts, count, sum) in obs.reg.histograms() {
            doc.histograms.insert(
                name.to_string(),
                HistogramSnapshot {
                    bounds: bounds.to_vec(),
                    counts: counts.to_vec(),
                    count,
                    sum,
                },
            );
        }
        doc
    }

    /// Renders the document as pretty JSON (trailing newline included,
    /// matching the repo's other artifacts). Serialization of this
    /// all-owned tree cannot fail; the fallback keeps telemetry from
    /// ever panicking a run.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string());
        s.push('\n');
        s
    }

    /// Flattens every scalar into `section.name -> f64` (plus
    /// histogram `hist.<name>.count/sum`), the shape
    /// `titan-runner` aggregates into per-seed metric bands.
    pub fn flatten(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (section, map) in [
            ("engine", &self.engine),
            ("faults", &self.faults),
            ("sec", &self.sec),
            ("nvsmi", &self.nvsmi),
        ] {
            for (name, &v) in map {
                out.insert(format!("{section}.{name}"), v as f64);
            }
        }
        for (name, h) in &self.histograms {
            out.insert(format!("hist.{name}.count"), h.count as f64);
            out.insert(format!("hist.{name}.sum"), h.sum as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostKind;

    fn sample_doc() -> MetricsDoc {
        let mut obs = Obs::enabled();
        obs.dequeue(0, CostKind::Dbe, 42, || 0);
        obs.draft_stage(0, |tally| tally.add(crate::FaultTally::DbeDrafts, 3));
        obs.cascade(2);
        obs.add_counter("sec", "rule_hits.alert_each", 7);
        MetricsDoc::from_obs(&obs, 42, 60)
    }

    #[test]
    fn sections_route_by_name() {
        let doc = sample_doc();
        assert_eq!(doc.schema, SCHEMA);
        assert_eq!(doc.engine.get("ev_dbe"), Some(&1));
        assert_eq!(doc.engine.get("heap_high_water"), Some(&42));
        assert_eq!(doc.faults.get("dbe_drafts"), Some(&3));
        assert_eq!(doc.sec.get("rule_hits.alert_each"), Some(&7));
        let h = doc.histograms.get("cascade_fanout").expect("fanout hist");
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 2);
    }

    #[test]
    fn json_round_trips_and_is_stable() {
        let doc = sample_doc();
        let json = doc.to_json();
        assert!(json.ends_with('\n'));
        assert!(!json.contains("\"spans\""), "{json}");
        let back: MetricsDoc = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, doc);
        // Rendering twice is byte-identical.
        assert_eq!(json, doc.to_json());
    }

    #[test]
    fn timeseries_pads_every_series_to_the_window() {
        let mut obs = Obs::enabled();
        obs.dequeue(0, CostKind::Dbe, 1, || 0);
        obs.dequeue(8 * 86_400, CostKind::Dbe, 1, || 0); // second weekly bucket
        let doc = MetricsDoc::from_obs(&obs, 1, 60);
        assert_eq!(doc.schema, "titan-obs/3");
        let ts = &doc.timeseries;
        assert_eq!(ts.bucket_secs, 7 * 86_400);
        // 60 days / 7-day buckets = 9 buckets (ceil).
        assert_eq!(ts.buckets, 9);
        for s in TsSeries::ALL {
            assert_eq!(ts.series[s.name()].len(), 9, "{}", s.name());
        }
        assert_eq!(ts.series["ev_dbe"], vec![1, 1, 0, 0, 0, 0, 0, 0, 0]);
        // Buckets sum to what was counted.
        assert_eq!(ts.series["ev_dbe"].iter().sum::<u64>(), 2);
    }

    #[test]
    fn flatten_prefixes_sections() {
        let doc = sample_doc();
        let flat = doc.flatten();
        assert_eq!(flat.get("engine.ev_dbe"), Some(&1.0));
        assert_eq!(flat.get("faults.dbe_drafts"), Some(&3.0));
        assert_eq!(flat.get("sec.rule_hits.alert_each"), Some(&7.0));
        assert_eq!(flat.get("hist.cascade_fanout.count"), Some(&1.0));
    }
}
