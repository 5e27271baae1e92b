//! Whole-sink snapshots for checkpoint/restore (`titan-ckpt/1`).
//!
//! A checkpoint must carry the observability state alongside the engine
//! state, or a resumed run's metrics document and trace file would
//! restart from zero and break the byte-identity contract. An
//! [`ObsSnapshot`] is a plain-data copy of everything inside an [`Obs`]
//! sink — counters, gauges, histograms, time-series buckets, the causal
//! flight recorder including its id watermark, the health sink and the
//! cost ledger —
//! addressed *by name*, never by handle index, so restore is immune to
//! registration-order drift.
//!
//! Restore preserves the disabled-sink-is-inert invariant: every
//! underlying `restore_*` call is a no-op when the corresponding sink is
//! off, so resuming a `--metrics`-off run from a checkpoint written by a
//! `--metrics`-on run silently drops the counters instead of reviving
//! them (byte-identity then holds only when the flags match — see
//! DETERMINISM.md).

use serde::{Deserialize, Serialize};

use crate::flight::TraceRecord;
use crate::health::HealthSnap;
use crate::prof::ProfSnap;
use crate::series::TsSeries;
use crate::Obs;

/// A plain-data copy of one [`Obs`] sink, suitable for embedding in a
/// checkpoint document. Capture with [`ObsSnapshot::capture`], apply
/// with [`ObsSnapshot::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// `(section, name, value)` for every counter, registration order.
    counters: Vec<(String, String, u64)>,
    /// `(section, name, value)` for every gauge, registration order.
    gauges: Vec<(String, String, u64)>,
    /// `(name, bounds, counts, count, sum)` for every histogram.
    hists: Vec<(String, Vec<u64>, Vec<u64>, u64, u64)>,
    /// Raw buckets of every series, in [`TsSeries::ALL`] order.
    timeseries: Vec<Vec<u64>>,
    /// Flight-recorder id watermark (next id to be minted).
    trace_next: u64,
    /// Flight-recorder records minted so far, id order.
    trace_records: Vec<TraceRecord>,
    /// Flight-recorder console `(ts, id)` pairs, emission order.
    trace_console: Vec<(u64, u64)>,
    /// Complete health-sink state (inert on restore when health
    /// collection is off on either side).
    health: HealthSnap,
    /// Deterministic cost-ledger scope table (inert on restore when the
    /// ledger is off on either side). Checkpoints are per-build
    /// artifacts, never long-lived archives, so the field is plain
    /// (the vendored serde_derive supports no `#[serde(default)]`).
    prof: ProfSnap,
}

impl ObsSnapshot {
    /// Copies the full state of `obs` into a serializable snapshot.
    /// Disabled sinks contribute their (empty / zero) state verbatim.
    pub fn capture(obs: &Obs) -> ObsSnapshot {
        let counters = obs
            .reg
            .counters()
            .map(|(s, n, v)| (s.to_string(), n.to_string(), v))
            .collect();
        let gauges = obs
            .reg
            .gauges()
            .map(|(s, n, v)| (s.to_string(), n.to_string(), v))
            .collect();
        let hists = obs
            .reg
            .histograms()
            .map(|(name, bounds, counts, count, sum)| {
                (name.to_string(), bounds.to_vec(), counts.to_vec(), count, sum)
            })
            .collect();
        let timeseries = TsSeries::ALL.iter().map(|&s| obs.ts.series(s).to_vec()).collect();
        ObsSnapshot {
            counters,
            gauges,
            hists,
            timeseries,
            trace_next: obs.stream.next_id(),
            trace_records: obs.stream.records().to_vec(),
            trace_console: obs.stream.console_pairs().to_vec(),
            health: obs.health.snap(),
            prof: obs.prof.snap(),
        }
    }

    /// Whether the snapshotted run had health collection on (resume
    /// validates this against the `--health` flag).
    pub fn health_enabled(&self) -> bool {
        self.health.enabled
    }

    /// Whether the snapshotted run had the cost ledger on (resume
    /// validates this against the `--prof` flag).
    pub fn prof_enabled(&self) -> bool {
        self.prof.enabled
    }

    /// Overwrites `obs` with the snapshot's state. Every write goes
    /// through a name-addressed `restore_*` method, so it is safe to
    /// apply to a sink whose registration order differs, and a no-op
    /// for each sub-sink that is disabled on the receiving side.
    pub fn restore(&self, obs: &mut Obs) {
        for (section, name, value) in &self.counters {
            obs.reg.restore_counter(section, name, *value);
        }
        for (section, name, value) in &self.gauges {
            obs.reg.restore_gauge(section, name, *value);
        }
        for (name, bounds, counts, count, sum) in &self.hists {
            obs.reg.restore_histogram(name, bounds, counts, *count, *sum);
        }
        for (&series, buckets) in TsSeries::ALL.iter().zip(self.timeseries.iter()) {
            obs.ts.restore(series, buckets);
        }
        obs.stream.restore(
            self.trace_next,
            self.trace_records.clone(),
            self.trace_console.clone(),
        );
        obs.health.restore(&self.health);
        obs.prof.restore(&self.prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostKind, MetricsDoc};

    fn populated() -> Obs {
        let mut obs = Obs::enabled();
        obs.enable_trace();
        obs.enable_health();
        obs.enable_prof();
        obs.phase("engine:workload");
        obs.setup_draws(42);
        obs.heap_push(3);
        obs.event_loop(48);
        let root = obs.fault_draft(5, || "dbe".to_string());
        obs.dequeue(100, CostKind::Dbe, 41, || 0);
        obs.sbe_accepted(root, 100, 77, 3, || "sbe".to_string());
        obs.dequeue(100_000_000, CostKind::Dbe, 40, || 0);
        obs.job_start(16, 1, false);
        obs.prof_finish();
        obs
    }

    fn observers() -> Obs {
        let mut obs = Obs::enabled();
        obs.enable_trace();
        obs.enable_health();
        obs.enable_prof();
        obs
    }

    #[test]
    fn roundtrip_restores_every_sink() {
        let src = populated();
        let snap = ObsSnapshot::capture(&src);
        let mut dst = observers();
        snap.restore(&mut dst);
        assert!(snap.health_enabled());
        assert!(snap.prof_enabled());
        assert_eq!(
            dst.prof_ledger().ledger_map()["engine:workload"].rng_draws,
            42
        );
        assert_eq!(dst.health.snap(), src.health.snap());
        assert_eq!(
            MetricsDoc::from_obs(&dst, 1, 1200),
            MetricsDoc::from_obs(&src, 1, 1200)
        );
        assert_eq!(dst.stream.next_id(), src.stream.next_id());
        assert_eq!(dst.stream.records(), src.stream.records());
        assert_eq!(dst.stream.console_pairs(), src.stream.console_pairs());
        // And the re-captured snapshot is identical — capture∘restore is
        // the identity on the observable state.
        assert_eq!(ObsSnapshot::capture(&dst), snap);
    }

    #[test]
    fn restore_into_disabled_sink_is_inert() {
        let snap = ObsSnapshot::capture(&populated());
        let mut dst = Obs::disabled();
        snap.restore(&mut dst);
        assert_eq!(
            MetricsDoc::from_obs(&dst, 1, 1200),
            MetricsDoc::from_obs(&Obs::disabled(), 1, 1200)
        );
        assert_eq!(dst.stream.next_id(), 1);
        assert!(dst.stream.records().is_empty());
        assert!(!dst.health.is_enabled());
        assert_eq!(dst.health.snap(), crate::HealthSink::new(false).snap());
    }

    #[test]
    fn snapshot_survives_json_roundtrip() {
        let snap = ObsSnapshot::capture(&populated());
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: ObsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
