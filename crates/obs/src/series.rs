//! Fixed sim-time bucket counters: the `timeseries` section of
//! `titan-obs/3`.
//!
//! The paper's trend figures (weekly error rates, the Jan-14 driver
//! cutover) need time-resolved counts, not run-end totals. A
//! [`TimeBuckets`] sink counts a curated subset of engine events into
//! [`GRID_SECS`]-wide sim-time buckets, so one run's metrics document
//! shows the whole trend. Bucketing is pure integer arithmetic on sim
//! timestamps — nothing here can perturb a run or break byte-identity.

use titan_conlog::time::SimTime;

use crate::{CostKind, GRID_SECS};

/// The curated counter subset carried as time series. Each variant
/// mirrors the engine counter of the same name; a runner test pins that
/// the buckets of each series sum exactly to the run-end counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TsSeries {
    /// Console lines emitted (`engine.console_lines`).
    ConsoleLines,
    /// DBE events executed (`engine.ev_dbe`).
    EvDbe,
    /// Off-the-bus events executed (`engine.ev_otb`).
    EvOtb,
    /// SBE draft events executed (`engine.ev_sbe`).
    EvSbe,
    /// SBE drafts accepted after thinning (`engine.sbe_accepted`).
    SbeAccepted,
    /// Hot-spare swaps fired (`engine.swaps_fired`).
    SwapsFired,
}

impl TsSeries {
    /// All series, in stable export order.
    pub const ALL: [TsSeries; 6] = [
        TsSeries::ConsoleLines,
        TsSeries::EvDbe,
        TsSeries::EvOtb,
        TsSeries::EvSbe,
        TsSeries::SbeAccepted,
        TsSeries::SwapsFired,
    ];

    /// Stable name used as the key in the metrics document (matches the
    /// engine counter it shadows).
    pub fn name(self) -> &'static str {
        match self {
            TsSeries::ConsoleLines => "console_lines",
            TsSeries::EvDbe => "ev_dbe",
            TsSeries::EvOtb => "ev_otb",
            TsSeries::EvSbe => "ev_sbe",
            TsSeries::SbeAccepted => "sbe_accepted",
            TsSeries::SwapsFired => "swaps_fired",
        }
    }

    /// The series that shadows dequeues of `kind`, if any.
    #[inline]
    pub fn of_kind(kind: CostKind) -> Option<TsSeries> {
        match kind {
            CostKind::Dbe => Some(TsSeries::EvDbe),
            CostKind::Otb => Some(TsSeries::EvOtb),
            CostKind::Sbe => Some(TsSeries::EvSbe),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            TsSeries::ConsoleLines => 0,
            TsSeries::EvDbe => 1,
            TsSeries::EvOtb => 2,
            TsSeries::EvSbe => 3,
            TsSeries::SbeAccepted => 4,
            TsSeries::SwapsFired => 5,
        }
    }
}

/// Bucketed counters for every [`TsSeries`]. Buckets grow on demand, so
/// the sink needs no window length up front; the exporter pads every
/// series to the window's bucket count.
#[derive(Debug)]
pub struct TimeBuckets {
    enabled: bool,
    series: [Vec<u64>; 6],
}

impl TimeBuckets {
    /// A sink on the shared [`GRID_SECS`] grid.
    pub fn new(enabled: bool) -> Self {
        TimeBuckets {
            enabled,
            series: Default::default(),
        }
    }

    /// Counts one event of `series` at sim time `t` (no-op disabled).
    #[inline]
    pub fn inc(&mut self, series: TsSeries, t: SimTime) {
        if !self.enabled {
            return;
        }
        // lint: allow(N1, bucket index: window/GRID_SECS is far below 2^32 for any real window)
        let bucket = (t / GRID_SECS) as usize;
        let v = &mut self.series[series.index()];
        if v.len() <= bucket {
            v.resize(bucket + 1, 0);
        }
        v[bucket] += 1;
    }

    /// The raw (unpadded) buckets of one series.
    pub fn series(&self, series: TsSeries) -> &[u64] {
        &self.series[series.index()]
    }

    /// One series padded with trailing zeros to `n_buckets` (the export
    /// shape: every series the same length, covering the whole window).
    pub fn padded(&self, series: TsSeries, n_buckets: usize) -> Vec<u64> {
        let mut v = self.series(series).to_vec();
        if v.len() < n_buckets {
            v.resize(n_buckets, 0);
        }
        v
    }

    /// Overwrites one series wholesale (checkpoint restore). No-op when
    /// disabled, preserving the disabled-sink-is-inert invariant.
    pub fn restore(&mut self, series: TsSeries, buckets: &[u64]) {
        if !self.enabled {
            return;
        }
        if let Some(v) = self.series.get_mut(series.index()) {
            *v = buckets.to_vec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: u64 = GRID_SECS;

    #[test]
    fn buckets_split_on_the_grid() {
        let mut ts = TimeBuckets::new(true);
        ts.inc(TsSeries::EvDbe, 0);
        ts.inc(TsSeries::EvDbe, W - 1);
        ts.inc(TsSeries::EvDbe, W);
        ts.inc(TsSeries::EvDbe, 3 * W + 50);
        assert_eq!(ts.series(TsSeries::EvDbe), &[2, 1, 0, 1]);
        assert!(ts.series(TsSeries::EvOtb).is_empty());
    }

    #[test]
    fn padding_extends_with_zeros_only() {
        let mut ts = TimeBuckets::new(true);
        ts.inc(TsSeries::SwapsFired, W + 50);
        assert_eq!(ts.padded(TsSeries::SwapsFired, 4), vec![0, 1, 0, 0]);
        // Never truncates.
        assert_eq!(ts.padded(TsSeries::SwapsFired, 1), vec![0, 1]);
    }

    #[test]
    fn disabled_sink_is_inert() {
        let mut ts = TimeBuckets::new(false);
        ts.inc(TsSeries::ConsoleLines, 5);
        assert!(ts.series(TsSeries::ConsoleLines).is_empty());
        assert_eq!(ts.padded(TsSeries::ConsoleLines, 2), vec![0, 0]);
    }
}
