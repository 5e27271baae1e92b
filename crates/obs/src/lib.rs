//! # titan-obs
//!
//! The fleet simulator's own observability layer — the paper's whole
//! methodology is telemetry (SEC-filtered console logs plus nvidia-smi
//! snapshots), and this crate gives the *simulator* the same courtesy.
//! The engine makes one call into [`Obs`] per observable action (a
//! dequeue, a job start, a console line, a retirement, ...), and `Obs`
//! routes it to every projection that is switched on: counters, gauges
//! and histograms, the 7-day timeseries, the causal flight recorder,
//! the online health analytics and the deterministic cost ledger.
//!
//! ## Time-domain rule (the determinism contract)
//!
//! Everything recorded here lives in the **simulation time domain**
//! ([`titan_conlog::time::SimTime`]) or is a pure count of simulation
//! work. No wall-clock value may ever enter a projection: recorded
//! telemetry must be byte-identical for a fixed seed across thread
//! widths, hosts, and reruns. Wall-clock profiling lives strictly in
//! `titan-runner` and the CLI — titan-lint rule D5 enforces this
//! mechanically for every engine crate, this one included. The only
//! wall-clock bridge is the [`Obs::set_prof_wall_hook`] callback: the
//! cost ledger reports *scope changes* (pure `&'static str` names) and a
//! non-engine caller may timestamp them on its side.
//!
//! ## Cost model
//!
//! With every projection off, each action call is one branch on the
//! sinks' enabled flags; trace payloads are closures that only run when
//! the flight recorder is on. The *enabled* cost is measured end to end
//! by the `observed_study` benchmark workload against a plain run of the
//! same seed (see `OBSERVABILITY.md`).
//!
//! See `OBSERVABILITY.md` at the workspace root for the metric catalog
//! and how to add a metric without breaking determinism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod flight;
pub mod health;
pub mod metrics;
pub mod prof;
pub mod series;
pub mod snapshot;

pub use export::{HistogramSnapshot, MetricsDoc, TimeSeriesDoc, SCHEMA};
pub use flight::{
    chrome_trace, parse_trace, summarize_trace, verify_trace, TraceFilter, TraceHeader,
    TraceKind, TraceRecord, TraceStream, VerifyReport, TRACE_SCHEMA,
};
pub use health::{
    olcf_default_rules, parse_health, rules_to_json, summarize_health, verify_health_alerts,
    watch_health, HealthAlert, HealthDoc, HealthEvent, HealthHeader, HealthInterval, HealthRec,
    HealthRule, HealthSink, HealthSnap, HealthSummary, HEALTH_SCHEMA,
};
pub use metrics::metric_key;
pub use prof::{
    AllocStats, CostKind, KindCost, ProfDoc, ProfLedger, ProfSnap, WallDoc, WallScope,
    PROF_SCHEMA,
};
pub use snapshot::ObsSnapshot;

use titan_conlog::time::SimTime;
use titan_conlog::ConsoleEvent;

use metrics::{Counter, Gauge, HistId, Registry};
use series::{TimeBuckets, TsSeries};

/// The one sim-time grid every time-resolved projection shares: a week,
/// matching the paper's weekly-rate figures. The `timeseries` buckets
/// of `titan-obs/3` and the `titan-health/1` intervals both step by it,
/// so bucket *k* of one is interval *k* of the other.
pub const GRID_SECS: u64 = 7 * 86_400;

/// Pre-registered counter handles, so an action records without a
/// name lookup.
#[derive(Debug, Clone, Copy)]
struct Catalog {
    /// Every heap pop (includes past-horizon drops).
    events_dequeued: Counter,
    /// Pops per [`CostKind`], in [`CostKind::ALL`] order: `ev_*`, and
    /// `events_past_horizon` for the horizon drop.
    ev: [Counter; CostKind::ALL.len()],
    console_lines: Counter,
    sbe_accepted: Counter,
    sbe_thinned: Counter,
    soft_no_target: Counter,
    swaps_fired: Counter,
    swaps_stale: Counter,
    jobs_closed_at_horizon: Counter,
    pre_sbe_reuse_hits: Counter,
    pre_sbe_allocs: Counter,
    heap_high_water: Gauge,
    active_jobs_high_water: Gauge,
    payload_slots: Gauge,
    job_nodes: HistId,
    cascade_parents: Counter,
    cascade_children: Counter,
    cascade_fanout: HistId,
    prologue_reads: Counter,
    epilogue_reads: Counter,
    final_snapshots: Counter,
}

/// The fixed `faults` draft tallies. They are registered up front, so a
/// stream switched off in the config still reports its zeros; the
/// per-structure SBE tallies ([`DraftTally::sbe_structure`]) register on
/// first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTally {
    /// DBE drafts inside the window.
    DbeDrafts,
    /// DBE drafts in device memory.
    DbeDeviceMemory,
    /// DBE drafts in the register file.
    DbeRegisterFile,
    /// DBE drafts whose InfoROM write is lost in the crash.
    DbeInforomLost,
    /// Off-the-bus drafts inside the window.
    OtbDrafts,
    /// Off-the-bus cluster roots.
    OtbClusterRoots,
    /// Off-the-bus cluster children.
    OtbClusterChildren,
    /// SBE drafts inside the window.
    SbeDrafts,
    /// Software-XID incidents inside the window.
    SoftIncidents,
    /// Software-XID incidents striking every node of a job at once.
    SoftJobWide,
}

impl FaultTally {
    /// Every tally, in registration order.
    pub const ALL: [FaultTally; 10] = [
        FaultTally::DbeDrafts,
        FaultTally::DbeDeviceMemory,
        FaultTally::DbeRegisterFile,
        FaultTally::DbeInforomLost,
        FaultTally::OtbDrafts,
        FaultTally::OtbClusterRoots,
        FaultTally::OtbClusterChildren,
        FaultTally::SbeDrafts,
        FaultTally::SoftIncidents,
        FaultTally::SoftJobWide,
    ];

    /// The counter key in the metrics document's `faults` section.
    pub fn name(self) -> &'static str {
        match self {
            FaultTally::DbeDrafts => "dbe_drafts",
            FaultTally::DbeDeviceMemory => "dbe_device_memory",
            FaultTally::DbeRegisterFile => "dbe_register_file",
            FaultTally::DbeInforomLost => "dbe_inforom_lost",
            FaultTally::OtbDrafts => "otb_drafts",
            FaultTally::OtbClusterRoots => "otb_cluster_roots",
            FaultTally::OtbClusterChildren => "otb_cluster_children",
            FaultTally::SbeDrafts => "sbe_drafts",
            FaultTally::SoftIncidents => "soft_incidents",
            FaultTally::SoftJobWide => "soft_job_wide",
        }
    }
}

/// The `faults` counters one [`Obs::draft_stage`] reports into.
pub struct DraftTally<'a> {
    reg: &'a mut Registry,
}

impl DraftTally<'_> {
    /// Adds `n` to a fixed draft tally.
    pub fn add(&mut self, t: FaultTally, n: u64) {
        let c = self.reg.counter("faults", t.name());
        self.reg.add(c, n);
    }

    /// Adds `n` to the per-structure SBE tally `sbe_draft_<key>`.
    pub fn sbe_structure(&mut self, key: &str, n: u64) {
        let c = self.reg.counter("faults", &format!("sbe_draft_{key}"));
        self.reg.add(c, n);
    }
}

/// Bucket bounds for the nodes-per-job histogram.
const JOB_NODES_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 64, 256, 1024, 4096];

/// Bucket bounds for the cascade fan-out histogram.
const CASCADE_FANOUT_BOUNDS: &[u64] = &[0, 1, 2, 3, 5, 8];

/// The observer threaded through a simulation run. The engine reports
/// actions through its methods; each projection is switched on
/// separately (metrics at construction, the rest through `enable_*`).
pub struct Obs {
    /// Counters, gauges and histograms (on with metrics).
    reg: Registry,
    /// The `timeseries` buckets (on with metrics).
    ts: TimeBuckets,
    /// The causal flight recorder (off by default; see
    /// [`Obs::enable_trace`]).
    pub stream: TraceStream,
    /// The online reliability-analytics sink (off by default; see
    /// [`Obs::enable_health`]).
    pub health: HealthSink,
    cat: Catalog,
    /// The deterministic cost ledger (off by default; see
    /// [`Obs::enable_prof`]).
    prof: ProfLedger,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.reg.enabled())
            .field("trace", &self.stream.is_enabled())
            .field("health", &self.health.is_enabled())
            .field("prof", &self.prof.enabled())
            .finish()
    }
}

impl Obs {
    /// An observer with metrics on (`enabled = true`) or off; trace,
    /// health and prof start off. Handles are registered either way, so
    /// the engine code is identical on both paths.
    pub fn new(enabled: bool) -> Self {
        let mut reg = Registry::new(enabled);
        let engine = |reg: &mut Registry, name| reg.counter("engine", name);
        let cat = Catalog {
            events_dequeued: engine(&mut reg, "events_dequeued"),
            ev: CostKind::ALL.map(|k| engine(&mut reg, k.counter_name())),
            console_lines: engine(&mut reg, "console_lines"),
            sbe_accepted: engine(&mut reg, "sbe_accepted"),
            sbe_thinned: engine(&mut reg, "sbe_thinned"),
            soft_no_target: engine(&mut reg, "soft_no_target"),
            swaps_fired: engine(&mut reg, "swaps_fired"),
            swaps_stale: engine(&mut reg, "swaps_stale"),
            jobs_closed_at_horizon: engine(&mut reg, "jobs_closed_at_horizon"),
            pre_sbe_reuse_hits: engine(&mut reg, "pre_sbe_reuse_hits"),
            pre_sbe_allocs: engine(&mut reg, "pre_sbe_allocs"),
            heap_high_water: reg.gauge("engine", "heap_high_water"),
            active_jobs_high_water: reg.gauge("engine", "active_jobs_high_water"),
            payload_slots: reg.gauge("engine", "payload_slots"),
            job_nodes: reg.histogram("job_nodes", JOB_NODES_BOUNDS),
            cascade_parents: reg.counter("faults", "cascade_parents"),
            cascade_children: reg.counter("faults", "cascade_children"),
            cascade_fanout: reg.histogram("cascade_fanout", CASCADE_FANOUT_BOUNDS),
            prologue_reads: reg.counter("nvsmi", "prologue_reads"),
            epilogue_reads: reg.counter("nvsmi", "epilogue_reads"),
            final_snapshots: reg.counter("nvsmi", "final_snapshots"),
        };
        for t in FaultTally::ALL {
            reg.counter("faults", t.name());
        }
        Obs {
            reg,
            ts: TimeBuckets::new(enabled),
            stream: TraceStream::new(false),
            health: HealthSink::new(false),
            cat,
            prof: ProfLedger::new(false),
        }
    }

    /// A no-op observer: the default for plain `Simulator::run()`.
    pub fn disabled() -> Self {
        Obs::new(false)
    }

    /// An observer with metrics on.
    pub fn enabled() -> Self {
        Obs::new(true)
    }

    /// Whether metric collection is on.
    pub fn is_enabled(&self) -> bool {
        self.reg.enabled()
    }

    /// Turns the causal flight recorder on (`--trace FILE`). Tracing is
    /// independent of metric collection and is a pure observer either
    /// way: the per-seed digests are identical with it on or off.
    pub fn enable_trace(&mut self) {
        self.stream = TraceStream::new(true);
    }

    /// Whether the flight recorder is on.
    pub fn trace_enabled(&self) -> bool {
        self.stream.is_enabled()
    }

    /// Turns the online health-analytics sink on (`--health FILE`).
    /// Like tracing, independent of metric collection and a pure
    /// observer: per-seed digests are identical with it on or off.
    pub fn enable_health(&mut self) {
        self.health = HealthSink::new(true);
    }

    /// Turns the deterministic cost ledger on (`--prof FILE` /
    /// `profile`). Like tracing and health, a pure observer: per-seed
    /// output digests are identical with it on or off.
    pub fn enable_prof(&mut self) {
        self.prof = ProfLedger::new(true);
    }

    /// Whether any projection is on: the one branch every action call
    /// takes on a run with all observers off.
    #[inline]
    fn live(&self) -> bool {
        self.reg.enabled()
            | self.stream.is_enabled()
            | self.health.is_enabled()
            | self.prof.enabled()
    }

    /// Marks a phase boundary: `name` starts now, the previous phase
    /// (if any) ends now. With the cost ledger on this opens a ledger
    /// phase scope, so every phase marker doubles as a prof attribution
    /// boundary; with it off the call is a no-op.
    pub fn phase(&mut self, name: &'static str) {
        if self.prof.enabled() {
            // Phase boundaries sit outside the event loop: no engine RNG
            // is in scope, so the carried watermark is exact (the loop
            // flushes its true totals before returning).
            let rng = self.prof.last_rng();
            let trace = self.stream.next_id();
            self.prof.switch_phase(name, rng, trace);
        }
    }

    // --- Engine actions -------------------------------------------------

    /// Setup-stream RNG draws (workload, fault drafts, susceptibility,
    /// apruns): their local generators never reach a ledger switch, so
    /// the draws are charged to the open phase directly.
    #[inline]
    pub fn setup_draws(&mut self, draws: u64) {
        self.prof.rng_direct(draws);
    }

    /// `n` events pushed onto the engine heap.
    #[inline]
    pub fn heap_push(&mut self, n: u64) {
        self.prof.heap_push(n);
    }

    /// One fault-draft stage finished sampling: `draws` setup draws, and
    /// (run only with metrics on) `tallies`, which reports the stage's
    /// `faults` counters.
    pub fn draft_stage(&mut self, draws: u64, tallies: impl FnOnce(&mut DraftTally<'_>)) {
        self.prof.rng_direct(draws);
        if self.reg.enabled() {
            tallies(&mut DraftTally { reg: &mut self.reg });
        }
    }

    /// One fault draft inside the window: mints its root trace record
    /// and returns the id (0 untraced).
    #[inline]
    pub fn fault_draft(&mut self, t: SimTime, payload: impl FnOnce() -> String) -> u64 {
        self.stream
            .mint(TraceKind::FaultDraft, 0, t, None, None, None, payload)
    }

    /// The event loop starts (or resumes) a slice with `spares` cards in
    /// the hot-spare pool.
    pub fn event_loop(&mut self, spares: u64) {
        self.phase("engine:event_loop");
        // Seeds the spare gauge before the first swap fires; later
        // slices keep the latched baseline.
        self.health.set_spares_baseline(spares);
    }

    /// One heap pop at `t` of an event of `kind`, with `depth` events on
    /// the heap before the pop. Counts the dequeue, advances the health
    /// grid and switches the ledger scope, before the event runs, so
    /// every cost until the next pop is charged to it. `rng_total` (the
    /// summed draws of every loop RNG) is read only with the ledger on.
    #[inline]
    pub fn dequeue(
        &mut self,
        t: SimTime,
        kind: CostKind,
        depth: u64,
        rng_total: impl FnOnce() -> u64,
    ) {
        if !self.live() {
            return;
        }
        // The scope switches first, so what the projections below
        // allocate is charged to this event.
        if self.prof.enabled() {
            let trace = self.stream.next_id();
            self.prof.switch_kind(kind, rng_total(), trace);
        }
        if self.reg.enabled() {
            self.reg.inc(self.cat.events_dequeued);
            if let Some(&c) = self.cat.ev.get(kind.index()) {
                self.reg.inc(c);
            }
            self.reg.set_max(self.cat.heap_high_water, depth);
            if let Some(series) = TsSeries::of_kind(kind) {
                self.ts.inc(series, t);
            }
        }
        self.health.tick(t);
    }

    /// A job started on `nodes` nodes, leaving `active` jobs running;
    /// `reused` says whether its prologue buffer came from the spare
    /// pool.
    #[inline]
    pub fn job_start(&mut self, nodes: u64, active: u64, reused: bool) {
        if !self.reg.enabled() {
            return;
        }
        let buffer = if reused {
            self.cat.pre_sbe_reuse_hits
        } else {
            self.cat.pre_sbe_allocs
        };
        self.reg.inc(buffer);
        // The modelled nvidia-smi prologue reads every node.
        self.reg.add(self.cat.prologue_reads, nodes);
        self.reg.set_max(self.cat.active_jobs_high_water, active);
        self.reg.observe(self.cat.job_nodes, nodes);
    }

    /// A job on `nodes` nodes ended (completion, crash, or the horizon).
    #[inline]
    pub fn job_end(&mut self, nodes: u64) {
        // The modelled nvidia-smi epilogue reads every node.
        self.reg.add(self.cat.epilogue_reads, nodes);
    }

    /// An engine event executed: mints its flight-recorder record under
    /// `parent` and returns the id (0 untraced).
    #[inline]
    pub fn engine_event(
        &mut self,
        parent: u64,
        t: SimTime,
        card: Option<u64>,
        node: Option<u64>,
        apid: Option<u64>,
        payload: impl FnOnce() -> String,
    ) -> u64 {
        self.stream
            .mint(TraceKind::EngineEvent, parent, t, card, node, apid, payload)
    }

    /// A console line is about to be logged: counted in the timeseries,
    /// minted under `parent`, fed to the health analytics and charged
    /// to the ledger with its exact rendered length.
    #[inline]
    pub fn console_line(&mut self, parent: u64, card: Option<u64>, ev: &ConsoleEvent) {
        if !self.live() {
            return;
        }
        self.ts.inc(TsSeries::ConsoleLines, ev.time);
        let id = self.stream.mint_console(
            parent,
            ev.time,
            card,
            Some(u64::from(ev.node.0)),
            ev.apid,
            || format!("console {:?}", ev.kind),
        );
        if self.health.is_enabled() {
            let loc = ev.node.location();
            self.health.on_console(HealthEvent {
                t: ev.time,
                class: ev.kind.short_name(),
                hardware: ev.is_hardware(),
                row: loc.row,
                col: loc.col,
                cage: loc.cage,
                trace: id,
            });
        }
        if self.prof.enabled() {
            // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
            self.prof.console(titan_conlog::rendered_len(ev) as u64);
        }
    }

    /// A fault event spawned `children` cascade children, each pushed
    /// onto the heap.
    #[inline]
    pub fn cascade(&mut self, children: u64) {
        if !self.live() {
            return;
        }
        self.reg.inc(self.cat.cascade_parents);
        self.reg.add(self.cat.cascade_children, children);
        self.reg.observe(self.cat.cascade_fanout, children);
        self.prof.heap_push(children);
    }

    /// An SBE draft was rejected by activity thinning.
    #[inline]
    pub fn sbe_thinned(
        &mut self,
        parent: u64,
        t: SimTime,
        card: u64,
        node: u64,
        payload: impl FnOnce() -> String,
    ) {
        if !self.live() {
            return;
        }
        self.reg.inc(self.cat.sbe_thinned);
        self.engine_event(parent, t, Some(card), Some(node), None, payload);
    }

    /// An SBE draft was accepted and is about to strike `card`; returns
    /// its trace id (0 untraced).
    #[inline]
    pub fn sbe_accepted(
        &mut self,
        parent: u64,
        t: SimTime,
        card: u64,
        node: u64,
        payload: impl FnOnce() -> String,
    ) -> u64 {
        if !self.live() {
            return 0;
        }
        self.reg.inc(self.cat.sbe_accepted);
        self.ts.inc(TsSeries::SbeAccepted, t);
        let id = self.engine_event(parent, t, Some(card), Some(node), None, payload);
        self.health.on_sbe(card, t, id);
        id
    }

    /// A job-wide software incident found no running job to strike.
    #[inline]
    pub fn soft_no_target(&mut self) {
        self.reg.inc(self.cat.soft_no_target);
    }

    /// A page retirement was decided on `card`; returns its trace id (0
    /// untraced).
    #[inline]
    pub fn retirement(
        &mut self,
        parent: u64,
        t: SimTime,
        card: u64,
        payload: impl FnOnce() -> String,
    ) -> u64 {
        if !self.live() {
            return 0;
        }
        let id = self
            .stream
            .mint(TraceKind::Retirement, parent, t, Some(card), None, None, payload);
        self.health.on_retirement(t, id);
        id
    }

    /// A scheduled hot-spare swap of `card` was stale at fire time.
    #[inline]
    pub fn swap_stale(&mut self, parent: u64, t: SimTime, card: u64) {
        if !self.live() {
            return;
        }
        self.reg.inc(self.cat.swaps_stale);
        self.engine_event(parent, t, Some(card), None, None, || "swap_stale".to_string());
    }

    /// A hot-spare swap pulled `card`, leaving `spares` in the pool.
    #[inline]
    pub fn swap_fired(&mut self, parent: u64, t: SimTime, card: u64, spares: u64) {
        if !self.live() {
            return;
        }
        self.reg.inc(self.cat.swaps_fired);
        self.ts.inc(TsSeries::SwapsFired, t);
        let id = self.engine_event(parent, t, Some(card), None, None, || "swap_fired".to_string());
        self.health.on_swap(t, spares, id);
    }

    /// A `run_until` slice returned: closes the open ledger span with
    /// the true loop-RNG totals, so a checkpoint captured here rides a
    /// fully attributed table.
    pub fn slice_end(&mut self, rng_total: u64) {
        let trace = self.stream.next_id();
        self.prof.flush(rng_total, trace);
    }

    /// The engine closes the run at `window`: `closed` jobs still run
    /// and are ended at the horizon, and the run produced
    /// `console_lines` lines, `payload_slots` events in total and
    /// `final_snapshots` end-of-study nvidia-smi snapshots. Opens the
    /// `engine:finalize` phase and flushes the health stream.
    pub fn finalize(
        &mut self,
        window: SimTime,
        closed: u64,
        console_lines: u64,
        payload_slots: u64,
        final_snapshots: u64,
    ) {
        self.phase("engine:finalize");
        self.health.finish(window);
        self.reg.add(self.cat.jobs_closed_at_horizon, closed);
        self.reg.add(self.cat.console_lines, console_lines);
        self.reg.set_max(self.cat.payload_slots, payload_slots);
        self.reg.add(self.cat.final_snapshots, final_snapshots);
    }

    /// Adds `n` to counter `section.name`, registering it on first use:
    /// for collect-time tallies (the SEC replay, the nvidia-smi fleet
    /// summary) that the engine never sees.
    pub fn add_counter(&mut self, section: &str, name: &str, n: u64) {
        let c = self.reg.counter(section, name);
        self.reg.add(c, n);
    }

    // --- Cost ledger plumbing -------------------------------------------

    /// Installs the counting-allocator probe (see
    /// [`prof::ProfLedger::set_alloc_probe`]).
    pub fn set_prof_alloc_probe(&mut self, probe: fn() -> prof::AllocStats) {
        self.prof.set_alloc_probe(probe);
    }

    /// Installs the wall-clock edge hook (see
    /// [`prof::ProfLedger::set_wall_hook`]); CLI-side only: the engine
    /// itself never sees a clock (lint D5).
    pub fn set_prof_wall_hook(&mut self, hook: Box<dyn FnMut(&'static str)>) {
        self.prof.set_wall_hook(hook);
    }

    /// Closes the open ledger span with carried watermarks — for the
    /// CLI after the last post-engine phase, where no engine RNG
    /// exists to total.
    pub fn prof_finish(&mut self) {
        let rng = self.prof.last_rng();
        let trace = self.stream.next_id();
        self.prof.flush(rng, trace);
    }

    /// Marks a ledger rebaseline after checkpoint capture (see
    /// [`prof::ProfLedger::mark_rebaseline`]).
    pub fn prof_rebaseline(&mut self) {
        self.prof.mark_rebaseline();
    }

    /// Read access to the ledger (document building).
    pub fn prof_ledger(&self) -> &prof::ProfLedger {
        &self.prof
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn console(time: SimTime) -> ConsoleEvent {
        ConsoleEvent {
            time,
            node: titan_topology::NodeId(5),
            kind: titan_gpu::GpuErrorKind::DoubleBitError,
            structure: None,
            page: None,
            apid: Some(3),
        }
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let mut obs = Obs::disabled();
        obs.dequeue(10, CostKind::Dbe, 999, || 0);
        obs.job_start(4, 1, false);
        obs.cascade(2);
        obs.console_line(0, None, &console(10));
        let doc = MetricsDoc::from_obs(&obs, 1, 1);
        assert!(doc.engine.values().all(|&v| v == 0), "{:?}", doc.engine);
        assert!(doc.faults.values().all(|&v| v == 0), "{:?}", doc.faults);
        assert!(doc.timeseries.series.values().flatten().all(|&v| v == 0));
    }

    #[test]
    fn dequeue_fills_the_per_kind_table() {
        let mut obs = Obs::enabled();
        obs.dequeue(0, CostKind::Dbe, 10, || 0);
        obs.dequeue(5, CostKind::Dbe, 7, || 0);
        obs.dequeue(8 * 86_400, CostKind::Horizon, 3, || 0);
        let doc = MetricsDoc::from_obs(&obs, 1, 14);
        assert_eq!(doc.engine["events_dequeued"], 3);
        assert_eq!(doc.engine["ev_dbe"], 2);
        assert_eq!(doc.engine["events_past_horizon"], 1);
        assert_eq!(doc.engine["ev_job_start"], 0);
        assert_eq!(doc.engine["heap_high_water"], 10);
        assert_eq!(doc.timeseries.series["ev_dbe"], vec![2, 0]);
    }

    #[test]
    fn trace_stream_is_off_by_default_and_opt_in() {
        let mut obs = Obs::enabled();
        assert!(!obs.trace_enabled());
        assert_eq!(obs.fault_draft(1, String::new), 0);
        obs.enable_trace();
        assert!(obs.trace_enabled());
        assert_eq!(obs.fault_draft(1, String::new), 1);
        obs.console_line(1, None, &console(2));
        assert_eq!(obs.stream.console_pairs(), &[(2, 2)]);
    }

    #[test]
    fn health_sink_is_off_by_default_and_opt_in() {
        let mut obs = Obs::enabled();
        assert!(!obs.health.is_enabled());
        obs.sbe_accepted(0, 5, 1, 0, String::new);
        obs.finalize(100, 0, 0, 0, 0);
        assert_eq!(
            parse_health(&obs.health.render_jsonl(1, 1))
                .expect("parse")
                .header
                .intervals,
            0
        );
        obs.enable_health();
        assert!(obs.health.is_enabled());
        obs.sbe_accepted(0, 5, 1, 0, String::new);
        obs.finalize(100, 0, 0, 0, 0);
        let doc = parse_health(&obs.health.render_jsonl(1, 1)).expect("parse");
        assert_eq!(doc.header.intervals, 1);
    }
}
