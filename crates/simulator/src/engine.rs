//! The deterministic event loop.
//!
//! All stochastic choices are drawn from per-subsystem RNG streams, and
//! events are ordered by `(time, sequence)`, so a given [`SimConfig`]
//! always produces bit-identical output.
//!
//! The loop is strictly single-threaded by design: parallelism in this
//! workspace only ever runs *across* independent simulations (see the
//! replication runner in `titan-runner` and DETERMINISM.md), never
//! inside one. titan-lint rule D4 enforces this mechanically.
//!
//! The engine is split into an explicit [`EngineState`] so a run can be
//! paused at any sim-time boundary, captured as an [`EngineSnapshot`],
//! and resumed later (or in another process) with byte-identical
//! output — the checkpoint/restore contract pinned by the `titan-ckpt/1`
//! tests in `titan-runner`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use titan_conlog::time::SimTime;
use titan_conlog::{ConsoleEvent, JobRecord};
use titan_faults::calibration;
use titan_faults::cascade::CascadeModel;
use titan_faults::hardware::{DbeProcess, OtbProcess, SbeProcess};
use titan_faults::rngstream::{RngStreams, StreamTag};
use titan_faults::software::SoftwareXidModel;
use titan_faults::telemetry::{
    dbe_draft_payload, otb_draft_payload, sbe_draft_payload, soft_draft_payload, DbeDraftStats,
    OtbDraftStats, SbeDraftStats, SoftDraftStats,
};
use titan_obs::{metric_key, CostKind, FaultTally, Obs};
use titan_gpu::pages::{RetireDecision, RetirementCause};
use titan_gpu::{GpuErrorKind, MemoryStructure, PageAddress};
use titan_nvsmi::{GpuSnapshot, JobEccDelta};
use titan_topology::{node_to_gpu_index, NodeId, TOTAL_SLOTS};
use titan_workload::{ScheduledJob, WorkloadSchedule};

use crate::config::SimConfig;
use crate::fleet::{Fleet, FleetSnapshot};
use crate::output::{DbeTruth, OtbTruth, RetireTruth, SimOutput, SwapTruth};

/// Sentinel: no job on this node / job not active.
const NO_JOB: u32 = u32::MAX;

/// One schedulable event. Every payload is plain-old-data, so the event
/// loop reads it by copy — no per-event clone on the hot path — and a
/// checkpoint can serialize the dynamic payload tail directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum Ev {
    JobStart(u32),
    JobEnd(u32),
    Dbe {
        structure: MemoryStructure,
        page: Option<PageAddress>,
        persisted: bool,
        /// Flight-recorder id of the fault draft (0 when tracing is off).
        trace: u64,
    },
    Otb {
        trace: u64,
    },
    Sbe {
        structure: MemoryStructure,
        hot_page: Option<u32>,
        trace: u64,
    },
    Soft {
        kind: GpuErrorKind,
        job_wide: bool,
        trace: u64,
    },
    /// Cascade child event landing on a specific node. Carries the apid
    /// of the originating job: by the time the child lands the job has
    /// usually crashed, but the console line still names the application
    /// that caused it (the driver logs the context's apid).
    Child {
        node: NodeId,
        kind: GpuErrorKind,
        apid: Option<u64>,
        /// Flight-recorder id of the engine event that spawned the
        /// cascade (0 when tracing is off).
        trace: u64,
    },
    /// Deferred XID 63 console record for a retirement on `card`.
    RetireRecord {
        card: u32,
        /// Flight-recorder id of the retirement decision.
        trace: u64,
    },
    /// Hot-spare maintenance swap for `slot`, scheduled because `card`
    /// (the occupant at schedule time) crossed the pull threshold. The
    /// card id travels with the event so the fire-time check can tell a
    /// stale schedule from a live one.
    Swap {
        slot: u32,
        card: u32,
        /// Flight-recorder id of the DBE engine event that scheduled it.
        trace: u64,
    },
}

/// Per-job runtime state.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct JobState {
    started: bool,
    ended: bool,
    /// Copy-on-first-write nvidia-smi prologue: the reported
    /// per-structure SBE totals (`MemoryStructure::ECC_COUNTED` order) of
    /// each job node whose counters changed while the job held it, as
    /// they stood at job start. Sorted by node, one entry per node; a
    /// node absent here still reads what it read at job start. Present
    /// only while running.
    pre_sbe: Option<Vec<(NodeId, [u64; 5])>>,
    actual_end: SimTime,
}

/// Runtime job bookkeeping: per-job state, node occupancy, and the
/// active set with O(1) membership updates (`active_pos` tracks each
/// job's index in `active`, so ending a job is a `swap_remove` instead
/// of an O(active) scan).
#[derive(Debug)]
struct JobTable {
    state: Vec<JobState>,
    /// Node → running job (NO_JOB when idle).
    node_job: Vec<u32>,
    /// Node → the job that still holds it for the rest of the second in
    /// which `node_job`'s job took it over (NO_JOB otherwise). A queued
    /// job starts at the very second its predecessor releases the nodes,
    /// and job starts dispatch before same-second job ends, so for that
    /// second both jobs hold the node and both see its counters change.
    /// Empty again once the second's job ends have run, so it is empty
    /// at every checkpoint boundary and checkpoints do not carry it.
    handoff: Vec<u32>,
    /// Currently running jobs.
    active: Vec<u32>,
    /// Job → index in `active` (NO_JOB when not active).
    active_pos: Vec<u32>,
    /// Recycled pre-SBE snapshot buffers (one allocation per concurrent
    /// job, reused across the whole run).
    spare_pre: Vec<Vec<(NodeId, [u64; 5])>>,
}

/// Portable [`JobTable`] state for checkpointing. The recycled
/// `spare_pre` buffers are captured as a *count* only: their contents
/// are cleared before every reuse, so only how many exist matters (it
/// decides the `pre_sbe_reuse_hits` / `pre_sbe_allocs` counter split on
/// the resumed run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JobTableSnapshot {
    state: Vec<JobState>,
    node_job: Vec<u32>,
    active: Vec<u32>,
    active_pos: Vec<u32>,
    spare_pre_len: u64,
}

impl JobTable {
    fn new(n_jobs: usize) -> Self {
        JobTable {
            state: vec![JobState::default(); n_jobs],
            node_job: vec![NO_JOB; TOTAL_SLOTS],
            handoff: vec![NO_JOB; TOTAL_SLOTS],
            active: Vec::new(),
            active_pos: vec![NO_JOB; n_jobs],
            spare_pre: Vec::new(),
        }
    }

    fn snapshot(&self) -> JobTableSnapshot {
        JobTableSnapshot {
            state: self.state.clone(),
            node_job: self.node_job.clone(),
            active: self.active.clone(),
            active_pos: self.active_pos.clone(),
            // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
            spare_pre_len: self.spare_pre.len() as u64,
        }
    }

    /// Rebuilds the table from a checkpoint. Refuses a `pre_sbe` list
    /// that is not one strictly node-ordered entry per node of its own
    /// job: the epilogue looks nodes up by binary search, so a duplicate
    /// or foreign entry would silently misattribute SBEs.
    fn from_snapshot(
        s: &JobTableSnapshot,
        schedule: &WorkloadSchedule,
    ) -> Result<JobTable, String> {
        for (j, st) in s.state.iter().enumerate() {
            let Some(pre) = &st.pre_sbe else {
                continue;
            };
            let nodes = schedule
                .jobs
                .get(j)
                .map(|job| job.nodes.as_slice())
                .unwrap_or_default();
            let misordered = pre.windows(2).find_map(|w| match w {
                [(a, _), (b, _)] if a >= b => Some(*b),
                _ => None,
            });
            if let Some(n) = misordered {
                return Err(format!(
                    "checkpoint job {j}: pre_sbe lists node {} out of order or twice",
                    n.0
                ));
            }
            if let Some((n, _)) = pre.iter().find(|(n, _)| !nodes.contains(n)) {
                return Err(format!(
                    "checkpoint job {j}: pre_sbe names node {}, which the job does not hold",
                    n.0
                ));
            }
        }
        Ok(JobTable {
            state: s.state.clone(),
            node_job: s.node_job.clone(),
            handoff: vec![NO_JOB; s.node_job.len()],
            active: s.active.clone(),
            active_pos: s.active_pos.clone(),
            spare_pre: (0..s.spare_pre_len).map(|_| Vec::new()).collect(),
        })
    }

    /// Marks job `j` started: occupies its nodes, moving a predecessor
    /// that still holds one to `handoff`. The nvidia-smi prologue reads
    /// no counters here; [`JobTable::before_sbe_write`] copies a node's
    /// reading the first time it is about to change. Returns whether the
    /// job's prologue buffer was recycled from the spare pool.
    fn start(&mut self, j: u32, job: &ScheduledJob) -> bool {
        let reused = !self.spare_pre.is_empty();
        let mut pre = self.spare_pre.pop().unwrap_or_default();
        let Some(st) = self.state.get_mut(j as usize) else {
            return reused;
        };
        st.started = true;
        st.actual_end = job.end;
        pre.clear();
        st.pre_sbe = Some(pre);
        for n in &job.nodes {
            let idx = n.0 as usize;
            let Some(slot) = self.node_job.get_mut(idx) else {
                continue;
            };
            let held = std::mem::replace(slot, j);
            if held != j {
                if let Some(h) = self.handoff.get_mut(idx) {
                    *h = held;
                }
            }
        }
        let pos = self.active.len();
        if let Some(p) = self.active_pos.get_mut(j as usize) {
            // lint: allow(N1, active job count is bounded by the schedule length, far below 2^32)
            *p = pos as u32;
        }
        self.active.push(j);
        reused
    }

    /// Ends job `j` at `t` (normal completion or crash), producing the
    /// job record and the nvidia-smi prologue/epilogue SBE delta.
    fn end(
        &mut self,
        j: u32,
        t: SimTime,
        schedule: &WorkloadSchedule,
        fleet: &Fleet,
        out: &mut SimOutput,
        obs: &mut Obs,
    ) {
        let Some(st) = self.state.get_mut(j as usize) else {
            return;
        };
        if !st.started || st.ended {
            return;
        }
        st.ended = true;
        st.actual_end = t;
        let Some(job) = schedule.jobs.get(j as usize) else {
            return;
        };
        for n in &job.nodes {
            let idx = n.0 as usize;
            for slot in [self.node_job.get_mut(idx), self.handoff.get_mut(idx)]
                .into_iter()
                .flatten()
            {
                if *slot == j {
                    *slot = NO_JOB;
                }
            }
        }
        // O(1) active-set removal.
        let pos = self
            .active_pos
            .get(j as usize)
            .copied()
            .unwrap_or(NO_JOB) as usize;
        if let Some(p) = self.active_pos.get_mut(j as usize) {
            *p = NO_JOB;
        }
        if pos < self.active.len() {
            self.active.swap_remove(pos);
            if let Some(&moved) = self.active.get(pos) {
                if let Some(p) = self.active_pos.get_mut(moved as usize) {
                    // lint: allow(N1, pos indexes the active vec, bounded by the schedule length)
                    *p = pos as u32;
                }
            }
        }

        // nvidia-smi epilogue: per-node SBE delta. Only nodes whose
        // counters changed during the job are re-read; every other node
        // still reads its prologue value, so its delta is 0.
        let pre = st.pre_sbe.take().unwrap_or_default();
        let mut per_node_sbe = Vec::with_capacity(job.nodes.len());
        let mut per_structure_sbe = vec![0u64; 5];
        for n in &job.nodes {
            let mut node_total = 0;
            if let Ok(i) = pre.binary_search_by_key(n, |&(m, _)| m) {
                let before = pre.get(i).map_or([0; 5], |&(_, v)| v);
                let after = reported_sbe_vector(fleet, *n);
                for ((a, b), ps) in after
                    .iter()
                    .zip(before.iter())
                    .zip(per_structure_sbe.iter_mut())
                {
                    let d = a.saturating_sub(*b);
                    node_total += d;
                    *ps += d;
                }
            }
            per_node_sbe.push((*n, node_total));
        }
        self.spare_pre.push(pre);
        obs.job_end(job.nodes.len() as u64);
        out.job_sbe.push(JobEccDelta {
            apid: job.spec.apid,
            per_node_sbe,
            per_structure_sbe,
        });

        // Job log record with *actual* runtime.
        let wall = t.saturating_sub(job.start);
        let frac = if job.spec.wall == 0 {
            0.0
        } else {
            wall as f64 / job.spec.wall as f64
        };
        out.jobs.push(JobRecord {
            apid: job.spec.apid,
            user: job.spec.user,
            nodes: job.nodes.clone(),
            start: job.start,
            end: t,
            gpu_core_hours: job.spec.gpu_core_hours() * frac.min(1.0),
            max_memory_bytes: job.spec.mem_max_bytes,
            total_memory_byte_hours: job.spec.total_memory_byte_hours() * frac.min(1.0),
        });
    }

    /// Copy-on-first-write prologue reading. Must run before every
    /// change to the reported SBE counters of the card in `slot`: the
    /// first call for each job holding that node records the node's
    /// counters as they still stand, which are the counters the
    /// nvidia-smi prologue read at the job's start. Later calls during
    /// the same job, and calls on idle nodes, record nothing.
    fn before_sbe_write(&mut self, fleet: &Fleet, slot: u32) {
        let node = fleet.node_of_slot(slot);
        // lint: allow(N1, u32 to usize is lossless on 64-bit targets)
        let idx = node.0 as usize;
        let holders = [self.node_job.get(idx).copied(), self.handoff.get(idx).copied()];
        for j in holders.into_iter().flatten() {
            // NO_JOB and jobs no longer running have no list.
            let Some(pre) = self
                .state
                // lint: allow(N1, u32 to usize is lossless on 64-bit targets)
                .get_mut(j as usize)
                .and_then(|st| st.pre_sbe.as_mut())
            else {
                continue;
            };
            if let Err(i) = pre.binary_search_by_key(&node, |&(m, _)| m) {
                pre.insert(i, (node, reported_sbe_vector(fleet, node)));
            }
        }
    }

    /// Applies an SBE to the card in `slot`.
    fn apply_sbe(
        &mut self,
        fleet: &mut Fleet,
        slot: u32,
        structure: MemoryStructure,
        page: Option<PageAddress>,
        retirement_active: bool,
    ) -> RetireDecision {
        self.before_sbe_write(fleet, slot);
        let card = fleet.card_at_slot(slot);
        fleet
            .card_mut(card)
            .apply_sbe(structure, page, retirement_active)
    }

    /// Reloads the driver of the card in `slot`, flushing its pending
    /// SBEs when `orderly` and losing them otherwise.
    fn driver_reload(&mut self, fleet: &mut Fleet, slot: u32, orderly: bool) {
        self.before_sbe_write(fleet, slot);
        let card = fleet.card_at_slot(slot);
        fleet.card_mut(card).inforom.driver_reload(orderly);
    }

    /// Swaps the card in `slot` for a hot spare (see [`Fleet::swap_out`]).
    fn swap_out(&mut self, fleet: &mut Fleet, slot: u32) -> Option<(u32, u32)> {
        self.before_sbe_write(fleet, slot);
        fleet.swap_out(slot)
    }

    fn job_at(&self, node: NodeId) -> Option<u32> {
        let j = self
            .node_job
            .get(node.0 as usize)
            .copied()
            .unwrap_or(NO_JOB);
        (j != NO_JOB).then_some(j)
    }

    fn apid_at(&self, schedule: &WorkloadSchedule, node: NodeId) -> Option<u64> {
        self.job_at(node)
            .and_then(|j| schedule.jobs.get(j as usize))
            .map(|job| job.spec.apid)
    }
}

/// A paused simulation: the full mutable state of the event loop plus
/// everything needed to keep executing it. [`Simulator::run_with`] is
/// now a thin `new → run_until(∞) → finalize` over this type; the
/// checkpoint path instead stops at interval boundaries, captures an
/// [`EngineSnapshot`], and keeps going.
pub struct EngineState {
    cfg: SimConfig,
    schedule: WorkloadSchedule,
    heap: BinaryHeap<Reverse<(SimTime, u8, u64)>>,
    payloads: Vec<Ev>,
    /// How many payload slots the deterministic setup (job schedule +
    /// fault drafts) produced. Everything after this index was appended
    /// dynamically by the event loop — that tail is what a checkpoint
    /// must carry, because the prefix is regenerated from the config.
    initial_payload_len: usize,
    fleet: Fleet,
    cascades: CascadeModel,
    sim_rng: StdRng,
    cascade_rng: StdRng,
    spare_rng: StdRng,
    jobs: JobTable,
    swap_pending: Vec<bool>,
    /// Scratch for the weighted job pick, reused across soft events.
    weight_scratch: Vec<f64>,
    out: SimOutput,
    /// Test hook (`run --inject-divergence SECS`): burn one extra
    /// `sim_rng` draw at the first event at/after this time. Never
    /// serialized — a resumed run does not repeat the burn, which is
    /// exactly the artificial divergence `ckpt bisect` must localize.
    divergence_probe: Option<SimTime>,
}

/// Everything the event loop mutates, captured at a sim-time boundary.
/// Together with the originating [`SimConfig`] this is sufficient to
/// resume the run with byte-identical output; the `titan-ckpt/1` doc in
/// `titan-runner` wraps it with a chained FNV digest.
///
/// The deterministic *setup* products (workload schedule, fault drafts,
/// susceptibility, thermal model) are deliberately not captured — they
/// are pure functions of the config and are regenerated on restore,
/// which keeps checkpoints small and makes a config/checkpoint mismatch
/// detectable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    t: SimTime,
    /// Remaining `(time, class, seq)` heap entries, ascending. Keys are
    /// unique (seq is a global sequence number), so heap pop order is a
    /// pure function of this set.
    heap: Vec<(SimTime, u8, u64)>,
    /// Payload slots appended by the event loop after setup.
    payload_tail: Vec<Ev>,
    /// Setup payload count — must match the regenerated setup exactly.
    initial_payload_len: u64,
    fleet: FleetSnapshot,
    jobs: JobTableSnapshot,
    sim_rng: [u64; 4],
    cascade_rng: [u64; 4],
    spare_rng: [u64; 4],
    swap_pending: Vec<bool>,
    out: SimOutput,
}

impl EngineSnapshot {
    /// The sim-time boundary this snapshot was taken at.
    pub fn sim_time(&self) -> SimTime {
        self.t
    }
}

impl EngineState {
    /// Builds the initial engine state for `cfg`: generates the
    /// workload, drafts every fault stream, and seeds the runtime RNGs.
    /// This is the deterministic prefix shared by fresh runs and
    /// restores alike.
    pub fn new(cfg: &SimConfig, obs: &mut Obs) -> EngineState {
        let streams = RngStreams::new(cfg.seed);
        let window = cfg.window;

        // --- Generate the workload and fault drafts -------------------
        obs.phase("engine:workload");
        let schedule = {
            let mut rng = streams.stream(StreamTag::Workload);
            let schedule = WorkloadSchedule::generate(&cfg.schedule, &mut rng);
            obs.setup_draws(rng.draws());
            schedule
        };

        let mut heap: BinaryHeap<Reverse<(SimTime, u8, u64)>> =
            BinaryHeap::with_capacity(schedule.jobs.len() * 2);
        let mut payloads: Vec<Ev> = Vec::with_capacity(schedule.jobs.len() * 2);
        // Ties at one timestamp order by class (job starts before faults
        // before job ends), then by insertion sequence — so a fault at a
        // job's exact start second sees the job as running.
        let push = |heap: &mut BinaryHeap<Reverse<(SimTime, u8, u64)>>,
                    payloads: &mut Vec<Ev>,
                    t: SimTime,
                    class: u8,
                    ev: Ev| {
            // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
            let seq = payloads.len() as u64;
            payloads.push(ev);
            heap.push(Reverse((t, class, seq)));
        };

        // Job lifecycle events. Class 0 = starts (before same-time faults),
        // class 2 = ends (after same-time faults).
        for (i, j) in schedule.jobs.iter().enumerate() {
            // lint: allow(N1, job index: the window's schedule holds far fewer than 2^32 jobs)
            push(&mut heap, &mut payloads, j.start, 0, Ev::JobStart(i as u32));
            push(&mut heap, &mut payloads, j.end, 2, Ev::JobEnd(i as u32));
        }
        // Bulk attribution: every payload so far is a workload push.
        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
        let workload_payloads = payloads.len() as u64;
        obs.heap_push(workload_payloads);

        obs.phase("engine:fault_drafts");
        if cfg.enable_dbe {
            let mut rng = streams.stream(StreamTag::Dbe);
            let drafts = DbeProcess::default().sample(&mut rng);
            obs.draft_stage(rng.draws(), |tally| {
                let s = DbeDraftStats::collect(drafts.iter().filter(|d| d.time < window));
                tally.add(FaultTally::DbeDrafts, s.total);
                tally.add(FaultTally::DbeDeviceMemory, s.device_memory);
                tally.add(FaultTally::DbeRegisterFile, s.register_file);
                tally.add(FaultTally::DbeInforomLost, s.inforom_lost);
            });
            payloads.reserve(drafts.len());
            heap.reserve(drafts.len());
            for d in drafts {
                if d.time < window {
                    let trace = obs.fault_draft(d.time, || dbe_draft_payload(&d));
                    push(
                        &mut heap,
                        &mut payloads,
                        d.time,
                        1,
                        Ev::Dbe {
                            structure: d.structure,
                            page: d.page,
                            persisted: d.inforom_persisted,
                            trace,
                        },
                    );
                }
            }
        }
        if cfg.enable_otb {
            let mut rng = streams.stream(StreamTag::OffTheBus);
            let drafts = OtbProcess::default().sample(&mut rng);
            obs.draft_stage(rng.draws(), |tally| {
                let s = OtbDraftStats::collect(drafts.iter().filter(|d| d.time < window));
                tally.add(FaultTally::OtbDrafts, s.total);
                tally.add(FaultTally::OtbClusterRoots, s.cluster_roots);
                tally.add(FaultTally::OtbClusterChildren, s.cluster_children);
            });
            payloads.reserve(drafts.len());
            heap.reserve(drafts.len());
            for d in drafts {
                if d.time < window {
                    let trace = obs.fault_draft(d.time, || otb_draft_payload(&d));
                    push(&mut heap, &mut payloads, d.time, 1, Ev::Otb { trace });
                }
            }
        }
        if cfg.enable_sbe {
            let mut rng = streams.stream(StreamTag::Sbe);
            let drafts = SbeProcess::default().sample(&mut rng);
            obs.draft_stage(rng.draws(), |tally| {
                let s = SbeDraftStats::collect(drafts.iter().filter(|d| d.time < window));
                tally.add(FaultTally::SbeDrafts, s.total);
                for (m, c) in s.per_structure() {
                    tally.sbe_structure(&metric_key(m.label()), c);
                }
            });
            payloads.reserve(drafts.len());
            heap.reserve(drafts.len());
            for d in drafts {
                if d.time < window {
                    let trace = obs.fault_draft(d.time, || sbe_draft_payload(&d));
                    push(
                        &mut heap,
                        &mut payloads,
                        d.time,
                        1,
                        Ev::Sbe {
                            structure: d.structure,
                            hot_page: d.page.map(|p| p.0),
                            trace,
                        },
                    );
                }
            }
        }
        if cfg.enable_software {
            let mut rng = streams.stream(StreamTag::SoftwareXid);
            let incidents = SoftwareXidModel::default().sample(&mut rng);
            obs.draft_stage(rng.draws(), |tally| {
                let s = SoftDraftStats::collect(incidents.iter().filter(|i| i.time < window));
                tally.add(FaultTally::SoftIncidents, s.total);
                tally.add(FaultTally::SoftJobWide, s.job_wide);
            });
            payloads.reserve(incidents.len());
            heap.reserve(incidents.len());
            for inc in incidents {
                if inc.time < window {
                    let trace = obs.fault_draft(inc.time, || soft_draft_payload(&inc));
                    push(
                        &mut heap,
                        &mut payloads,
                        inc.time,
                        1,
                        Ev::Soft {
                            kind: inc.kind,
                            job_wide: inc.job_wide,
                            trace,
                        },
                    );
                }
            }
        }
        let initial_payload_len = payloads.len();
        // Bulk attribution: everything pushed since the workload block
        // is a fault-draft payload.
        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
        obs.heap_push(initial_payload_len as u64 - workload_payloads);

        // --- Runtime state ---------------------------------------------
        let fleet = {
            let mut rng = streams.stream(StreamTag::Susceptibility);
            let fleet = Fleet::new(cfg.spare_cards, &mut rng);
            obs.setup_draws(rng.draws());
            fleet
        };
        let cascades = if cfg.enable_cascades {
            CascadeModel::default()
        } else {
            CascadeModel::disabled()
        };
        let sim_rng = streams.stream(StreamTag::Simulator);
        let cascade_rng = streams.stream(StreamTag::Cascade);
        let spare_rng = streams.stream(StreamTag::HotSpare);

        let jobs = JobTable::new(schedule.jobs.len());
        let swap_pending: Vec<bool> = vec![false; fleet.n_cards()];

        let mut out = SimOutput {
            schedule_dropped: schedule.dropped,
            ..SimOutput::default()
        };
        out.truth.sbe_by_card = vec![0; fleet.n_cards()];
        out.truth.sbe_by_slot = vec![0; titan_topology::COMPUTE_NODES];
        out.truth.sbe_by_structure = vec![0; MemoryStructure::ECC_COUNTED.len()];
        // Most payload events emit at most one console line; job-wide
        // soft events add a line per job node on top.
        out.console.reserve(payloads.len());
        out.jobs.reserve(schedule.jobs.len());
        out.job_sbe.reserve(schedule.jobs.len());

        EngineState {
            cfg: cfg.clone(),
            schedule,
            heap,
            payloads,
            initial_payload_len,
            fleet,
            cascades,
            sim_rng,
            cascade_rng,
            spare_rng,
            jobs,
            swap_pending,
            weight_scratch: Vec::new(),
            out,
            divergence_probe: None,
        }
    }

    /// Captures the full mutable loop state at boundary `t`. The caller
    /// must have advanced the loop to exactly `t` via
    /// [`EngineState::run_until`] for resume identity to hold.
    pub fn snapshot(&self, t: SimTime) -> EngineSnapshot {
        let mut heap: Vec<(SimTime, u8, u64)> = self.heap.iter().map(|r| r.0).collect();
        heap.sort_unstable();
        EngineSnapshot {
            t,
            heap,
            payload_tail: self
                .payloads
                .get(self.initial_payload_len..)
                .unwrap_or(&[])
                .to_vec(),
            // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
            initial_payload_len: self.initial_payload_len as u64,
            fleet: self.fleet.snapshot(),
            jobs: self.jobs.snapshot(),
            sim_rng: self.sim_rng.state(),
            cascade_rng: self.cascade_rng.state(),
            spare_rng: self.spare_rng.state(),
            swap_pending: self.swap_pending.clone(),
            out: self.out.clone(),
        }
    }

    /// Rebuilds a paused run from `snap`: re-runs the deterministic
    /// setup for `cfg`, then overlays the captured loop state. Fails if
    /// the regenerated setup does not line up with the snapshot — the
    /// cheap tell that `cfg` is not the config the checkpoint came from.
    pub fn restore(
        cfg: &SimConfig,
        snap: &EngineSnapshot,
        obs: &mut Obs,
    ) -> Result<EngineState, String> {
        let mut st = EngineState::new(cfg, obs);
        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
        if st.payloads.len() as u64 != snap.initial_payload_len {
            return Err(format!(
                "checkpoint does not match this config: setup generated {} events, \
                 checkpoint recorded {}",
                st.payloads.len(),
                snap.initial_payload_len
            ));
        }
        st.payloads.extend(snap.payload_tail.iter().copied());
        st.heap = snap.heap.iter().copied().map(Reverse).collect();
        st.fleet.restore(&snap.fleet);
        st.jobs = JobTable::from_snapshot(&snap.jobs, &st.schedule)?;
        st.sim_rng = StdRng::from_state(snap.sim_rng);
        st.cascade_rng = StdRng::from_state(snap.cascade_rng);
        st.spare_rng = StdRng::from_state(snap.spare_rng);
        st.swap_pending = snap.swap_pending.clone();
        st.out = snap.out.clone();
        Ok(st)
    }

    /// Arms the divergence test hook: the first event dequeued at or
    /// after `at` burns one extra `sim_rng` draw, silently corrupting
    /// every draw after it. Deliberately absent from [`EngineSnapshot`].
    pub fn set_divergence_probe(&mut self, at: Option<SimTime>) {
        self.divergence_probe = at;
    }

    /// Executes every queued event strictly before `t_stop` (pass
    /// `SimTime::MAX` to drain the heap). Calling this repeatedly with
    /// increasing boundaries pops the exact same event sequence as one
    /// uninterrupted drain — the slicing only decides *when* control
    /// returns, never *what* runs.
    pub fn run_until(&mut self, t_stop: SimTime, obs: &mut Obs) {
        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
        obs.event_loop(self.fleet.n_spares() as u64);
        let EngineState {
            cfg,
            schedule,
            heap,
            payloads,
            fleet,
            cascades,
            sim_rng,
            cascade_rng,
            spare_rng,
            jobs,
            swap_pending,
            weight_scratch,
            out,
            divergence_probe,
            ..
        } = self;
        let window = cfg.window;

        // --- Event loop --------------------------------------------------
        while let Some(&Reverse((t, _class, seq))) = heap.peek() {
            if t >= t_stop {
                break;
            }
            let _popped = heap.pop();
            // Horizon: everything at/after the window is dropped. Jobs
            // still running are closed at `window` after the loop;
            // nothing else may land in the log.
            let ev = if t < window {
                // lint: allow(N1, seq is minted from payloads.len(), lossless on 64-bit)
                payloads.get(seq as usize).copied()
            } else {
                None
            };
            // The dequeue is observed at the pop itself, before the event
            // runs: the ledger charges every cost from here to the next
            // pop to this event's kind, and the health grid advances on
            // the monotone loop clock, identically however `run_until`
            // slices the drain.
            obs.dequeue(
                t,
                ev.as_ref().map_or(CostKind::Horizon, cost_kind),
                heap.len() as u64 + 1,
                || sim_rng.draws() + cascade_rng.draws() + spare_rng.draws(),
            );
            if let Some(p) = *divergence_probe {
                if t >= p {
                    // One stolen draw shifts every subsequent sim_rng
                    // sample — an artificial nondeterminism for the
                    // `ckpt bisect` acceptance test.
                    let _burn: u64 = sim_rng.gen();
                    *divergence_probe = None;
                }
            }
            let Some(ev) = ev else {
                continue;
            };
            match ev {
                Ev::JobStart(j) => {
                    let Some(job) = schedule.jobs.get(j as usize) else {
                        continue;
                    };
                    let reused = jobs.start(j, job);
                    obs.job_start(job.nodes.len() as u64, jobs.active.len() as u64, reused);
                }
                Ev::JobEnd(j) => {
                    jobs.end(j, t, schedule, fleet, out, obs);
                }
                Ev::Dbe {
                    structure,
                    page,
                    persisted,
                    trace,
                } => {
                    let slot = fleet.pick_dbe_slot(sim_rng);
                    let node = fleet.node_of_slot(slot);
                    let card = fleet.card_at_slot(slot);
                    let apid = jobs.apid_at(schedule, node);
                    let ev_id = obs.engine_event(
                        trace,
                        t,
                        Some(u64::from(card)),
                        Some(u64::from(node.0)),
                        apid,
                        || format!("dbe {structure:?}"),
                    );

                    // Page-retirement state may only change once the
                    // Jan'14 driver exists (satellite bugfix: the gate
                    // is on the state itself, not just the record).
                    let retirement_active = t >= calibration::retirement_xid_introduced();
                    let decision = fleet
                        .card_mut(card)
                        .apply_dbe(structure, page, persisted, retirement_active);
                    emit_console(
                        out,
                        obs,
                        ev_id,
                        Some(u64::from(card)),
                        ConsoleEvent {
                            time: t,
                            node,
                            kind: GpuErrorKind::DoubleBitError,
                            structure: Some(structure),
                            page: page.map(|p| p.0),
                            apid,
                        },
                    );
                    out.truth.dbe.push(DbeTruth {
                        time: t,
                        node,
                        card,
                        structure,
                        persisted,
                        crashed_apid: apid,
                    });

                    // Crash the job and reboot the node.
                    if let Some(j) = jobs.job_at(node) {
                        jobs.end(j, t, schedule, fleet, out, obs);
                    }
                    jobs.driver_reload(fleet, slot, persisted);

                    if let RetireDecision::Retired(cause) = decision {
                        schedule_retirement(
                            t, window, card, cause, ev_id, heap, payloads, cascade_rng, out, obs,
                        );
                    }

                    // Cascade children (XID 45 and friends).
                    let children = cascades.spawn(GpuErrorKind::DoubleBitError, cascade_rng);
                    obs.cascade(children.len() as u64);
                    for child in children {
                        let seq2 = payloads.len() as u64;
                        payloads.push(Ev::Child {
                            node,
                            kind: child.kind,
                            apid,
                            trace: ev_id,
                        });
                        heap.push(Reverse((t + child.delay, 1, seq2)));
                    }

                    // Hot-spare policy. The schedule-time checks are a
                    // cheap gate; the authoritative checks re-run when
                    // the swap fires (see Ev::Swap).
                    if cfg.enable_hot_spare_policy
                        && fleet.card(card).lifetime_dbe >= calibration::CARD_PULL_DBE_THRESHOLD
                        && !swap_pending.get(card as usize).copied().unwrap_or(true)
                        && fleet.n_spares() > 0
                    {
                        if let Some(p) = swap_pending.get_mut(card as usize) {
                            *p = true;
                        }
                        let seq2 = payloads.len() as u64;
                        payloads.push(Ev::Swap {
                            slot,
                            card,
                            trace: ev_id,
                        });
                        // Next maintenance window: 24 h later.
                        heap.push(Reverse((t + 24 * 3600, 1, seq2)));
                        obs.heap_push(1);
                    }
                }
                Ev::Otb { trace } => {
                    let Some(slot) = fleet.pick_otb_slot(sim_rng) else {
                        continue;
                    };
                    let node = fleet.node_of_slot(slot);
                    let card = fleet.card_at_slot(slot);
                    let apid = jobs.apid_at(schedule, node);
                    fleet.mark_otb_done(card);
                    let ev_id = obs.engine_event(
                        trace,
                        t,
                        Some(u64::from(card)),
                        Some(u64::from(node.0)),
                        apid,
                        || "otb".to_string(),
                    );
                    emit_console(
                        out,
                        obs,
                        ev_id,
                        Some(u64::from(card)),
                        ConsoleEvent {
                            time: t,
                            node,
                            kind: GpuErrorKind::OffTheBus,
                            structure: None,
                            page: None,
                            apid,
                        },
                    );
                    out.truth.otb.push(OtbTruth {
                        time: t,
                        node,
                        card,
                    });
                    if let Some(j) = jobs.job_at(node) {
                        jobs.end(j, t, schedule, fleet, out, obs);
                    }
                    // Node reboots after repair; volatile counters clear.
                    jobs.driver_reload(fleet, slot, false);
                }
                Ev::Sbe {
                    structure,
                    hot_page,
                    trace,
                } => {
                    let Some(card) = fleet.pick_sbe_card(sim_rng) else {
                        continue;
                    };
                    let Some(slot) = fleet.slot_of_card(card) else {
                        continue; // card sits in the spare pool right now
                    };
                    let node = fleet.node_of_slot(slot);
                    // Activity thinning: busy GPUs accumulate SBEs faster
                    // (monotone but sublinear — Observation 12).
                    let accept_p = match jobs
                        .job_at(node)
                        .and_then(|j| schedule.jobs.get(j as usize))
                    {
                        Some(job) => job
                            .spec
                            .gpu_util
                            .powf(calibration::SBE_ACTIVITY_EXPONENT),
                        None => 0.25,
                    };
                    if sim_rng.gen::<f64>() >= accept_p {
                        out.truth.sbe_rejected += 1;
                        obs.sbe_thinned(trace, t, u64::from(card), u64::from(node.0), || {
                            format!("sbe {structure:?} thinned")
                        });
                        continue;
                    }
                    let ev_id =
                        obs.sbe_accepted(trace, t, u64::from(card), u64::from(node.0), || {
                            format!("sbe {structure:?}")
                        });
                    let page = hot_page.map(PageAddress);
                    let retirement_active = t >= calibration::retirement_xid_introduced();
                    let decision =
                        jobs.apply_sbe(fleet, slot, structure, page, retirement_active);
                    if let Some(c) = out.truth.sbe_by_card.get_mut(card as usize) {
                        *c += 1;
                    }
                    if let Some(c) = out.truth.sbe_by_slot.get_mut(slot as usize) {
                        *c += 1;
                    }
                    if let Some(i) = MemoryStructure::ECC_COUNTED
                        .iter()
                        .position(|&m| m == structure)
                    {
                        if let Some(c) = out.truth.sbe_by_structure.get_mut(i) {
                            *c += 1;
                        }
                    }
                    if let RetireDecision::Retired(cause) = decision {
                        schedule_retirement(
                            t, window, card, cause, ev_id, heap, payloads, cascade_rng, out, obs,
                        );
                    }
                }
                Ev::Soft {
                    kind,
                    job_wide,
                    trace,
                } => {
                    if job_wide {
                        // Strike a running job, debug runs 8x as likely.
                        let Some(&j) =
                            weighted_job_pick(&jobs.active, schedule, sim_rng, weight_scratch)
                        else {
                            out.truth.software_skipped += 1;
                            obs.soft_no_target();
                            continue;
                        };
                        let Some(job) = schedule.jobs.get(j as usize) else {
                            continue;
                        };
                        let Some(&first) = job.nodes.first() else {
                            continue;
                        };
                        let apid = Some(job.spec.apid);
                        let ev_id = obs.engine_event(
                            trace,
                            t,
                            None,
                            None,
                            apid,
                            || format!("soft {kind:?} job_wide"),
                        );
                        // "errors appear on all the nodes allocated to the
                        // job within five seconds" — clamped to the study
                        // horizon like every other console record.
                        for (k, n) in job.nodes.iter().enumerate() {
                            let skew = if k == 0 {
                                0
                            } else {
                                sim_rng.gen_range(0..=calibration::APP_XID_NODE_SPREAD_SEC)
                            };
                            emit_console(
                                out,
                                obs,
                                ev_id,
                                None,
                                ConsoleEvent {
                                    time: (t + skew).min(window - 1),
                                    node: *n,
                                    kind,
                                    structure: None,
                                    page: None,
                                    apid,
                                },
                            );
                        }
                        // Cascade consequences land on the first node.
                        let children = cascades.spawn(kind, cascade_rng);
                        obs.cascade(children.len() as u64);
                        for child in children {
                            // Target draw comes from the cascade stream so
                            // that disabling cascades leaves every other
                            // stream untouched (clean ablations).
                            let target = if child.same_node || job.nodes.len() == 1 {
                                first
                            } else {
                                job.nodes
                                    .get(cascade_rng.gen_range(0..job.nodes.len()))
                                    .copied()
                                    .unwrap_or(first)
                            };
                            let seq2 = payloads.len() as u64;
                            payloads.push(Ev::Child {
                                node: target,
                                kind: child.kind,
                                apid,
                                trace: ev_id,
                            });
                            heap.push(Reverse((t + child.delay, 1, seq2)));
                        }
                        if kind.crashes_application() {
                            jobs.end(j, t, schedule, fleet, out, obs);
                        }
                    } else {
                        // Driver-level: one node, busy nodes preferred.
                        let node = match pick_any_job_node(&jobs.active, schedule, sim_rng) {
                            Some(n) => n,
                            None => {
                                // Idle machine: any compute node.
                                let slot = sim_rng
                                    // lint: allow(N1, COMPUTE_NODES is the constant 18,688)
                                    .gen_range(0..titan_topology::COMPUTE_NODES as u32);
                                fleet.node_of_slot(slot)
                            }
                        };
                        let apid = jobs.apid_at(schedule, node);
                        let ev_id = obs.engine_event(
                            trace,
                            t,
                            None,
                            Some(u64::from(node.0)),
                            apid,
                            || format!("soft {kind:?}"),
                        );
                        emit_console(
                            out,
                            obs,
                            ev_id,
                            None,
                            ConsoleEvent {
                                time: t,
                                node,
                                kind,
                                structure: None,
                                page: None,
                                apid,
                            },
                        );
                        let children = cascades.spawn(kind, cascade_rng);
                        obs.cascade(children.len() as u64);
                        for child in children {
                            let seq2 = payloads.len() as u64;
                            payloads.push(Ev::Child {
                                node,
                                kind: child.kind,
                                apid,
                                trace: ev_id,
                            });
                            heap.push(Reverse((t + child.delay, 1, seq2)));
                        }
                        if kind.crashes_application() {
                            if let Some(j) = jobs.job_at(node) {
                                jobs.end(j, t, schedule, fleet, out, obs);
                            }
                        }
                    }
                }
                Ev::Child {
                    node,
                    kind,
                    apid,
                    trace,
                } => {
                    let ev_id = obs.engine_event(
                        trace,
                        t,
                        None,
                        Some(u64::from(node.0)),
                        apid,
                        || format!("cascade {kind:?}"),
                    );
                    emit_console(
                        out,
                        obs,
                        ev_id,
                        None,
                        ConsoleEvent {
                            time: t,
                            node,
                            kind,
                            structure: None,
                            page: None,
                            apid,
                        },
                    );
                }
                Ev::RetireRecord { card, trace } => {
                    // The card may have moved to the spare pool meanwhile.
                    if let Some(slot) = fleet.slot_of_card(card) {
                        let node = fleet.node_of_slot(slot);
                        let apid = jobs.apid_at(schedule, node);
                        let ev_id = obs.engine_event(
                            trace,
                            t,
                            Some(u64::from(card)),
                            Some(u64::from(node.0)),
                            apid,
                            || "retire_record".to_string(),
                        );
                        emit_console(
                            out,
                            obs,
                            ev_id,
                            Some(u64::from(card)),
                            ConsoleEvent {
                                time: t,
                                node,
                                kind: GpuErrorKind::EccPageRetirement,
                                structure: Some(MemoryStructure::DeviceMemory),
                                page: None,
                                apid,
                            },
                        );
                    }
                }
                Ev::Swap { slot, card, trace } => {
                    // The schedule is 24 h stale by now: re-verify before
                    // pulling anything, and clear the pending flag either
                    // way so the card can be re-scheduled later (e.g. when
                    // no spare was available at fire time).
                    if let Some(p) = swap_pending.get_mut(card as usize) {
                        *p = false;
                    }
                    if !swap_fire_check(fleet, slot, card) {
                        obs.swap_stale(trace, t, u64::from(card));
                        continue;
                    }
                    if let Some((old_card, new_card)) = jobs.swap_out(fleet, slot) {
                        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
                        obs.swap_fired(trace, t, u64::from(old_card), fleet.n_spares() as u64);
                        // Hot-spare stress testing: burn the pulled card
                        // in under accelerated load. Its latent DBE
                        // proneness (lemons were usually what crossed the
                        // pull threshold) decides whether errors
                        // reproduce and the card goes back to the vendor.
                        let outcome = crate::hotspare::stress_test(
                            &crate::hotspare::StressTestConfig::default(),
                            fleet.susceptibility.dbe_weight(old_card as usize),
                            spare_rng,
                        );
                        if outcome.returned_to_vendor {
                            fleet.card_mut(old_card).return_to_vendor();
                        }
                        out.truth.swaps.push(SwapTruth {
                            time: t,
                            slot,
                            old_card,
                            new_card,
                            returned_to_vendor: outcome.returned_to_vendor,
                        });
                    }
                }
            }
        }
        // Close the open span at the slice boundary with the true loop
        // totals, so a checkpoint captured here rides a fully-attributed
        // table (capture-time serialization costs are then discarded by
        // the post-capture rebaseline).
        obs.slice_end(sim_rng.draws() + cascade_rng.draws() + spare_rng.draws());
    }

    /// Closes out the run: ends horizon-straddling jobs, derives the
    /// aprun log, takes the final fleet snapshots, and returns the
    /// completed [`SimOutput`]. Must only be called once the heap has
    /// been drained with `run_until(SimTime::MAX, ..)`.
    pub fn finalize(mut self, obs: &mut Obs) -> SimOutput {
        let window = self.cfg.window;
        obs.finalize(
            window,
            self.jobs.active.len() as u64,
            self.out.console.len() as u64,
            self.payloads.len() as u64,
            // lint: allow(N1, COMPUTE_NODES is the constant 18,688)
            titan_topology::COMPUTE_NODES as u64,
        );

        // End any jobs still running at the horizon.
        let still_active: Vec<u32> = self.jobs.active.clone();
        for j in still_active {
            self.jobs
                .end(j, window, &self.schedule, &self.fleet, &mut self.out, obs);
        }
        let mut out = self.out;

        // Aprun structure for every completed job (the ALPS log). Uses a
        // dedicated substream so the main workload stream is untouched;
        // the substream is re-derived from the seed, so a resumed run
        // reproduces it without carrying any extra RNG state.
        {
            let streams = RngStreams::new(self.cfg.seed);
            let mut aprun_rng = streams.substream(StreamTag::Workload, 1);
            let is_debug: std::collections::BTreeMap<u64, bool> = self
                .schedule
                .jobs
                .iter()
                .map(|j| (j.spec.apid, j.spec.is_debug))
                .collect();
            for rec in &out.jobs {
                out.apruns.extend(titan_workload::apruns::subdivide_span(
                    rec.apid,
                    rec.start,
                    rec.end,
                    is_debug.get(&rec.apid).copied().unwrap_or(false),
                    8,
                    &mut aprun_rng,
                ));
            }
            obs.setup_draws(aprun_rng.draws());
        }

        // Final fleet snapshots (per production slot).
        // lint: allow(N1, COMPUTE_NODES is the constant 18,688)
        out.final_snapshots = (0..titan_topology::COMPUTE_NODES as u32)
            .map(|slot| {
                let node = self.fleet.node_of_slot(slot);
                GpuSnapshot::take(node, self.fleet.card(self.fleet.card_at_slot(slot)), window)
            })
            .collect();

        out.console.sort_by_key(|e| e.time);
        out.jobs.sort_by_key(|j| j.start);
        SimOutput {
            console: out.console,
            jobs: out.jobs,
            job_sbe: out.job_sbe,
            apruns: out.apruns,
            final_snapshots: out.final_snapshots,
            schedule_dropped: out.schedule_dropped,
            truth: out.truth,
        }
    }
}

/// The fleet simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator; the config must validate.
    pub fn new(config: SimConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Simulator { config })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the full simulation.
    pub fn run(&self) -> SimOutput {
        self.run_with(&mut Obs::disabled())
    }

    /// Runs the full simulation, recording telemetry into `obs`.
    ///
    /// The sink never influences the run: every record call is a pure
    /// observation of state the engine computes anyway, so
    /// `run_with(&mut Obs::enabled())` and `run()` produce identical
    /// [`SimOutput`]s (pinned by the telemetry determinism tests).
    pub fn run_with(&self, obs: &mut Obs) -> SimOutput {
        let mut st = EngineState::new(&self.config, obs);
        st.run_until(SimTime::MAX, obs);
        st.finalize(obs)
    }
}

/// Reported per-structure SBE vector for the card on `node`.
fn reported_sbe_vector(fleet: &Fleet, node: NodeId) -> [u64; 5] {
    let mut v = [0u64; 5];
    if let Some(slot) = node_to_gpu_index(node) {
        let card = fleet.card(fleet.card_at_slot(slot));
        for (slot_v, &s) in v.iter_mut().zip(MemoryStructure::ECC_COUNTED.iter()) {
            *slot_v = card.inforom.reported_sbe(s);
        }
    }
    v
}

/// Fire-time validation for a scheduled hot-spare swap. The swap was
/// scheduled a maintenance window (24 h) earlier against the card that
/// crossed the pull threshold; by fire time the slot may have been
/// serviced already (pulling whoever occupies it now would pull an
/// innocent replacement), and the spare pool may have drained. Pull only
/// if the *offending card* still occupies the slot, is still over the
/// threshold, and a spare is available now.
fn swap_fire_check(fleet: &Fleet, slot: u32, card: u32) -> bool {
    fleet.slot_of_card(card) == Some(slot)
        && fleet.card(card).lifetime_dbe >= calibration::CARD_PULL_DBE_THRESHOLD
        && fleet.n_spares() > 0
}

/// Picks an active job for an application XID: debug runs weighted 20:1
/// (graphics engine exceptions overwhelmingly come from code under
/// development, per the paper's "debug and test runs" reading).
/// `weights` is caller-provided scratch, reused across calls.
fn weighted_job_pick<'a>(
    active: &'a [u32],
    schedule: &WorkloadSchedule,
    rng: &mut StdRng,
    weights: &mut Vec<f64>,
) -> Option<&'a u32> {
    if active.is_empty() {
        return None;
    }
    weights.clear();
    weights.extend(active.iter().map(|&j| {
        match schedule.jobs.get(j as usize) {
            Some(job) if job.spec.is_debug => 20.0,
            _ => 1.0,
        }
    }));
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return active.get(i);
        }
    }
    active.last()
}

/// A uniformly random node of a uniformly random active job.
fn pick_any_job_node(
    active: &[u32],
    schedule: &WorkloadSchedule,
    rng: &mut StdRng,
) -> Option<NodeId> {
    if active.is_empty() {
        return None;
    }
    let j = active.get(rng.gen_range(0..active.len())).copied()?;
    let nodes = &schedule.jobs.get(j as usize)?.nodes;
    if nodes.is_empty() {
        return None;
    }
    nodes.get(rng.gen_range(0..nodes.len())).copied()
}

/// Pushes a console line, observed first. Pure observation: the pushed
/// event is byte-identical to the unobserved path, and the `(time, id)`
/// pair the flight recorder keeps lets collect-time SEC replay recover
/// the line's id even after the final stable time-sort of the console
/// log.
fn emit_console(out: &mut SimOutput, obs: &mut Obs, parent: u64, card: Option<u64>, ev: ConsoleEvent) {
    obs.console_line(parent, card, &ev);
    out.console.push(ev);
}

/// Ledger scope for a dispatched payload. Horizon drops are classed
/// separately at the call site; every live payload maps 1:1 onto a
/// [`CostKind`].
fn cost_kind(ev: &Ev) -> CostKind {
    match ev {
        Ev::JobStart(_) => CostKind::JobStart,
        Ev::JobEnd(_) => CostKind::JobEnd,
        Ev::Dbe { .. } => CostKind::Dbe,
        Ev::Otb { .. } => CostKind::Otb,
        Ev::Sbe { .. } => CostKind::Sbe,
        Ev::Soft { .. } => CostKind::Soft,
        Ev::Child { .. } => CostKind::Child,
        Ev::RetireRecord { .. } => CostKind::RetireRecord,
        Ev::Swap { .. } => CostKind::Swap,
    }
}

/// Schedules the XID 63 console record for a retirement, honouring the
/// prompt / delayed / missing split of Fig. 8. A record whose delay
/// carries it past the study horizon can never appear in the console
/// log, so truth records it as unemitted (satellite bugfix: truth and
/// console must agree at the horizon). `parent` is the flight-recorder
/// id of the engine event that triggered the retirement.
#[allow(clippy::too_many_arguments)]
fn schedule_retirement(
    t: SimTime,
    window: SimTime,
    card: u32,
    cause: RetirementCause,
    parent: u64,
    heap: &mut BinaryHeap<Reverse<(SimTime, u8, u64)>>,
    payloads: &mut Vec<Ev>,
    rng: &mut StdRng,
    out: &mut SimOutput,
    obs: &mut Obs,
) {
    let (emitted, delay) = match cause {
        RetirementCause::DoubleBitError => {
            let roll: f64 = rng.gen();
            if roll < calibration::RETIRE_MISSING_PROB {
                (false, 0)
            } else if roll < calibration::RETIRE_MISSING_PROB + calibration::RETIRE_DELAYED_PROB {
                // Delayed past the prompt path: 10 min – 6 h.
                (true, rng.gen_range(600..21_600))
            } else {
                // Prompt: exponential with the calibrated mean, capped
                // inside the 10-minute bucket. The mean is a positive
                // constant, so the fallback branch never runs.
                let d = titan_stats::Exponential::new(
                    1.0 / calibration::RETIRE_AFTER_DBE_MEAN_DELAY_SEC,
                )
                .map(|e| e.sample(rng))
                .unwrap_or(calibration::RETIRE_AFTER_DBE_MEAN_DELAY_SEC)
                .min(590.0) as u64; // lint: allow(N1, clamped to ≤ 590 before the cast)
                (true, d.max(1))
            }
        }
        // The two-SBE path always records (it is the driver's own
        // bookkeeping, no crash race).
        RetirementCause::MultipleSingleBitErrors => (true, rng.gen_range(1..120)),
    };
    let emitted = emitted && t + delay < window;
    let rid = obs.retirement(parent, t, u64::from(card), || {
        format!("retire cause={cause:?} emitted={emitted}")
    });
    out.truth.retirements.push(RetireTruth {
        time: t,
        card,
        cause,
        emitted,
    });
    if emitted {
        // The XID 63 line the SEC will see lands `delay` seconds after
        // the triggering fault.
        // lint: allow(N1, usize to u64 is lossless on 64-bit targets)
        let seq = payloads.len() as u64;
        payloads.push(Ev::RetireRecord { card, trace: rid });
        heap.push(Reverse((t + delay, 1, seq)));
        obs.heap_push(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn quick_run(days: u64, seed: u64) -> SimOutput {
        Simulator::new(SimConfig::quick(days, seed))
            .expect("valid config")
            .run()
    }

    #[test]
    fn deterministic_across_runs() {
        let a = quick_run(14, 7);
        let b = quick_run(14, 7);
        assert_eq!(a.console, b.console);
        assert_eq!(a.jobs, b.jobs);
        assert_eq!(a.truth.sbe_by_card, b.truth.sbe_by_card);
    }

    #[test]
    fn different_seeds_differ() {
        let a = quick_run(14, 1);
        let b = quick_run(14, 2);
        assert_ne!(a.console, b.console);
    }

    #[test]
    fn console_sorted_and_strictly_inside_window() {
        let out = quick_run(20, 3);
        assert!(out.console.windows(2).all(|w| w[0].time <= w[1].time));
        // The horizon rule is strict: job-wide skew is clamped and heap
        // events at/after the window are dropped, so nothing may land at
        // or past it.
        assert!(out.console.iter().all(|e| e.time < 20 * 86_400));
    }

    #[test]
    fn sbes_never_in_console_log() {
        let out = quick_run(30, 5);
        assert!(out
            .console
            .iter()
            .all(|e| e.kind != GpuErrorKind::SingleBitError));
        // But SBEs did happen.
        let total: u64 = out.truth.sbe_by_card.iter().sum();
        assert!(total > 100, "sbe total {total}");
    }

    #[test]
    fn sbe_visible_through_snapshots() {
        let out = quick_run(30, 5);
        let snap_total: u64 = out.final_snapshots.iter().map(|s| s.total_sbe()).sum();
        assert!(snap_total > 0);
        // Snapshot totals can undercount truth (crash-lost pending) but
        // never exceed it.
        let truth_total: u64 = out.truth.sbe_by_card.iter().sum();
        assert!(snap_total <= truth_total, "{snap_total} vs {truth_total}");
    }

    #[test]
    fn dbe_crashes_running_job() {
        let out = quick_run(60, 11);
        // At least one DBE struck a busy node; its job record must end at
        // the DBE time.
        let crashed: Vec<_> = out
            .truth
            .dbe
            .iter()
            .filter_map(|d| d.crashed_apid.map(|a| (a, d.time)))
            .collect();
        assert!(!crashed.is_empty(), "no DBE hit a running job in 60 days");
        for (apid, t) in crashed {
            let job = out.jobs.iter().find(|j| j.apid == apid).expect("job record");
            assert_eq!(job.end, t, "job must end at the DBE");
        }
    }

    #[test]
    fn app_xids_replicate_across_job_nodes() {
        let out = quick_run(30, 13);
        let x13 = out.console_of_kind(GpuErrorKind::GraphicsEngineException);
        assert!(!x13.is_empty());
        // Group by apid: each incident must cover > 1 node for multi-node
        // jobs and span ≤ 5 s.
        let mut by_apid: std::collections::HashMap<u64, Vec<&ConsoleEvent>> = Default::default();
        for e in &x13 {
            if let Some(a) = e.apid {
                by_apid.entry(a).or_default().push(e);
            }
        }
        let mut multi = 0;
        for (apid, evs) in &by_apid {
            let job = out.jobs.iter().find(|j| j.apid == *apid);
            if let Some(job) = job {
                let nodes: std::collections::HashSet<NodeId> =
                    evs.iter().map(|e| e.node).collect();
                if job.nodes.len() > 1 {
                    assert!(nodes.len() > 1, "apid {apid} reported on one node only");
                    multi += 1;
                }
                let lo = evs.iter().map(|e| e.time).min().unwrap();
                let hi = evs.iter().map(|e| e.time).max().unwrap();
                assert!(hi - lo <= calibration::APP_XID_NODE_SPREAD_SEC);
            }
        }
        assert!(multi > 0, "no multi-node XID 13 incident observed");
    }

    #[test]
    fn no_retirement_before_jan14_driver() {
        // Full-window features need the real window; run 8 months.
        let out = quick_run(240, 17);
        let cut = calibration::retirement_xid_introduced();
        for e in out.console_of_kind(GpuErrorKind::EccPageRetirement) {
            assert!(e.time >= cut, "retirement record at {} < {cut}", e.time);
        }
        for r in &out.truth.retirements {
            assert!(r.time >= cut);
        }
    }

    /// Regression (pre-Jan'14 state): before the driver feature exists,
    /// not only must no retirement *record* appear — the cards' page
    /// tables themselves must stay empty. Previously `apply_dbe` /
    /// `apply_sbe` mutated retirement state unconditionally and only the
    /// console record was gated, so snapshots of a pre-Jan'14 window
    /// showed retired pages months before the feature shipped.
    #[test]
    fn pre_jan14_window_has_zero_retired_pages_in_snapshots() {
        let days = 200;
        assert!(days * 86_400 < calibration::retirement_xid_introduced());
        let out = quick_run(days, 17);
        // DBEs on device memory did happen — the retirement trigger was
        // exercised, not just absent.
        assert!(out
            .truth
            .dbe
            .iter()
            .any(|d| d.structure == MemoryStructure::DeviceMemory));
        assert!(out.truth.retirements.is_empty());
        for s in &out.final_snapshots {
            assert_eq!(
                s.retired_pages,
                (0, 0),
                "node {:?} retired pages before the Jan'14 driver",
                s.node
            );
        }
    }

    /// Regression (horizon truth/console agreement): every retirement
    /// truth record marked `emitted` must have exactly one XID 63 line
    /// in the console log. Previously a record whose delay landed past
    /// the window was dropped silently while truth still claimed it.
    /// (Hot-spare policy off so no card leaves production, the one other
    /// legitimate way a scheduled record can vanish.)
    #[test]
    fn emitted_retirements_all_have_console_records() {
        let mut cfg = SimConfig::quick(300, 41);
        cfg.enable_hot_spare_policy = false;
        let out = Simulator::new(cfg).unwrap().run();
        assert!(!out.truth.retirements.is_empty(), "no retirements in 300 days");
        let emitted = out.truth.retirements.iter().filter(|r| r.emitted).count();
        let records = out
            .console_of_kind(GpuErrorKind::EccPageRetirement)
            .len();
        assert_eq!(
            emitted, records,
            "truth claims {emitted} emitted records, console has {records}"
        );
    }

    /// Regression (horizon rule in schedule_retirement): a retirement
    /// right at the edge of the window can never emit — its record
    /// would land at/after the horizon.
    #[test]
    fn retirement_at_window_edge_is_marked_unemitted() {
        let mut heap = BinaryHeap::new();
        let mut payloads: Vec<Ev> = Vec::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = SimOutput::default();
        let window = 86_400;
        // The two-SBE path always wants to record, with delay ≥ 1 — at
        // t = window - 1 the record must be suppressed and truth must
        // say so.
        schedule_retirement(
            window - 1,
            window,
            7,
            RetirementCause::MultipleSingleBitErrors,
            0,
            &mut heap,
            &mut payloads,
            &mut rng,
            &mut out,
            &mut Obs::disabled(),
        );
        assert_eq!(out.truth.retirements.len(), 1);
        assert!(!out.truth.retirements[0].emitted);
        assert!(heap.is_empty(), "no console record may be scheduled");
        // Far from the horizon the same path emits.
        schedule_retirement(
            1000,
            window,
            7,
            RetirementCause::MultipleSingleBitErrors,
            0,
            &mut heap,
            &mut payloads,
            &mut rng,
            &mut out,
            &mut Obs::disabled(),
        );
        assert!(out.truth.retirements[1].emitted);
        assert_eq!(heap.len(), 1);
    }

    /// Regression (hot-spare swap mis-targeting): a swap scheduled for
    /// card A in slot S must not fire if the slot was serviced in the
    /// meantime — the card now in S is an innocent replacement.
    #[test]
    fn swap_fire_check_rejects_stale_schedules() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut fleet = Fleet::new(4, &mut rng);
        let slot = 10;
        let offender = fleet.card_at_slot(slot);
        // Offender crosses the pull threshold.
        for _ in 0..calibration::CARD_PULL_DBE_THRESHOLD {
            fleet
                .card_mut(offender)
                .apply_dbe(MemoryStructure::DeviceMemory, None, true, true);
        }
        assert!(
            swap_fire_check(&fleet, slot, offender),
            "live schedule must pass"
        );

        // Slot serviced before the maintenance window fires: the
        // offender leaves, a spare moves in.
        let (old, replacement) = fleet.swap_out(slot).unwrap();
        assert_eq!(old, offender);
        // The stale schedule must now be rejected: the offender is gone
        // and the replacement must not be pulled in its stead.
        assert!(
            !swap_fire_check(&fleet, slot, offender),
            "stale schedule pulled an innocent card"
        );
        assert_eq!(fleet.card_at_slot(slot), replacement);
        assert_eq!(fleet.card(replacement).lifetime_dbe, 0);
    }

    /// Fire-time spare-pool check: a swap scheduled while spares existed
    /// must not fire after the pool drained.
    #[test]
    fn swap_fire_check_requires_spares_at_fire_time() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut fleet = Fleet::new(1, &mut rng);
        let slot = 3;
        let offender = fleet.card_at_slot(slot);
        for _ in 0..calibration::CARD_PULL_DBE_THRESHOLD {
            fleet
                .card_mut(offender)
                .apply_dbe(MemoryStructure::DeviceMemory, None, true, true);
        }
        assert!(swap_fire_check(&fleet, slot, offender));
        // Another slot consumes the last spare first.
        fleet.swap_out(77).unwrap();
        assert_eq!(fleet.n_spares(), 0);
        assert!(
            !swap_fire_check(&fleet, slot, offender),
            "swap fired with an empty spare pool"
        );
    }

    /// Engine-level invariant: every executed swap pulled a card that
    /// had crossed the DBE pull threshold by the swap time (no innocent
    /// replacement is ever pulled).
    #[test]
    fn every_swap_pulls_a_threshold_offender() {
        let mut cfg = SimConfig::quick(120, 23);
        cfg.enable_hot_spare_policy = true;
        let out = Simulator::new(cfg).unwrap().run();
        for s in &out.truth.swaps {
            let dbe_before_swap = out
                .truth
                .dbe
                .iter()
                .filter(|d| d.card == s.old_card && d.time <= s.time)
                .count() as u32;
            assert!(
                dbe_before_swap >= calibration::CARD_PULL_DBE_THRESHOLD,
                "swap at t={} pulled card {} with only {} DBEs",
                s.time,
                s.old_card,
                dbe_before_swap
            );
        }
    }

    #[test]
    fn hot_spare_policy_pulls_repeat_offenders() {
        // Crank DBEs by running long enough; with MTBF 160 h a 120-day
        // window yields ~18 DBEs — repeat offenders are unlikely, so
        // check the mechanism directly instead through config toggle.
        let mut cfg = SimConfig::quick(120, 23);
        cfg.enable_hot_spare_policy = true;
        let out = Simulator::new(cfg).unwrap().run();
        for s in &out.truth.swaps {
            // Every swap was justified by the threshold.
            assert!(s.old_card != s.new_card);
        }
        // Swaps only happen when some card hit 2 DBEs; consistency check:
        let mut dbe_per_card: std::collections::HashMap<u32, u32> = Default::default();
        for d in &out.truth.dbe {
            *dbe_per_card.entry(d.card).or_default() += 1;
        }
        let repeat_cards = dbe_per_card.values().filter(|&&c| c >= 2).count();
        assert!(out.truth.swaps.len() <= repeat_cards.max(1));
    }

    #[test]
    fn toggles_suppress_their_streams() {
        let mut cfg = SimConfig::quick(30, 29);
        cfg.enable_dbe = false;
        cfg.enable_otb = false;
        cfg.enable_software = false;
        let out = Simulator::new(cfg).unwrap().run();
        assert!(out.truth.dbe.is_empty());
        assert!(out.truth.otb.is_empty());
        assert!(out
            .console
            .iter()
            .all(|e| e.kind == GpuErrorKind::EccPageRetirement));
        // SBEs still flow.
        assert!(out.truth.sbe_by_card.iter().sum::<u64>() > 0);
    }

    #[test]
    fn job_records_cover_started_jobs() {
        let out = quick_run(20, 31);
        assert!(!out.jobs.is_empty());
        // apids unique.
        let mut apids: Vec<u64> = out.jobs.iter().map(|j| j.apid).collect();
        apids.sort_unstable();
        let n = apids.len();
        apids.dedup();
        assert_eq!(apids.len(), n);
        // Every job record has a matching SBE delta.
        assert_eq!(out.jobs.len(), out.job_sbe.len());
    }

    /// The flight recorder is a pure observer: running with the trace
    /// stream on produces a byte-identical [`SimOutput`], and the
    /// stream's console-id alignment recovers the exact post-sort
    /// console order.
    #[test]
    fn tracing_never_perturbs_the_run() {
        let cfg = SimConfig::quick(20, 19);
        let plain = Simulator::new(cfg.clone()).unwrap().run();
        let mut obs = Obs::disabled();
        obs.enable_trace();
        let traced = Simulator::new(cfg).unwrap().run_with(&mut obs);
        assert_eq!(plain.console, traced.console);
        assert_eq!(plain.jobs, traced.jobs);
        assert_eq!(plain.truth.sbe_by_card, traced.truth.sbe_by_card);
        assert!(!obs.stream.records().is_empty(), "stream recorded nothing");
        // Alignment: console-line record i describes console line i.
        let ids = obs.stream.console_ids_in_log_order();
        assert_eq!(ids.len(), traced.console.len());
        let by_id: std::collections::HashMap<u64, &titan_obs::TraceRecord> =
            obs.stream.records().iter().map(|r| (r.id, r)).collect();
        for (i, line) in traced.console.iter().enumerate() {
            let rec = by_id[&ids[i]];
            assert_eq!(rec.ts, line.time, "console record {i} time mismatch");
            assert_eq!(rec.node, Some(u64::from(line.node.0)));
            assert_eq!(rec.apid, line.apid);
        }
    }

    /// Every retirement in the trace walks back to an injected fault
    /// draft (engine-side provenance; the SEC/nvsmi legs are stitched at
    /// collect time and verified in the runner tests).
    #[test]
    fn engine_trace_chains_verify() {
        // Retirements only exist after the Jan'14 driver (~7 months in),
        // so use a window long enough to produce terminal records.
        let mut obs = Obs::disabled();
        obs.enable_trace();
        let out = Simulator::new(SimConfig::quick(240, 17))
            .unwrap()
            .run_with(&mut obs);
        let text = obs.stream.render_jsonl(17, 240);
        let (h, r) = titan_obs::parse_trace(&text).expect("parse");
        let rep = titan_obs::verify_trace(&h, &r);
        assert!(rep.ok(), "{:?}", rep.errors);
        assert!(rep.chains_walked > 0, "no terminal records in 240 days");
        // draft -> engine event -> retirement is depth 3 minimum.
        assert!(rep.max_depth >= 3, "max depth {}", rep.max_depth);
        assert!(!out.truth.retirements.is_empty());
    }

    #[test]
    fn otb_never_repeats_on_same_card() {
        let out = quick_run(120, 37);
        let mut seen = std::collections::HashSet::new();
        for o in &out.truth.otb {
            assert!(seen.insert(o.card), "card {} had two OTBs", o.card);
        }
        assert!(!out.truth.otb.is_empty(), "no OTB in 120 epidemic days");
    }

    /// Hand-built jobs: job `i` has apid `i` and runs on `slots[i]`, in
    /// that node order.
    fn hand_schedule(fleet: &Fleet, slots: &[&[u32]]) -> WorkloadSchedule {
        let jobs = (0u64..)
            .zip(slots)
            .map(|(apid, slots)| ScheduledJob {
                spec: titan_workload::JobSpec {
                    apid,
                    user: 1,
                    nodes: slots.len() as u32,
                    submit: 100,
                    wall: 1_000,
                    mem_max_bytes: 0,
                    gpu_util: 1.0,
                    is_debug: false,
                },
                start: 100,
                end: 1_100,
                nodes: slots.iter().map(|&s| fleet.node_of_slot(s)).collect(),
            })
            .collect();
        WorkloadSchedule { jobs, dropped: 0 }
    }

    /// The eager reference's nvidia-smi reading of every node of `job`.
    fn read_all(fleet: &Fleet, job: &ScheduledJob) -> Vec<GpuSnapshot> {
        job.nodes
            .iter()
            .map(|&n| {
                let slot = node_to_gpu_index(n).expect("compute node");
                GpuSnapshot::take(n, fleet.card(fleet.card_at_slot(slot)), 0)
            })
            .collect()
    }

    /// Runs one hand-built job on `slots` (job node order) twice over
    /// the same fleet history: through the engine's copy-on-first-write
    /// [`JobTable`], and through the eager [`titan_nvsmi::JobSnapshotFramework`]
    /// reference, which snapshots every node before and after the job.
    /// `before` shapes the fleet ahead of the job, `during` mutates it
    /// through the engine's counter-changing paths while the job runs.
    /// Asserts the two deltas are equal and returns the engine's.
    fn differential(
        slots: &[u32],
        before: impl FnOnce(&mut Fleet),
        during: impl FnOnce(&mut JobTable, &mut Fleet),
    ) -> JobEccDelta {
        let mut fleet = Fleet::new(1, &mut StdRng::seed_from_u64(9));
        before(&mut fleet);
        let schedule = hand_schedule(&fleet, &[slots]);
        let job = &schedule.jobs[0];
        let mut reference = titan_nvsmi::JobSnapshotFramework::new();
        reference.record_pre(0, read_all(&fleet, job));

        let mut obs = Obs::disabled();
        let mut out = SimOutput::default();
        let mut jobs = JobTable::new(1);
        jobs.start(0, job);
        during(&mut jobs, &mut fleet);
        jobs.end(0, 1_100, &schedule, &fleet, &mut out, &mut obs);

        let want = reference
            .complete(0, &read_all(&fleet, job))
            .expect("same nodes before and after");
        assert_eq!(out.job_sbe, vec![want]);
        out.job_sbe.remove(0)
    }

    fn node_sbe(d: &JobEccDelta, slot: u32) -> u64 {
        let node = titan_topology::gpu_index_to_node(slot);
        d.per_node_sbe
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(0, |&(_, c)| c)
    }

    /// Nodes whose counters never change during the job keep their
    /// dense zero rows, in job node order.
    #[test]
    fn untouched_nodes_emit_zero_rows() {
        let slots = [7, 2, 5, 0];
        let d = differential(
            &slots,
            |fleet| {
                // History from before the job must not count.
                for _ in 0..3 {
                    fleet
                        .card_mut(2)
                        .apply_sbe(MemoryStructure::L2Cache, None, true);
                }
            },
            |_, _| {},
        );
        let order: Vec<u32> = d.per_node_sbe.iter().map(|(n, _)| n.0).collect();
        let want: Vec<u32> = slots
            .iter()
            .map(|&s| titan_topology::gpu_index_to_node(s).0)
            .collect();
        assert_eq!(order, want);
        assert_eq!(d.total_sbe(), 0);
    }

    /// SBEs during the job count once per error, per structure.
    #[test]
    fn mid_job_sbes_are_attributed() {
        let d = differential(
            &[7, 2, 5, 0],
            |_| {},
            |jobs, fleet| {
                jobs.apply_sbe(fleet, 5, MemoryStructure::L2Cache, None, true);
                jobs.apply_sbe(fleet, 5, MemoryStructure::L2Cache, None, true);
                jobs.apply_sbe(fleet, 0, MemoryStructure::DeviceMemory, None, true);
            },
        );
        assert_eq!(node_sbe(&d, 5), 2);
        assert_eq!(node_sbe(&d, 0), 1);
        assert_eq!(d.total_sbe(), 3);
    }

    /// SBEs still pending from before the job are lost to a crash reload
    /// while it runs: the delta saturates at zero instead of crediting
    /// the job with the re-accumulated count (the undercount pathology).
    #[test]
    fn crash_reload_mid_job_saturates() {
        let d = differential(
            &[3, 4],
            |fleet| {
                for _ in 0..3 {
                    fleet
                        .card_mut(3)
                        .apply_sbe(MemoryStructure::L2Cache, None, true);
                }
            },
            |jobs, fleet| {
                jobs.driver_reload(fleet, 3, false);
                jobs.apply_sbe(fleet, 3, MemoryStructure::L2Cache, None, true);
                jobs.apply_sbe(fleet, 3, MemoryStructure::L2Cache, None, true);
                jobs.apply_sbe(fleet, 3, MemoryStructure::RegisterFile, None, true);
            },
        );
        // L2: 3 before, 2 after → 0; register file: 0 → 1.
        assert_eq!(node_sbe(&d, 3), 1);
        assert_eq!(d.structure_sbe(MemoryStructure::L2Cache), 0);
    }

    /// An orderly reload or a flush moves pending SBEs into the
    /// aggregate without changing what nvidia-smi reports: nothing is
    /// counted twice.
    #[test]
    fn orderly_reload_mid_job_counts_once() {
        let d = differential(
            &[3, 4],
            |fleet| {
                fleet
                    .card_mut(4)
                    .apply_sbe(MemoryStructure::L2Cache, None, true);
            },
            |jobs, fleet| {
                jobs.apply_sbe(fleet, 4, MemoryStructure::L2Cache, None, true);
                let card = fleet.card_at_slot(4);
                fleet.card_mut(card).inforom.flush_sbe();
                jobs.apply_sbe(fleet, 4, MemoryStructure::L2Cache, None, true);
                jobs.driver_reload(fleet, 4, true);
            },
        );
        assert_eq!(node_sbe(&d, 4), 2);
        assert_eq!(d.total_sbe(), 2);
    }

    /// A hot-spare swap mid-job puts a different card under the node:
    /// the epilogue reads the new card against the pulled card's
    /// prologue reading. The spare arrives with more reported SBEs than
    /// the card it replaces, so a swap that skipped the prologue copy
    /// would credit the job with 0 instead of the difference.
    #[test]
    fn hot_spare_swap_mid_job_diffs_against_the_pulled_card() {
        let spare = u32::try_from(titan_topology::COMPUTE_NODES).expect("fits");
        let d = differential(
            &[9, 6],
            |fleet| {
                fleet
                    .card_mut(9)
                    .apply_sbe(MemoryStructure::L2Cache, None, true);
                for _ in 0..5 {
                    fleet
                        .card_mut(spare)
                        .apply_sbe(MemoryStructure::L2Cache, None, true);
                }
                fleet
                    .card_mut(spare)
                    .apply_sbe(MemoryStructure::DeviceMemory, None, true);
            },
            |jobs, fleet| {
                assert_eq!(jobs.swap_out(fleet, 9), Some((9, spare)));
                jobs.apply_sbe(fleet, 9, MemoryStructure::RegisterFile, None, true);
            },
        );
        // L2 1 → 5, device memory 0 → 1, register file 0 → 1.
        assert_eq!(node_sbe(&d, 9), 6);
        assert_eq!(node_sbe(&d, 6), 0);
    }

    /// A queued job starts in the same second its predecessor releases
    /// a shared node, and starts dispatch before same-second ends: for
    /// that second both jobs hold the node, and the eager prologue and
    /// epilogue credit an SBE landing then to both.
    #[test]
    fn same_second_handoff_credits_both_jobs() {
        let mut fleet = Fleet::new(1, &mut StdRng::seed_from_u64(9));
        let schedule = hand_schedule(&fleet, &[&[1, 2], &[2, 3]]);
        let (a, b) = (&schedule.jobs[0], &schedule.jobs[1]);
        let mut reference = titan_nvsmi::JobSnapshotFramework::new();
        let mut obs = Obs::disabled();
        let mut out = SimOutput::default();
        let mut jobs = JobTable::new(2);
        let mut want = Vec::new();

        reference.record_pre(0, read_all(&fleet, a));
        jobs.start(0, a);
        jobs.apply_sbe(&mut fleet, 1, MemoryStructure::L2Cache, None, true);
        // The handoff second: B starts, an SBE lands on the shared
        // node, then A ends.
        reference.record_pre(1, read_all(&fleet, b));
        jobs.start(1, b);
        jobs.apply_sbe(&mut fleet, 2, MemoryStructure::L2Cache, None, true);
        want.extend(reference.complete(0, &read_all(&fleet, a)));
        jobs.end(0, 1_100, &schedule, &fleet, &mut out, &mut obs);
        jobs.apply_sbe(&mut fleet, 2, MemoryStructure::RegisterFile, None, true);
        want.extend(reference.complete(1, &read_all(&fleet, b)));
        jobs.end(1, 1_100, &schedule, &fleet, &mut out, &mut obs);

        assert_eq!(out.job_sbe, want);
        assert_eq!(out.job_sbe[0].total_sbe(), 2, "A: its own SBE and the handoff one");
        assert_eq!(out.job_sbe[1].total_sbe(), 2, "B: the handoff SBE and its own");
    }

    /// Checkpoint contract, engine level: pausing at a boundary,
    /// snapshotting, restoring into a fresh state, and finishing must
    /// equal the uninterrupted run exactly (the binary-level byte
    /// identity tests build on this).
    #[test]
    fn snapshot_resume_is_identical() {
        let cfg = SimConfig::quick(30, 7);
        let full = Simulator::new(cfg.clone()).expect("valid config").run();

        let t = 10 * 86_400;
        let mut st = EngineState::new(&cfg, &mut Obs::disabled());
        st.run_until(t, &mut Obs::disabled());
        let snap = st.snapshot(t);
        assert_eq!(snap.sim_time(), t);

        let mut resumed =
            EngineState::restore(&cfg, &snap, &mut Obs::disabled()).expect("restore");
        resumed.run_until(SimTime::MAX, &mut Obs::disabled());
        let out = resumed.finalize(&mut Obs::disabled());
        assert_eq!(full, out);
    }

    /// Snapshots chain: a snapshot taken later in a resumed run equals
    /// the snapshot the uninterrupted run takes at the same boundary —
    /// this is what lets `ckpt bisect` compare per-interval digests from
    /// two independent runs.
    #[test]
    fn snapshot_after_resume_matches_run_through() {
        let cfg = SimConfig::quick(30, 11);
        let t1 = 8 * 86_400;
        let t2 = 16 * 86_400;

        let mut a = EngineState::new(&cfg, &mut Obs::disabled());
        a.run_until(t1, &mut Obs::disabled());
        let snap1 = a.snapshot(t1);
        a.run_until(t2, &mut Obs::disabled());
        let direct = a.snapshot(t2);

        let mut b = EngineState::restore(&cfg, &snap1, &mut Obs::disabled()).expect("restore");
        b.run_until(t2, &mut Obs::disabled());
        let resumed = b.snapshot(t2);
        assert_eq!(direct, resumed);
    }

    /// Restore must refuse a snapshot taken under a different config:
    /// the regenerated setup would not line up with the captured tail.
    #[test]
    fn restore_rejects_mismatched_config() {
        let cfg = SimConfig::quick(10, 7);
        let mut st = EngineState::new(&cfg, &mut Obs::disabled());
        st.run_until(86_400, &mut Obs::disabled());
        let snap = st.snapshot(86_400);

        let other = SimConfig::quick(40, 7);
        let err = EngineState::restore(&other, &snap, &mut Obs::disabled());
        assert!(err.is_err(), "restore accepted a mismatched config");
    }

    /// The divergence probe visibly corrupts the run (it steals one RNG
    /// draw), and a resumed run does not repeat the burn — the injected
    /// nondeterminism `ckpt bisect` exists to localize.
    #[test]
    fn divergence_probe_changes_the_output() {
        let cfg = SimConfig::quick(30, 13);
        let base = Simulator::new(cfg.clone()).expect("valid config").run();

        let mut st = EngineState::new(&cfg, &mut Obs::disabled());
        st.set_divergence_probe(Some(5 * 86_400));
        st.run_until(SimTime::MAX, &mut Obs::disabled());
        let diverged = st.finalize(&mut Obs::disabled());
        assert_ne!(base.console, diverged.console);
    }
}
