//! # titan-conlog
//!
//! The logging substrate of the study — everything the paper's §2.2
//! ("GPU Errors, Collection and Analysis Methodology") says about how
//! Titan's data was captured:
//!
//! > "The console logs from the Titan supercomputer are parsed using
//! > simple event correlators (SEC) on software management workstations
//! > (SMW) to log critical system events."
//!
//! * [`time`] — the study calendar, Jun 2013 – Feb 2015, with simulation
//!   time ⇄ wall-clock conversions and the month axis used by every
//!   monthly-frequency figure.
//! * [`record`] — the typed console event (node, XID, structure, apid).
//! * [`mod@format`] — the text wire format: rendering events to console-log
//!   lines and the robust parser the analysis pipeline uses. Parsing is
//!   total: garbage lines are counted, never panicked on.
//! * [`sec`] — a simple-event-correlator rule engine: per-card DBE
//!   thresholds, cluster alarms, duplicate suppression — the operator-side
//!   alerting the paper describes.
//! * [`joblog`] — batch job records (user, node list, walltime, GPU
//!   core-hours, memory) matching the job-log + RUR utilization sources
//!   the correlation study (§4) joins against.
//!
//! The crate is deliberately independent of the simulator: the analysis
//! pipeline consumes *only* these formats, mirroring how the paper's
//! authors only saw logs, never ground truth.
//!
//! ## Writers and buffer sizing
//!
//! Every study renders its logs to text and parses them back, so the
//! writers and readers here run once per record over millions of
//! records. They allocate nothing per record:
//!
//! * [`write_line`], [`JobRecord::write_to`] and [`Aprun::write_to`]
//!   append one line to a caller's `fmt::Write` sink (a `String`, or a
//!   hasher); [`write_log`], [`write_job_log`] and [`write_aprun_log`]
//!   append a whole log. A job's node ids are put in ascending order
//!   through a slot bitmap on the stack, not a sorted copy.
//! * The `render*` functions are those writers on a buffer allocated
//!   once at its final size: `capacity() == len()`, pinned by tests.
//!   [`rendered_len`] and [`JobRecord::rendered_len`] give a line's
//!   exact length without building it.
//! * [`parse_line`] walks the `key=value` attributes in place,
//!   [`format::parse_stream`] sizes its event buffer from the line count
//!   (capped by the shortest possible event line, so blank-line input
//!   reserves no more than its own length),
//!   and [`joblog::expand_ranges`] validates and counts a node list before
//!   allocating it once — refusing ids past the machine's slots.
//!
//! Writers and readers are exact inverses; no byte of any log depends
//! on which of these paths produced it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod joblog;
pub mod record;
pub mod sec;
pub mod time;

pub use format::{
    parse_line, render_line, render_log, rendered_len, write_line, write_log, ParseStats,
};
pub use joblog::{
    render_aprun_log, render_job_log, write_aprun_log, write_job_log, Aprun, JobLogError,
    JobRecord,
};
pub use record::{ConsoleEvent, Severity};
pub use sec::{SecAction, SecEngine, SecRule, SecStats};
pub use time::{SimTime, StudyCalendar, STUDY_MONTHS, STUDY_SECONDS};
