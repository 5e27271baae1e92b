//! Batch-job log records — the job-log + RUR (resource utilization
//! reporting) data source of the paper's §4.
//!
//! Each completed batch job leaves one record carrying exactly the fields
//! the correlation study uses: user, node allocation, wall clock, GPU
//! core-hours, and maximum/total GPU memory consumption. Node allocations
//! are rendered as compact id ranges (`17-40,96,112-143`) because Titan
//! jobs routinely span thousands of nodes.
//!
//! [`JobRecord::write_to`] and [`Aprun::write_to`] append one line to any
//! infallible `fmt::Write` sink; [`write_job_log`] and [`write_aprun_log`]
//! append a whole log. The `render*` functions size their `String` from
//! the exact line lengths first, so every buffer they return has
//! `capacity() == len()`. [`expand_ranges`] refuses any id at or past
//! `TOTAL_SLOTS` while counting, before it allocates.

use std::fmt;

use serde::{Deserialize, Serialize};
use titan_topology::{NodeId, TOTAL_SLOTS};

use crate::format::digits;
use crate::time::SimTime;

/// One completed batch job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// ALPS application id.
    pub apid: u64,
    /// Submitting user (the paper uses userID "as a proxy for the kind of
    /// application", Observation 13).
    pub user: u32,
    /// Allocated compute nodes.
    pub nodes: Vec<NodeId>,
    /// Job start.
    pub start: SimTime,
    /// Job end.
    pub end: SimTime,
    /// GPU core-hours consumed (busy cores × hours, summed over nodes).
    pub gpu_core_hours: f64,
    /// Peak per-node GPU memory footprint, bytes.
    pub max_memory_bytes: u64,
    /// Integrated GPU memory consumption, byte-hours across all nodes.
    pub total_memory_byte_hours: f64,
}

impl JobRecord {
    /// Wall-clock duration, seconds.
    pub fn wall_seconds(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Node count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node-hours (nodes × wall-clock hours).
    pub fn node_hours(&self) -> f64 {
        self.node_count() as f64 * self.wall_seconds() as f64 / 3600.0
    }

    /// Renders one job-log line.
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(self.rendered_len());
        self.write_to(&mut s);
        s
    }

    /// Appends the [`render`](Self::render) text to `out` (no trailing
    /// newline) without allocating. Node ids are written as ascending,
    /// de-duplicated ranges whatever their order in `nodes`.
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) {
        self.write_head(out);
        write_ranges(out, &self.nodes);
    }

    /// Exact byte length of [`render`](Self::render): the fields before
    /// the node ranges are counted through a byte-counting sink (so `{:.4}`
    /// rounding is exact), the ranges from their digit counts.
    pub fn rendered_len(&self) -> usize {
        let mut head = ByteCount(0);
        self.write_head(&mut head);
        head.0 + ranges_len(&self.nodes)
    }

    /// Everything before the node ranges.
    fn write_head<W: fmt::Write + ?Sized>(&self, out: &mut W) {
        let _ = write!(
            out,
            "JOB apid={} user={} start={} end={} gpu_core_hours={:.4} max_mem={} total_mem_bh={:.4} nodes=",
            self.apid,
            self.user,
            self.start,
            self.end,
            self.gpu_core_hours,
            self.max_memory_bytes,
            self.total_memory_byte_hours,
        );
    }

    /// Parses a [`render`](Self::render)ed line.
    pub fn parse(line: &str) -> Result<JobRecord, JobLogError> {
        let err = |what: &str| JobLogError {
            what: what.to_string(),
            line: line.chars().take(120).collect(),
        };
        let rest = line.trim().strip_prefix("JOB ").ok_or_else(|| err("missing JOB prefix"))?;
        let mut apid = None;
        let mut user = None;
        let mut start = None;
        let mut end = None;
        let mut gch = None;
        let mut max_mem = None;
        let mut total_mem = None;
        let mut nodes = None;
        for field in rest.split_ascii_whitespace() {
            let (k, v) = field.split_once('=').ok_or_else(|| err("field without ="))?;
            match k {
                "apid" => apid = Some(v.parse().map_err(|_| err("bad apid"))?),
                "user" => user = Some(v.parse().map_err(|_| err("bad user"))?),
                "start" => start = Some(v.parse().map_err(|_| err("bad start"))?),
                "end" => end = Some(v.parse().map_err(|_| err("bad end"))?),
                "gpu_core_hours" => gch = Some(v.parse().map_err(|_| err("bad gpu_core_hours"))?),
                "max_mem" => max_mem = Some(v.parse().map_err(|_| err("bad max_mem"))?),
                "total_mem_bh" => {
                    total_mem = Some(v.parse().map_err(|_| err("bad total_mem_bh"))?)
                }
                "nodes" => nodes = Some(expand_ranges(v).ok_or_else(|| err("bad nodes"))?),
                _ => return Err(err("unknown field")),
            }
        }
        Ok(JobRecord {
            apid: apid.ok_or_else(|| err("missing apid"))?,
            user: user.ok_or_else(|| err("missing user"))?,
            nodes: nodes.ok_or_else(|| err("missing nodes"))?,
            start: start.ok_or_else(|| err("missing start"))?,
            end: end.ok_or_else(|| err("missing end"))?,
            gpu_core_hours: gch.ok_or_else(|| err("missing gpu_core_hours"))?,
            max_memory_bytes: max_mem.ok_or_else(|| err("missing max_mem"))?,
            total_memory_byte_hours: total_mem.ok_or_else(|| err("missing total_mem_bh"))?,
        })
    }
}

/// One `aprun` segment inside a batch job — ALPS launches these; §4 of
/// the paper: "the SBE counts can not be collected on a per aprun basis
/// instead it is collected on a job basis".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Aprun {
    /// Owning job's apid.
    pub apid: u64,
    /// Index within the job script, 0-based.
    pub index: u32,
    /// Segment start.
    pub start: SimTime,
    /// Segment end.
    pub end: SimTime,
}

impl Aprun {
    /// Segment length, seconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// Renders one aprun log line (the ALPS log format stand-in).
    pub fn render(&self) -> String {
        let mut s = String::with_capacity(self.rendered_len());
        self.write_to(&mut s);
        s
    }

    /// Appends the [`render`](Self::render) text to `out` (no trailing
    /// newline) without allocating.
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) {
        let _ = write!(
            out,
            "APRUN apid={} idx={} start={} end={}",
            self.apid, self.index, self.start, self.end
        );
    }

    /// Exact byte length of [`render`](Self::render).
    fn rendered_len(&self) -> usize {
        let mut len = ByteCount(0);
        self.write_to(&mut len);
        len.0
    }

    /// Parses a [`render`](Self::render)ed aprun line.
    pub fn parse(line: &str) -> Option<Aprun> {
        let rest = line.trim().strip_prefix("APRUN ")?;
        let mut apid = None;
        let mut index = None;
        let mut start = None;
        let mut end = None;
        for field in rest.split_ascii_whitespace() {
            let (k, v) = field.split_once('=')?;
            match k {
                "apid" => apid = v.parse().ok(),
                "idx" => index = v.parse().ok(),
                "start" => start = v.parse().ok(),
                "end" => end = v.parse().ok(),
                _ => return None,
            }
        }
        let (start, end) = (start?, end?);
        if end < start {
            return None; // inverted span: corrupt log line
        }
        Some(Aprun {
            apid: apid?,
            index: index?,
            start,
            end,
        })
    }
}

/// Job-log parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobLogError {
    /// What was wrong.
    pub what: String,
    /// Prefix of the offending line.
    pub line: String,
}

impl std::fmt::Display for JobLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job log parse error ({}) in {:?}", self.what, self.line)
    }
}

impl std::error::Error for JobLogError {}

/// Writes node ids as ascending, de-duplicated `a-b,c,d-e` ranges (`-`
/// when there are none).
fn write_ranges<W: fmt::Write + ?Sized>(out: &mut W, nodes: &[NodeId]) {
    if nodes.is_empty() {
        let _ = write!(out, "-");
        return;
    }
    let mut sep = "";
    runs(SlotSet::of(nodes).ids(), |first, last| {
        if first == last {
            let _ = write!(out, "{sep}{first}");
        } else {
            let _ = write!(out, "{sep}{first}-{last}");
        }
        sep = ",";
    });
}

/// Exact byte length of [`write_ranges`]'s text, from digit counts.
fn ranges_len(nodes: &[NodeId]) -> usize {
    if nodes.is_empty() {
        return 1;
    }
    // Counts a separator before every range; the first has none.
    let mut n = 0;
    runs(SlotSet::of(nodes).ids(), |first, last| {
        n += 1 + digits(u64::from(first));
        if first != last {
            n += 1 + digits(u64::from(last));
        }
    });
    n.saturating_sub(1)
}

/// Calls `f(first, last)` for each maximal run of consecutive ids in a
/// strictly ascending id stream.
fn runs(mut ids: impl Iterator<Item = u32>, mut f: impl FnMut(u32, u32)) {
    let Some(mut first) = ids.next() else { return };
    let mut last = first;
    for id in ids {
        if last + 1 != id {
            f(first, last);
            first = id;
        }
        last = id;
    }
    f(first, last);
}

/// Bitmap words covering every machine slot.
const SLOT_WORDS: usize = TOTAL_SLOTS.div_ceil(64);

/// A job's node ids as one bit per machine slot: setting the bits orders
/// and de-duplicates the ids in one pass, without a sorted copy.
struct SlotSet([u64; SLOT_WORDS]);

impl SlotSet {
    fn of(nodes: &[NodeId]) -> SlotSet {
        let mut words = [0u64; SLOT_WORDS];
        for n in nodes {
            // An id past the machine is a caller bug, as in
            // `NodeId::location`; release builds leave it out.
            debug_assert!(
                usize::try_from(n.0).is_ok_and(|id| id < TOTAL_SLOTS),
                "node id {} is past the machine's {TOTAL_SLOTS} slots",
                n.0
            );
            let word = usize::try_from(n.0 / 64).ok().and_then(|i| words.get_mut(i));
            if let Some(w) = word {
                *w |= 1u64 << (n.0 % 64);
            }
        }
        SlotSet(words)
    }

    /// The ids in the set, ascending.
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.0
            .iter()
            .zip((0u32..).step_by(64))
            .flat_map(|(&word, base)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let bit = bits.trailing_zeros();
                        bits &= bits - 1;
                        base + bit
                    })
                })
            })
    }
}

/// A `fmt::Write` sink that only counts bytes.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// Appends a whole job log to `out`, one newline-terminated line per job.
pub fn write_job_log<W: fmt::Write + ?Sized>(out: &mut W, jobs: &[JobRecord]) {
    for j in jobs {
        j.write_to(out);
        let _ = writeln!(out);
    }
}

/// Renders a whole job log into an exactly sized buffer.
pub fn render_job_log(jobs: &[JobRecord]) -> String {
    let len = jobs.iter().map(|j| j.rendered_len() + 1).sum();
    let mut s = String::with_capacity(len);
    write_job_log(&mut s, jobs);
    s
}

/// Appends a whole aprun log to `out`, one newline-terminated line per
/// segment.
pub fn write_aprun_log<W: fmt::Write + ?Sized>(out: &mut W, apruns: &[Aprun]) {
    for a in apruns {
        a.write_to(out);
        let _ = writeln!(out);
    }
}

/// Renders a whole aprun log into an exactly sized buffer.
pub fn render_aprun_log(apruns: &[Aprun]) -> String {
    let len = apruns.iter().map(|a| a.rendered_len() + 1).sum();
    let mut s = String::with_capacity(len);
    write_aprun_log(&mut s, apruns);
    s
}

/// Compresses sorted-or-not node ids to `a-b,c,d-e` ranges.
pub fn compress_ranges(nodes: &[NodeId]) -> String {
    let mut s = String::with_capacity(ranges_len(nodes));
    write_ranges(&mut s, nodes);
    s
}

/// Calls `f(first, last)` for each comma-separated part of a node list,
/// read as an inclusive id range (`a-b`, or `a` for `a-a`), in one scan
/// of the bytes. Stops with `None` at a malformed part, at a part that
/// is not `first <= last < TOTAL_SLOTS`, or when `f` returns `None`.
fn for_each_range(s: &str, mut f: impl FnMut(u32, u32) -> Option<()>) -> Option<()> {
    let mut first = None;
    let mut cur: Option<u32> = None;
    for b in s.bytes().chain(std::iter::once(b',')) {
        match b {
            b'0'..=b'9' => {
                let digit = u32::from(b - b'0');
                cur = Some(cur.unwrap_or(0).checked_mul(10)?.checked_add(digit)?);
            }
            b'-' if first.is_none() => first = Some(cur.take()?),
            b',' => {
                let last = cur.take()?;
                let first = first.take().unwrap_or(last);
                if first > last || usize::try_from(last).ok()? >= TOTAL_SLOTS {
                    return None;
                }
                f(first, last)?;
            }
            _ => return None,
        }
    }
    Some(())
}

/// Inverse of [`compress_ranges`]. A first pass validates every part and
/// counts the ids, so the result is allocated once at its exact size.
/// Ids at or past [`TOTAL_SLOTS`], and lists naming more ids in total
/// than the machine has slots, are rejected before anything is
/// allocated.
pub fn expand_ranges(s: &str) -> Option<Vec<NodeId>> {
    if s == "-" {
        return Some(Vec::new());
    }
    let mut count = 0usize;
    for_each_range(s, |first, last| {
        count += usize::try_from(last - first).ok()? + 1;
        (count <= TOTAL_SLOTS).then_some(())
    })?;
    let mut out = Vec::with_capacity(count);
    for_each_range(s, |first, last| {
        out.extend((first..=last).map(NodeId));
        Some(())
    })?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobRecord {
        JobRecord {
            apid: 1_048_576,
            user: 42,
            nodes: vec![NodeId(5), NodeId(6), NodeId(7), NodeId(100), NodeId(200), NodeId(201)],
            start: 1000,
            end: 8200,
            gpu_core_hours: 12.5,
            max_memory_bytes: 4 * 1024 * 1024 * 1024,
            total_memory_byte_hours: 1.5e12,
        }
    }

    #[test]
    fn derived_metrics() {
        let j = job();
        assert_eq!(j.wall_seconds(), 7200);
        assert_eq!(j.node_count(), 6);
        assert!((j.node_hours() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn render_parse_roundtrip() {
        let j = job();
        let line = j.render();
        let back = JobRecord::parse(&line).unwrap();
        assert_eq!(back, j);
    }

    #[test]
    fn range_compression() {
        assert_eq!(compress_ranges(&[]), "-");
        assert_eq!(compress_ranges(&[NodeId(5)]), "5");
        assert_eq!(
            compress_ranges(&[NodeId(5), NodeId(6), NodeId(7)]),
            "5-7"
        );
        // Unsorted with duplicates.
        assert_eq!(
            compress_ranges(&[NodeId(7), NodeId(5), NodeId(6), NodeId(5), NodeId(9)]),
            "5-7,9"
        );
    }

    #[test]
    fn range_expansion() {
        assert_eq!(expand_ranges("-"), Some(vec![]));
        assert_eq!(
            expand_ranges("5-7,9"),
            Some(vec![NodeId(5), NodeId(6), NodeId(7), NodeId(9)])
        );
        assert_eq!(expand_ranges("9-5"), None);
        assert_eq!(expand_ranges("abc"), None);
        assert_eq!(expand_ranges("1,,2"), None);
    }

    /// Node lists that name slots the machine does not have are refused
    /// while counting, before anything is allocated: `0-4294967295` used
    /// to ask for 4.3 billion ids and abort the process.
    #[test]
    fn range_expansion_rejects_ids_past_the_machine() {
        assert_eq!(expand_ranges("0-4294967295"), None);
        assert_eq!(expand_ranges("19200"), None);
        assert_eq!(expand_ranges("5-19200"), None);
        assert_eq!(expand_ranges("19199").map(|v| v.len()), Some(1));
        assert_eq!(expand_ranges("0-19199").map(|v| v.len()), Some(TOTAL_SLOTS));
        // Overlapping parts may not add up to more ids than slots either.
        assert_eq!(expand_ranges("0-19199,0"), None);
        let mut line = job().render();
        line.truncate(line.find("nodes=").unwrap());
        line.push_str("nodes=0-4294967295");
        let e = JobRecord::parse(&line).unwrap_err();
        assert_eq!(e.what, "bad nodes");
    }

    /// The computed job-line length must equal the rendered length,
    /// including floats whose rounding carries into a new digit and node
    /// lists that need sorting and de-duplication.
    #[test]
    fn rendered_len_matches_render() {
        let node_lists: [&[u32]; 6] = [
            &[],
            &[0],
            &[5, 6, 7, 100, 200, 201],
            &[201, 5, 7, 6, 200, 100, 5, 6],
            &[9, 10, 99, 100, 999, 1000, 9_999, 10_000, 19_199],
            &[19_199, 0, 19_198, 1],
        ];
        for ids in node_lists {
            for x in [
                0.0,
                9.99995,
                99.99999,
                -0.00004,
                -12.5,
                1.5e12,
                1e300,
                f64::NAN,
                f64::INFINITY,
            ] {
                for apid in [0u64, 9, 10, u64::MAX] {
                    let j = JobRecord {
                        apid,
                        nodes: ids.iter().map(|&i| NodeId(i)).collect(),
                        gpu_core_hours: x,
                        total_memory_byte_hours: -x,
                        ..job()
                    };
                    let line = j.render();
                    assert_eq!(j.rendered_len(), line.len(), "{line}");
                    assert_eq!(line.capacity(), line.len(), "{line}");
                }
            }
        }
    }

    #[test]
    fn aprun_rendered_len_matches_render() {
        for v in [0u64, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX] {
            let a = Aprun {
                apid: v,
                index: u32::try_from(v).unwrap_or(u32::MAX),
                start: v / 2,
                end: v,
            };
            let line = a.render();
            assert_eq!(a.rendered_len(), line.len(), "{line}");
            assert_eq!(line.capacity(), line.len(), "{line}");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(JobRecord::parse("not a job line").is_err());
        assert!(JobRecord::parse("JOB apid=1").is_err()); // missing fields
        assert!(JobRecord::parse("JOB apid=x user=1 start=0 end=1 gpu_core_hours=0 max_mem=0 total_mem_bh=0 nodes=1").is_err());
        let mut line = job().render();
        line.push_str(" rogue=1");
        assert!(JobRecord::parse(&line).is_err());
    }

    #[test]
    fn aprun_roundtrip() {
        let a = Aprun {
            apid: 1_048_577,
            index: 3,
            start: 777,
            end: 9_999,
        };
        assert_eq!(Aprun::parse(&a.render()), Some(a));
        assert_eq!(a.duration(), 9_222);
        assert_eq!(Aprun::parse("garbage"), None);
        assert_eq!(Aprun::parse("APRUN apid=1 idx=0 start=5"), None);
        // Inverted spans are corrupt, not negative-duration apruns.
        assert_eq!(Aprun::parse("APRUN apid=1 idx=0 start=10 end=5"), None);
    }

    #[test]
    fn error_display() {
        let e = JobRecord::parse("garbage").unwrap_err();
        let s = format!("{e}");
        assert!(s.contains("missing JOB prefix"), "{s}");
    }
}
