//! The console-log wire format.
//!
//! One event renders to one line, e.g.:
//!
//! ```text
//! [2013-09-14 03:22:41] c3-17c2s5n1 GPU Xid 48: Double Bit Error (detected by the SECDED ECC, but not corrected) struct="Device Memory" page=0x0001a2b3 apid=1048576
//! [2013-07-02 11:00:05] c0-4c2s1n3 GPU has fallen off the bus apid=77341
//! ```
//!
//! Rendering and parsing are exact inverses for every well-formed event;
//! the parser additionally tolerates (and counts) malformed lines, since
//! real console streams interleave GPU events with unrelated chatter.
//!
//! [`write_line`] appends a line, and [`write_log`] a whole log, to any
//! infallible `fmt::Write` sink without allocating; [`rendered_len`] is a
//! line's exact length, which sizes the [`render_line`] and
//! [`render_log`] buffers exactly.

use std::fmt::Write;

use bytes::BytesMut;
use titan_gpu::{GpuErrorKind, MemoryStructure, Xid};
use titan_topology::Location;

use crate::record::ConsoleEvent;
use crate::time::StudyCalendar;

/// Counters from a parsing pass over a log stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Lines that produced an event.
    pub parsed: u64,
    /// Lines skipped as non-GPU chatter or garbage.
    pub skipped: u64,
}

/// Renders one event as a console-log line (no trailing newline).
pub fn render_line(ev: &ConsoleEvent) -> String {
    let mut s = String::with_capacity(rendered_len(ev));
    write_line(&mut s, ev);
    s
}

/// Appends the [`render_line`] text of `ev` to `out` (no trailing
/// newline). Every field is written straight into `out`, so rendering
/// into a `String` or a hasher allocates nothing. `out` must be an
/// infallible sink; its errors are ignored.
pub fn write_line<W: Write + ?Sized>(out: &mut W, ev: &ConsoleEvent) {
    let _ = write!(out, "[");
    StudyCalendar.write_timestamp(out, ev.time);
    let _ = write!(out, "] {} ", ev.node.location());
    match ev.kind.xid() {
        Some(x) => {
            let _ = write!(out, "GPU Xid {x}: {}", ev.kind.description());
        }
        None => match ev.kind {
            GpuErrorKind::OffTheBus => {
                let _ = write!(out, "GPU has fallen off the bus");
            }
            // SBEs never appear in console logs; render defensively anyway.
            _ => {
                let _ = write!(out, "{}", ev.kind.description());
            }
        },
    }
    if let Some(st) = ev.structure {
        let _ = write!(out, " struct=\"{}\"", st.label());
    }
    if let Some(p) = ev.page {
        let _ = write!(out, " page=0x{p:08x}");
    }
    if let Some(a) = ev.apid {
        let _ = write!(out, " apid={a}");
    }
}

/// Appends a whole console log to `out`, one newline-terminated line per
/// event.
pub fn write_log<W: Write + ?Sized>(out: &mut W, events: &[ConsoleEvent]) {
    for ev in events {
        write_line(out, ev);
        let _ = writeln!(out);
    }
}

/// Renders a whole console log into a buffer sized exactly from
/// [`rendered_len`].
pub fn render_log(events: &[ConsoleEvent]) -> String {
    let len = events.iter().map(|ev| rendered_len(ev) + 1).sum();
    let mut s = String::with_capacity(len);
    write_log(&mut s, events);
    s
}

/// Decimal digit count of `v` (1 for zero).
pub(crate) fn digits(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

/// Exact byte length of [`render_line`] for `ev`, computed without
/// formatting or allocating. The titan-prof cost ledger charges console
/// bytes per event kind on the hot path, where rendering each line a
/// second time just to measure it would double the ledger's cost.
/// Pinned equal to `render_line(ev).len()` by the
/// `rendered_len_matches_render_line` test over the full event corpus.
pub fn rendered_len(ev: &ConsoleEvent) -> usize {
    // "[" + fixed 19-char timestamp + "] "
    let mut n = 1 + 19 + 2;
    // cname "c{col}-{row}c{cage}s{blade}n{node}" + trailing space.
    let loc = ev.node.location();
    n += 1
        + digits(u64::from(loc.col))
        + 1
        + digits(u64::from(loc.row))
        + 1
        + digits(u64::from(loc.cage))
        + 1
        + digits(u64::from(loc.blade))
        + 1
        + digits(u64::from(loc.node))
        + 1;
    match ev.kind.xid() {
        Some(x) => n += "GPU Xid ".len() + digits(u64::from(x.0)) + ": ".len() + ev.kind.description().len(),
        None => match ev.kind {
            GpuErrorKind::OffTheBus => n += "GPU has fallen off the bus".len(),
            _ => n += ev.kind.description().len(),
        },
    }
    if let Some(st) = ev.structure {
        n += " struct=\"".len() + st.label().len() + 1;
    }
    if ev.page.is_some() {
        n += " page=0x".len() + 8; // {:08x} of a u32 is always 8 hex digits
    }
    if let Some(a) = ev.apid {
        n += " apid=".len() + digits(a);
    }
    n
}

/// [`render_log`] as a byte buffer (takes over the `String`'s
/// allocation; nothing is copied).
pub fn render_stream(events: &[ConsoleEvent]) -> BytesMut {
    BytesMut::from(render_log(events).into_bytes())
}

/// Parses one console-log line. `None` for anything that is not a
/// GPU event line (the stream carries plenty of other traffic).
pub fn parse_line(line: &str) -> Option<ConsoleEvent> {
    let cal = StudyCalendar;
    let line = line.trim_end();
    // "[" ts "]" — fixed-width timestamp.
    let rest = line.strip_prefix('[')?;
    // Checked slicing: arbitrary console chatter may contain multi-byte
    // UTF-8 right where the timestamp should be.
    let ts = rest.get(..19)?;
    let time = cal.parse_timestamp(ts)?;
    let rest = rest.get(19..)?;
    let rest = rest.strip_prefix("] ")?;
    // cname up to next space.
    let sp = rest.find(' ')?;
    let (cname, rest) = rest.split_at(sp);
    let node = Location::parse_cname(cname).ok()?.node_id();
    let rest = &rest[1..];

    // Event body.
    let (kind, after): (GpuErrorKind, &str) = if let Some(r) = rest.strip_prefix("GPU Xid ") {
        let colon = r.find(':')?;
        let xid: u8 = r[..colon].parse().ok()?;
        let kind = GpuErrorKind::from_xid(Xid(xid))?;
        // Skip ": <description>" through to the attribute section.
        let body = &r[colon + 1..];
        (kind, attr_tail(body))
    } else if let Some(r) = rest.strip_prefix("GPU has fallen off the bus") {
        (GpuErrorKind::OffTheBus, r)
    } else {
        return None;
    };

    let mut structure = None;
    let mut page = None;
    let mut apid = None;
    for (key, value) in Attrs(after) {
        match key {
            "struct" => structure = MemoryStructure::from_label(value),
            "page" => {
                let hex = value.strip_prefix("0x")?;
                page = Some(u32::from_str_radix(hex, 16).ok()?);
            }
            "apid" => apid = Some(value.parse().ok()?),
            _ => {}
        }
    }

    Some(ConsoleEvent {
        time,
        node,
        kind,
        structure,
        page,
        apid,
    })
}

/// Finds the start of the `key=value` attribute section: the first
/// ` key=` occurrence after the free-text description.
fn attr_tail(body: &str) -> &str {
    for key in [" struct=", " page=", " apid="] {
        if let Some(i) = body.find(key) {
            return &body[i..];
        }
    }
    ""
}

/// Iterates `key=value` pairs in place; values may be double-quoted to
/// contain spaces. Ends at the first malformed pair (no `=`, or an
/// unterminated quote).
struct Attrs<'a>(&'a str);

impl<'a> Iterator for Attrs<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        let (key, rest) = self.0.trim_start().split_once('=')?;
        let (value, next) = match rest.strip_prefix('"') {
            Some(quoted) => quoted.split_once('"')?,
            None => rest.split_once(' ').unwrap_or((rest, "")),
        };
        self.0 = next;
        Some((key, value))
    }
}

/// Byte length of the shortest line [`parse_line`] can accept: a
/// timestamp, the shortest cname and a one-digit Xid with no
/// description.
const MIN_EVENT_LINE_LEN: usize = "[2013-06-01 00:00:00] c0-0c0s0n0 GPU Xid 0:".len();

/// Parses a whole log stream, collecting events and counting skips.
///
/// Each line yields at most one event and an event line is at least
/// [`MIN_EVENT_LINE_LEN`] bytes, so the event buffer is sized up front
/// from the smaller of those two bounds: a rendered log never regrows
/// it, and input of blank lines or short chatter reserves no more than
/// its own length.
pub fn parse_stream(text: &str) -> (Vec<ConsoleEvent>, ParseStats) {
    let max_events = text.lines().count().min(text.len() / MIN_EVENT_LINE_LEN);
    let mut events = Vec::with_capacity(max_events);
    let mut stats = ParseStats::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Some(ev) => {
                events.push(ev);
                stats.parsed += 1;
            }
            None => stats.skipped += 1,
        }
    }
    (events, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use titan_topology::NodeId;

    fn sample(kind: GpuErrorKind) -> ConsoleEvent {
        ConsoleEvent {
            time: 8_982_161,
            node: NodeId(10_000),
            kind,
            structure: Some(MemoryStructure::DeviceMemory),
            page: Some(0x1a2b3),
            apid: Some(1_048_576),
        }
    }

    /// A stream of newlines holds no event; it must not reserve one
    /// `ConsoleEvent` per line.
    #[test]
    fn parse_stream_does_not_reserve_per_blank_line() {
        let text = "\n".repeat(100_000);
        let (events, stats) = parse_stream(&text);
        assert!(events.is_empty());
        assert_eq!((stats.parsed, stats.skipped), (0, 0));
        let reserved = events.capacity() * std::mem::size_of::<ConsoleEvent>();
        assert!(reserved <= text.len(), "{reserved} B reserved for {} B", text.len());
        // The bound may not exceed the shortest line `parse_line` accepts
        // (every Xid in use has two digits).
        let shortest = "[2013-06-01 00:00:00] c0-0c0s0n0 GPU Xid 13:";
        assert!(parse_line(shortest).is_some());
        assert!(MIN_EVENT_LINE_LEN <= shortest.len());
    }

    #[test]
    fn rendered_len_matches_render_line() {
        // The prof ledger relies on the arithmetic mirror being exact;
        // sweep every kind × attribute combination × awkward numbers.
        for kind in GpuErrorKind::ALL {
            for st in [None, Some(MemoryStructure::DeviceMemory), Some(MemoryStructure::SharedL1)] {
                for pg in [None, Some(0u32), Some(0x1a2b3), Some(u32::MAX)] {
                    for ap in [None, Some(0u64), Some(9), Some(10), Some(99), Some(100), Some(u64::MAX)] {
                        for node in [0u32, 1, 3, 10_000, 17_000] {
                            let ev = ConsoleEvent {
                                time: 8_982_161,
                                node: NodeId(node),
                                kind,
                                structure: st,
                                page: pg,
                                apid: ap,
                            };
                            let line = render_line(&ev);
                            assert_eq!(rendered_len(&ev), line.len(), "{line}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn render_dbe_line_shape() {
        let line = render_line(&sample(GpuErrorKind::DoubleBitError));
        assert!(line.starts_with('['), "{line}");
        assert!(line.contains("GPU Xid 48:"), "{line}");
        assert!(line.contains("struct=\"Device Memory\""), "{line}");
        assert!(line.contains("page=0x0001a2b3"), "{line}");
        assert!(line.contains("apid=1048576"), "{line}");
    }

    #[test]
    fn roundtrip_all_xid_kinds() {
        for kind in GpuErrorKind::ALL {
            if kind == GpuErrorKind::SingleBitError {
                continue; // never logged to console
            }
            let ev = ConsoleEvent {
                structure: if kind == GpuErrorKind::DoubleBitError {
                    Some(MemoryStructure::RegisterFile)
                } else {
                    None
                },
                page: None,
                ..sample(kind)
            };
            let line = render_line(&ev);
            let back = parse_line(&line).unwrap_or_else(|| panic!("parse {line}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn roundtrip_optional_fields() {
        for (st, pg, ap) in [
            (None, None, None),
            (Some(MemoryStructure::L2Cache), None, None),
            (None, Some(7u32), None),
            (None, None, Some(9u64)),
            (Some(MemoryStructure::DeviceMemory), Some(0xffff_ffff), Some(u64::MAX)),
        ] {
            let ev = ConsoleEvent {
                structure: st,
                page: pg,
                apid: ap,
                ..sample(GpuErrorKind::DoubleBitError)
            };
            assert_eq!(parse_line(&render_line(&ev)), Some(ev));
        }
    }

    #[test]
    fn off_the_bus_roundtrip() {
        let ev = ConsoleEvent {
            structure: None,
            page: None,
            ..sample(GpuErrorKind::OffTheBus)
        };
        let line = render_line(&ev);
        assert!(line.contains("fallen off the bus"), "{line}");
        assert!(!line.contains("Xid"), "{line}");
        assert_eq!(parse_line(&line), Some(ev));
    }

    #[test]
    fn parser_skips_chatter() {
        let text = "\
[2013-06-01 00:00:10] c0-0c1s2n3 GPU Xid 13: Graphics Engine Exception apid=5
random kernel chatter
[2013-06-01 00:00:11] c0-0c1s2n3 LNet: some lustre noise
[bogus timestamp] c0-0c1s2n3 GPU Xid 13: x

[2013-06-01 00:00:12] c0-0c1s2n3 GPU Xid 43: GPU stopped processing apid=5
";
        let (events, stats) = parse_stream(text);
        assert_eq!(events.len(), 2);
        assert_eq!(stats.parsed, 2);
        assert_eq!(stats.skipped, 3);
        assert_eq!(events[0].kind, GpuErrorKind::GraphicsEngineException);
        assert_eq!(events[1].kind, GpuErrorKind::GpuStoppedProcessing);
    }

    #[test]
    fn parser_rejects_unknown_xid() {
        let line = "[2013-06-01 00:00:10] c0-0c1s2n3 GPU Xid 99: Mystery error";
        assert_eq!(parse_line(line), None);
    }

    #[test]
    fn parser_rejects_bad_cname() {
        let line = "[2013-06-01 00:00:10] c9-0c1s2n3 GPU Xid 13: Graphics Engine Exception";
        assert_eq!(parse_line(line), None);
    }

    #[test]
    fn render_stream_is_line_per_event() {
        let evs = vec![
            sample(GpuErrorKind::DoubleBitError),
            sample(GpuErrorKind::GpuStoppedProcessing),
        ];
        let buf = render_stream(&evs);
        let text = std::str::from_utf8(&buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        let (parsed, stats) = parse_stream(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(stats.skipped, 0);
    }

    #[test]
    fn description_containing_attr_like_text_is_safe() {
        // The attr scanner must find the *first* attribute key, not text
        // inside the description.
        let ev = ConsoleEvent {
            structure: Some(MemoryStructure::SharedL1),
            page: None,
            apid: Some(3),
            ..sample(GpuErrorKind::PreemptiveCleanup)
        };
        assert_eq!(parse_line(&render_line(&ev)), Some(ev));
    }
}
