//! Property tests: the log wire formats must round-trip exactly, and the
//! parsers must be total (never panic) on arbitrary input.

use proptest::prelude::*;
use titan_conlog::format::{parse_line, parse_stream, render_line, render_log, write_line};
use titan_conlog::joblog::{
    compress_ranges, expand_ranges, render_aprun_log, render_job_log, Aprun, JobRecord,
};
use titan_conlog::time::{StudyCalendar, STUDY_SECONDS};
use titan_conlog::ConsoleEvent;
use titan_gpu::{GpuErrorKind, MemoryStructure};
use titan_topology::NodeId;

fn any_kind() -> impl Strategy<Value = GpuErrorKind> {
    prop::sample::select(
        GpuErrorKind::ALL
            .into_iter()
            .filter(|k| *k != GpuErrorKind::SingleBitError)
            .collect::<Vec<_>>(),
    )
}

fn any_structure() -> impl Strategy<Value = Option<MemoryStructure>> {
    prop::option::of(prop::sample::select(MemoryStructure::ALL.to_vec()))
}

fn any_event() -> impl Strategy<Value = ConsoleEvent> {
    (
        (0u64..STUDY_SECONDS, 0u32..19_200),
        any_kind(),
        any_structure(),
        prop::option::of(any::<u32>()),
        prop::option::of(any::<u64>()),
    )
        .prop_map(|((time, node), kind, structure, page, apid)| ConsoleEvent {
            time,
            node: NodeId(node),
            kind,
            structure,
            page,
            apid,
        })
}

/// Jobs with node lists in allocation (unsorted, possibly repeated)
/// order, so the writers' sort path is exercised as well as the
/// already-ascending one.
fn any_job() -> impl Strategy<Value = JobRecord> {
    (
        (any::<u64>(), any::<u32>()),
        prop::collection::vec(0u32..19_200, 0..60),
        (0u64..STUDY_SECONDS, 0u64..86_400),
        (-1e3f64..1e6, 0.0f64..1e15),
        any::<u64>(),
    )
        .prop_map(
            |((apid, user), ids, (start, dur), (gch, tmb), max_mem)| JobRecord {
                apid,
                user,
                nodes: ids.into_iter().map(NodeId).collect(),
                start,
                end: start + dur,
                gpu_core_hours: gch,
                max_memory_bytes: max_mem,
                total_memory_byte_hours: tmb,
            },
        )
}

fn any_aprun() -> impl Strategy<Value = Aprun> {
    (
        any::<u64>(),
        any::<u32>(),
        0u64..STUDY_SECONDS,
        0u64..86_400,
    )
        .prop_map(|(apid, index, start, dur)| Aprun {
            apid,
            index,
            start,
            end: start + dur,
        })
}

proptest! {
    /// The in-place writers append exactly the text of the allocating
    /// renderers, and leave what the buffer already held untouched.
    #[test]
    fn writers_append_exactly_the_rendered_line(
        prefix in "\\PC{1,20}",
        ev in any_event(),
        job in any_job(),
        aprun in any_aprun(),
    ) {
        let mut buf = prefix.clone();
        write_line(&mut buf, &ev);
        prop_assert_eq!(buf, format!("{prefix}{}", render_line(&ev)));

        let mut buf = prefix.clone();
        job.write_to(&mut buf);
        prop_assert_eq!(buf, format!("{prefix}{}", job.render()));

        let mut buf = prefix.clone();
        aprun.write_to(&mut buf);
        prop_assert_eq!(buf, format!("{prefix}{}", aprun.render()));
    }

    /// Whole-log renders and node-range expansion allocate their exact
    /// size up front: no slack and no regrowth.
    #[test]
    fn whole_log_buffers_are_exact_size(
        events in prop::collection::vec(any_event(), 0..20),
        jobs in prop::collection::vec(any_job(), 0..10),
        apruns in prop::collection::vec(any_aprun(), 0..20),
    ) {
        let console = render_log(&events);
        prop_assert_eq!(console.capacity(), console.len());
        let lines: String = events.iter().map(|e| render_line(e) + "\n").collect();
        prop_assert_eq!(console, lines);

        let job_log = render_job_log(&jobs);
        prop_assert_eq!(job_log.capacity(), job_log.len());
        let lines: String = jobs.iter().map(|j| j.render() + "\n").collect();
        prop_assert_eq!(job_log, lines);

        let aprun_log = render_aprun_log(&apruns);
        prop_assert_eq!(aprun_log.capacity(), aprun_log.len());
        let lines: String = apruns.iter().map(|a| a.render() + "\n").collect();
        prop_assert_eq!(aprun_log, lines);

        for j in &jobs {
            let nodes = expand_ranges(&compress_ranges(&j.nodes)).unwrap();
            prop_assert_eq!(nodes.capacity(), nodes.len());
        }
    }

    /// The job-line length function is exact, like `rendered_len` is for
    /// console lines.
    #[test]
    fn job_rendered_len_matches_render(job in any_job()) {
        let line = job.render();
        prop_assert_eq!(job.rendered_len(), line.len());
        prop_assert_eq!(line.capacity(), line.len());
    }

    /// `parse_stream` reserves for at most one event per line, and no
    /// more events than the text could hold: blank lines and short
    /// chatter never make it reserve more bytes than the input has.
    #[test]
    fn parse_stream_reservation_is_bounded_by_input(
        events in prop::collection::vec(any_event(), 0..20),
        noise in prop::collection::vec("[ \\t\\n]{0,5}|\\PC{0,8}\\n", 0..200),
    ) {
        let log = render_log(&events);
        let (parsed, _) = parse_stream(&log);
        prop_assert_eq!(parsed.capacity(), events.len());

        let text = noise.concat();
        let (parsed, _) = parse_stream(&text);
        let reserved = parsed.capacity() * std::mem::size_of::<ConsoleEvent>();
        prop_assert!(reserved <= text.len(), "{reserved} B reserved for {} B", text.len());
    }

    /// Console event -> line -> event is the identity.
    #[test]
    fn console_roundtrip(
        time in 0u64..STUDY_SECONDS,
        node in 0u32..19_200,
        kind in any_kind(),
        structure in any_structure(),
        page in prop::option::of(any::<u32>()),
        apid in prop::option::of(any::<u64>()),
    ) {
        let ev = ConsoleEvent { time, node: NodeId(node), kind, structure, page, apid };
        let line = render_line(&ev);
        prop_assert_eq!(parse_line(&line), Some(ev), "{}", line);
    }

    /// The line parser never panics and never invents events from noise
    /// that lacks the GPU markers.
    #[test]
    fn parser_total(s in "\\PC{0,200}") {
        let r = parse_line(&s);
        if !s.contains("GPU") {
            prop_assert_eq!(r, None);
        }
    }

    /// Stream parsing conserves lines: parsed + skipped == nonempty lines.
    #[test]
    fn stream_conservation(lines in prop::collection::vec("\\PC{0,80}", 0..30)) {
        let text = lines.join("\n");
        let (events, stats) = parse_stream(&text);
        let nonempty = text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        prop_assert_eq!(stats.parsed + stats.skipped, nonempty);
        prop_assert_eq!(events.len() as u64, stats.parsed);
    }

    /// Node-range compression round-trips through expansion (after
    /// sort+dedup normalization).
    #[test]
    fn ranges_roundtrip(ids in prop::collection::vec(0u32..19_200, 0..200)) {
        let nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        let mut normalized: Vec<u32> = ids.clone();
        normalized.sort_unstable();
        normalized.dedup();
        let s = compress_ranges(&nodes);
        let back = expand_ranges(&s).unwrap();
        let back_ids: Vec<u32> = back.iter().map(|n| n.0).collect();
        prop_assert_eq!(back_ids, normalized);
    }

    /// Job records round-trip exactly (floats rendered with enough
    /// precision for the analysis tolerances).
    #[test]
    fn job_roundtrip(
        apid in any::<u64>(),
        user in any::<u32>(),
        ids in prop::collection::vec(0u32..19_200, 1..50),
        start in 0u64..STUDY_SECONDS,
        dur in 60u64..86_400,
        gch in 0.0f64..1e6,
        max_mem in 0u64..6_442_450_944,
        tmb in 0.0f64..1e15,
    ) {
        let mut nodes: Vec<NodeId> = ids.iter().map(|&i| NodeId(i)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let j = JobRecord {
            apid, user, nodes,
            start, end: start + dur,
            gpu_core_hours: (gch * 1e4).round() / 1e4,
            max_memory_bytes: max_mem,
            total_memory_byte_hours: (tmb * 1e4).round() / 1e4,
        };
        let back = JobRecord::parse(&j.render()).unwrap();
        prop_assert_eq!(back.apid, j.apid);
        prop_assert_eq!(back.user, j.user);
        prop_assert_eq!(&back.nodes, &j.nodes);
        prop_assert!((back.gpu_core_hours - j.gpu_core_hours).abs() < 1e-3);
        prop_assert_eq!(back.max_memory_bytes, j.max_memory_bytes);
    }

    /// Timestamp render/parse round-trips across the window.
    #[test]
    fn timestamp_roundtrip(t in 0u64..STUDY_SECONDS) {
        let cal = StudyCalendar;
        prop_assert_eq!(cal.parse_timestamp(&cal.format_timestamp(t)), Some(t));
    }
}
