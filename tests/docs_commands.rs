//! The user-facing docs cannot name a command the CLI lacks.
//!
//! Every fenced-code line in README.md, OBSERVABILITY.md,
//! DETERMINISM.md and EXPERIMENTS.md that invokes the binary through
//! `cargo run --release --` (or `cargo run --release --bin titan-repro
//! --`) is checked against `titan-repro --help`: the subcommand must be
//! one the usage text lists, its mode (for `trace`/`health`/`ckpt`) one
//! of the listed modes, and every `--flag` must appear in that
//! subcommand's section of the usage text.

use std::process::Command;

const DOCS: [&str; 4] = ["README.md", "OBSERVABILITY.md", "DETERMINISM.md", "EXPERIMENTS.md"];

fn help_text() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_titan-repro"))
        .arg("--help")
        .output()
        .expect("spawn titan-repro");
    assert!(out.status.success(), "titan-repro --help failed");
    String::from_utf8(out.stdout).expect("utf-8 help")
}

/// Splits the usage text into one section per subcommand: a section
/// starts at a line indented exactly two spaces (`  run   [--days N]`)
/// and runs until the next such line or the next unindented one.
fn sections(help: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    let mut open = false;
    for line in help.lines() {
        let header = line.strip_prefix("  ").filter(|rest| !rest.starts_with(' '));
        if let Some(cmd) = header.and_then(|rest| rest.split_whitespace().next()) {
            out.push((cmd.to_string(), String::new()));
            open = true;
        } else if !line.starts_with(' ') {
            open = false;
        }
        if let (true, Some((_, body))) = (open, out.last_mut()) {
            body.push_str(line);
            body.push('\n');
        }
    }
    out
}

/// The modes a section header declares as `<a|b|c>`, if any.
fn modes(section: &str) -> Option<Vec<&str>> {
    let header = section.lines().next()?;
    let start = header.find('<')?;
    let end = header[start..].find('>')? + start;
    Some(header[start + 1..end].split('|').collect())
}

/// Whether `flag` occurs in `text` as a whole flag, not as the prefix
/// of a longer one (`--trace` must not match `--trace-dir`).
fn has_flag(text: &str, flag: &str) -> bool {
    text.match_indices(flag).any(|(at, _)| {
        !text[at + flag.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    })
}

/// The documented invocations: `(file:line, argv after the `--`)`.
/// Lines continued with a trailing backslash are joined first, and a
/// trailing `# comment` is dropped.
fn documented_invocations() -> Vec<(String, Vec<String>)> {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut found = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(format!("{root}/{doc}"))
            .unwrap_or_else(|e| panic!("read {doc}: {e}"));
        let mut in_fence = false;
        let mut pending: Option<(usize, String)> = None;
        for (i, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_fence = !in_fence;
                continue;
            }
            if !in_fence {
                continue;
            }
            let (lineno, mut joined) = match pending.take() {
                Some((n, head)) => (n, format!("{head} {}", line.trim())),
                None => (i + 1, line.trim().to_string()),
            };
            if let Some(head) = joined.strip_suffix('\\') {
                pending = Some((lineno, head.trim_end().to_string()));
                continue;
            }
            if let Some(at) = joined.find(" #") {
                joined.truncate(at);
            }
            let words: Vec<&str> = joined.split_whitespace().collect();
            let argv = match words.as_slice() {
                ["cargo", "run", "--release", "--", rest @ ..] => rest,
                ["cargo", "run", "--release", "--bin", "titan-repro", "--", rest @ ..] => rest,
                _ => continue,
            };
            found.push((
                format!("{doc}:{lineno}"),
                argv.iter().map(|w| w.to_string()).collect(),
            ));
        }
    }
    found
}

#[test]
fn documented_commands_exist_in_the_cli() {
    let help = help_text();
    let sections = sections(&help);
    let invocations = documented_invocations();
    assert!(invocations.len() >= 20, "too few documented commands found: {invocations:?}");
    let mut problems = Vec::new();
    for (at, argv) in &invocations {
        let Some(sub) = argv.first() else {
            problems.push(format!("{at}: no subcommand"));
            continue;
        };
        let Some((_, section)) = sections.iter().find(|(cmd, _)| cmd == sub) else {
            problems.push(format!("{at}: `{sub}` is not a titan-repro subcommand"));
            continue;
        };
        if let Some(modes) = modes(section) {
            match argv.get(1) {
                Some(mode) if modes.contains(&mode.as_str()) => {}
                other => problems.push(format!("{at}: `{sub}` mode {other:?} not in {modes:?}")),
            }
        }
        for word in argv.iter().filter(|w| w.starts_with("--")) {
            let flag = word.split('=').next().unwrap_or(word);
            if !has_flag(section, flag) {
                problems.push(format!("{at}: `{sub}` does not document `{flag}`"));
            }
        }
    }
    assert!(problems.is_empty(), "docs name commands the CLI lacks:\n{}", problems.join("\n"));
}
