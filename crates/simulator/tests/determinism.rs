//! Same seed, same fleet — byte for byte. The entire study rests on the
//! simulator being a pure function of its seed (DETERMINISM.md); this
//! test is the executable form of that claim, and the titan-lint D rules
//! exist so this test does not rot.

use titan_sim::{SimConfig, Simulator};

fn run(seed: u64) -> (String, String, String, String) {
    let config = SimConfig::quick(30, seed);
    config.validate().expect("quick config is valid");
    let sim = Simulator::new(config).expect("simulator builds");
    let out = sim.run();
    (
        serde_json::to_string(&out).expect("output serializes"),
        out.render_console_log(),
        out.render_job_log(),
        out.render_aprun_log(),
    )
}

#[test]
fn same_seed_is_byte_identical() {
    let a = run(0xDEAD_BEEF);
    let b = run(0xDEAD_BEEF);
    assert_eq!(a.0, b.0, "serialized SimOutput diverged between runs");
    assert_eq!(a.1, b.1, "console log diverged between runs");
    assert_eq!(a.2, b.2, "job log diverged between runs");
    assert_eq!(a.3, b.3, "aprun log diverged between runs");
}

#[test]
fn same_seed_is_byte_identical_across_fresh_processes_proxy() {
    // A second construction path: build the simulator twice from two
    // separately-constructed configs (not a clone), so shared state in
    // config construction would be caught too.
    let a = {
        let sim = Simulator::new(SimConfig::quick(14, 7)).unwrap();
        serde_json::to_string(&sim.run()).unwrap()
    };
    let b = {
        let sim = Simulator::new(SimConfig::quick(14, 7)).unwrap();
        serde_json::to_string(&sim.run()).unwrap()
    };
    assert_eq!(a, b);
}

#[test]
fn different_seeds_diverge() {
    let a = run(1);
    let b = run(2);
    // The serialized output embeds every event; two 30-day fleet runs
    // with different master seeds cannot coincide.
    assert_ne!(a.0, b.0, "different seeds produced identical output");
}

/// FNV-1a 64 of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The three text logs are wire formats: the analysis parses them back
/// and `output_digest` hashes them. Their bytes for one fixed quick study
/// are pinned here, so a writer change that moves a single byte fails,
/// and each whole-log buffer must be allocated at exactly its final size.
#[test]
fn wire_formats_are_byte_pinned() {
    let out = Simulator::new(SimConfig::quick(20, 42)).unwrap().run();
    let console = out.render_console_log();
    let jobs = out.render_job_log();
    let apruns = out.render_aprun_log();
    for (log, text) in [("console", &console), ("job", &jobs), ("aprun", &apruns)] {
        assert_eq!(
            text.capacity(),
            text.len(),
            "{log} log buffer is not exactly sized"
        );
    }
    assert_eq!(
        (console.len(), fnv1a(console.as_bytes())),
        (4_438_546, 0x66eb_1bfa_8326_92e5),
        "console log bytes moved"
    );
    assert_eq!(
        (jobs.len(), fnv1a(jobs.as_bytes())),
        (1_881_235, 0xb693_853b_c04b_f028),
        "job log bytes moved"
    );
    assert_eq!(
        (apruns.len(), fnv1a(apruns.as_bytes())),
        (133_886, 0xe3ff_55ae_76bc_dd53),
        "aprun log bytes moved"
    );
}

/// `titan_runner::output_digest`, restated over the simulator's own
/// writers: FNV-1a over the serialized output, then the three logs.
fn output_digest(out: &titan_sim::SimOutput) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 = s.bytes().fold(self.0, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let json = serde_json::to_string(out).expect("output serializes");
    std::fmt::Write::write_str(&mut h, &json).expect("fnv writer is infallible");
    titan_conlog::write_log(&mut h, &out.console);
    titan_conlog::write_job_log(&mut h, &out.jobs);
    titan_conlog::write_aprun_log(&mut h, &out.apruns);
    h.0
}

/// The per-job nvidia-smi SBE attribution (`job_sbe`) and the whole
/// output digest of one short study are pinned byte for byte, so a
/// change to how the engine takes its prologue/epilogue readings cannot
/// move a single delta. The window must exercise both paths that matter:
/// jobs that gained SBEs, and jobs a DBE crashed mid-run.
#[test]
fn job_sbe_attribution_is_byte_pinned() {
    let out = Simulator::new(SimConfig::quick(20, 5)).unwrap().run();
    assert!(
        out.job_sbe.iter().any(|d| d.total_sbe() > 0),
        "no job gained an SBE in the pinned window"
    );
    assert!(
        out.truth.dbe.iter().any(|d| d.crashed_apid.is_some()),
        "no DBE crashed a running job in the pinned window"
    );
    let job_sbe = serde_json::to_string(&out.job_sbe).expect("job_sbe serializes");
    assert_eq!(
        (job_sbe.len(), fnv1a(job_sbe.as_bytes())),
        (12_889_038, 0x8190_f98f_e593_887a),
        "job_sbe bytes moved"
    );
    assert_eq!(output_digest(&out), 0xc0ac_2c95_d0b1_3b21, "output_digest moved");
}

