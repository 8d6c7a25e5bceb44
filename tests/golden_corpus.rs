//! Golden-model regression corpus: 32 fixed-seed generated programs
//! committed under `tests/corpus/`, with their expected final
//! architectural-state digests pinned in `tests/corpus/MANIFEST.txt`.
//!
//! Three guarantees, all independent of the randomized differential
//! harness:
//!
//! 1. **Golden stability** — the golden interpreter's final state for
//!    every corpus program matches the committed digest exactly. Any
//!    semantics change to the ISA, assembler, or interpreter shows up
//!    as a digest mismatch naming the program file.
//! 2. **Differential agreement** — the out-of-order pipeline (bare and
//!    with the RSE + runtime CHECKs) reproduces the golden state for
//!    every corpus program, so differential bugs reproduce from a plain
//!    `cargo test golden_corpus` with no seeds involved.
//!
//! 3. **Timing stability** — every corpus program, run bare and with the
//!    RSE + runtime CHECKs, reproduces the cycle-level counters pinned in
//!    `tests/corpus/TIMING.txt`: the pipeline's cycles, committed,
//!    fetched, dispatched, squashed, mispredicts and commit-stall cycles,
//!    and the miss counts of the four caches. A host-side optimisation of
//!    the simulator must leave every one of them unchanged.
//!
//! Regenerating after an *intentional* semantics change:
//!
//! ```text
//! cargo test --test golden_corpus -- --ignored regenerate_corpus
//! ```
//!
//! and after an intentional timing-model change:
//!
//! ```text
//! cargo test --test golden_corpus -- --ignored regenerate_timing
//! ```
//!
//! then review the diff under `tests/corpus/` and commit it.

mod common;

use common::{generate_program, run_golden, run_pipeline, run_pipeline_to_halt, state_digest};
use rse::isa::asm::assemble;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The fixed corpus seeds. Chosen once (32 draws of splitmix64 from
/// `0xC0FFEE`) and frozen; the exact values are arbitrary but must
/// never change, since the committed programs were generated from them.
fn corpus_seeds() -> Vec<u64> {
    let mut state = 0xC0FFEEu64;
    (0..32)
        .map(|_| rse_support::rng::splitmix64(&mut state))
        .collect()
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("corpus")
}

fn program_name(seed: u64) -> String {
    format!("prog_{seed:016x}.s")
}

/// Reads the manifest into `(file name, digest)` pairs.
fn read_manifest() -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(corpus_dir().join("MANIFEST.txt"))
        .expect("tests/corpus/MANIFEST.txt exists (run the regenerate_corpus test)");
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, digest) = l
                .split_once(char::is_whitespace)
                .expect("manifest line shape");
            (
                name.to_string(),
                u64::from_str_radix(digest.trim(), 16).expect("hex digest"),
            )
        })
        .collect()
}

#[test]
fn corpus_is_complete() {
    let manifest = read_manifest();
    assert_eq!(manifest.len(), 32, "corpus must hold 32 programs");
    for seed in corpus_seeds() {
        let name = program_name(seed);
        assert!(
            manifest.iter().any(|(n, _)| *n == name),
            "manifest is missing {name}; regenerate the corpus"
        );
        assert!(
            corpus_dir().join(&name).exists(),
            "missing corpus file {name}"
        );
    }
}

/// Guarantee 1: golden interpreter state digests match the manifest.
#[test]
fn golden_state_digests_match_manifest() {
    for (name, expected) in read_manifest() {
        let src = std::fs::read_to_string(corpus_dir().join(&name)).expect("corpus file reads");
        let image = assemble(&src).unwrap_or_else(|e| panic!("{name} does not assemble: {e}"));
        let (regs, scratch, _) = run_golden(&image);
        let digest = state_digest(&regs, &scratch);
        assert_eq!(
            digest, expected,
            "golden-state digest mismatch for {name}: got {digest:016x}, manifest says \
             {expected:016x} — ISA/assembler/interpreter semantics changed"
        );
    }
}

/// Guarantee 2: the out-of-order pipeline agrees with the golden model
/// on every corpus program, bare and with the RSE attached.
#[test]
fn pipeline_matches_golden_on_corpus() {
    for (name, _) in read_manifest() {
        let src = std::fs::read_to_string(corpus_dir().join(&name)).expect("corpus file reads");
        let image = assemble(&src).unwrap_or_else(|e| panic!("{name} does not assemble: {e}"));
        let (gold_regs, gold_scratch, _) = run_golden(&image);
        for with_engine in [false, true] {
            let (regs, scratch, _) = run_pipeline(&image, with_engine);
            assert_eq!(
                regs, gold_regs,
                "register divergence on {name} (engine={with_engine})"
            );
            assert_eq!(
                scratch, gold_scratch,
                "memory divergence on {name} (engine={with_engine})"
            );
        }
    }
}

const TIMING_HEADER: &str = "\
# Timing pin: <program> <bare|rse> cycles committed fetched dispatched squashed \
mispredicts commit_stall_cycles il1_misses il2_misses dl1_misses dl2_misses
# Regenerate: cargo test --test golden_corpus -- --ignored regenerate_timing
";

/// The pinned counters of one corpus program in one mode, as a
/// `TIMING.txt` line.
fn timing_line(name: &str, src: &str, with_engine: bool) -> String {
    let image = assemble(src).unwrap_or_else(|e| panic!("{name} does not assemble: {e}"));
    let cpu = run_pipeline_to_halt(&image, with_engine);
    let p = cpu.stats();
    let m = cpu.mem().stats();
    format!(
        "{name} {} {} {} {} {} {} {} {} {} {} {} {}",
        if with_engine { "rse" } else { "bare" },
        p.cycles,
        p.committed,
        p.fetched,
        p.dispatched,
        p.squashed,
        p.mispredicts,
        p.commit_stall_cycles,
        m.il1.misses,
        m.il2.misses,
        m.dl1.misses,
        m.dl2.misses,
    )
}

/// Every manifest program in both modes, in manifest order.
fn timing_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, _) in read_manifest() {
        let src = std::fs::read_to_string(corpus_dir().join(&name)).expect("corpus file reads");
        for with_engine in [false, true] {
            lines.push(timing_line(&name, &src, with_engine));
        }
    }
    lines
}

/// Guarantee 3: the cycle-level counters match the timing pin.
#[test]
fn pipeline_timing_matches_pin() {
    let text = std::fs::read_to_string(corpus_dir().join("TIMING.txt"))
        .expect("tests/corpus/TIMING.txt exists (run the regenerate_timing test)");
    let pinned: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let got = timing_lines();
    assert_eq!(
        pinned.len(),
        got.len(),
        "TIMING.txt covers a different corpus"
    );
    for (want, got) in pinned.iter().zip(&got) {
        assert_eq!(
            *want, got,
            "cycle-level counters drifted (fields: see the TIMING.txt header)"
        );
    }
}

/// Writes `tests/corpus/TIMING.txt`. Run explicitly after an intentional
/// timing-model change; review the diff before committing.
#[test]
#[ignore = "regenerates the committed timing pin; run explicitly"]
fn regenerate_timing() {
    let mut text = String::from(TIMING_HEADER);
    for line in timing_lines() {
        writeln!(text, "{line}").unwrap();
    }
    std::fs::write(corpus_dir().join("TIMING.txt"), text).unwrap();
}

/// Writes `tests/corpus/` from the fixed seeds. Run explicitly after an
/// intentional semantics change; review the diff before committing.
#[test]
#[ignore = "regenerates the committed corpus; run explicitly"]
fn regenerate_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = String::from(
        "# Golden corpus manifest: <program file> <FNV-1a64 digest of final golden state>\n\
         # Regenerate: cargo test --test golden_corpus -- --ignored regenerate_corpus\n",
    );
    for seed in corpus_seeds() {
        let name = program_name(seed);
        let src = generate_program(seed);
        let image = assemble(&src).unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
        let (regs, scratch, _) = run_golden(&image);
        let digest = state_digest(&regs, &scratch);
        std::fs::write(dir.join(&name), &src).unwrap();
        writeln!(manifest, "{name} {digest:016x}").unwrap();
    }
    std::fs::write(dir.join("MANIFEST.txt"), manifest).unwrap();
}
