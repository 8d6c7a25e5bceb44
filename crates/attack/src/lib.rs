//! # rse-attack — seed-replayable adversarial attack campaigns
//!
//! The security half of *"An Architectural Framework for Providing
//! Reliability and Security Support"* (DSN 2004) claims that the same
//! RSE machinery that catches soft errors — the ICM's redundant
//! invariant store, the DDT's non-executable pages, the MLR's layout
//! randomization — also defeats deliberate attacks. This crate is the
//! adversarial counterpart of `rse-inject`: instead of sampling
//! accidental upsets, it expands a seed into a *planned attack*
//! (stack smashing, GOT tampering, code injection, control-flow
//! hijack, instruction-stream tamper/skip/replay, NX probes, and
//! tampering with the ICM's own invariants) and classifies how the
//! defended system responds.
//!
//! Pieces:
//!
//! * [`model`] — the attack models ([`AttackModel`]), each mapping to
//!   a victim class that exposes the right surface,
//! * [`victim`] — the victim corpus: five guest programs, each as a
//!   *guard/exposed* twin pair sharing one source and differing only
//!   in whether the defending module is installed,
//! * [`surface`] — the attack-surface mapper (gadgets, code caves,
//!   control-flow sites, checker copies) and the deterministic
//!   seed-to-plan expander,
//! * [`outcome`] — the adversarial outcome taxonomy
//!   ([`AttackOutcome`]: prevented / detected / degraded /
//!   compromised / crash-trap), JSONL records, and the coverage table,
//! * [`campaign`] — the runner: golden references, attacked runs,
//!   classification, and the checkpoint-rollback recovery path, all on
//!   the injection engine's trial kernel and campaign body,
//! * [`chain`] — the adaptive multi-stage chains: probe→leak→strike
//!   against the MLR, recovery-window strikes against the bounded
//!   rollback retry budget, and forged-burst quarantine evasion
//!   against the ICM's health machine,
//! * [`entropy`] — the §4.1 re-randomization study: leak-then-strike
//!   attack success rate as a function of the MLR re-randomization
//!   period, across the whole victim corpus.
//!
//! Everything is deterministic: same spec + same base seed →
//! byte-for-byte identical JSONL, on any host, at any thread count.
//!
//! # Example
//!
//! ```
//! use rse_attack::{run_one_with, victim_by_name, AttackModel, CampaignOptions};
//!
//! // Replay one attack: seed → plan → outcome.
//! let v = victim_by_name("stack_exposed").unwrap();
//! let r = rse_inject::reference(&v.workload);
//! let opts = CampaignOptions::default();
//! let rec = run_one_with(v, AttackModel::Control, 0, 42, &r, &opts);
//! assert_eq!(rec.outcome.tag(), "prevented"); // control: no attack fired
//! // … and every record replays byte-identically from its seed.
//! let again = run_one_with(v, AttackModel::Control, 0, 42, &r, &opts);
//! assert_eq!(rec.to_json(), again.to_json());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod chain;
pub mod entropy;
pub mod model;
pub mod outcome;
pub mod surface;
pub mod victim;

pub use campaign::{
    derive_seed, run_campaign, run_campaign_with, run_one_with, AttackCell, AttackSpec,
    CampaignOptions,
};
pub use chain::{is_chain_model, run_chain};
pub use entropy::{
    corpus_study_json, corpus_trial_seed, entropy_study, entropy_study_corpus, entropy_victims,
    run_trial, run_trial_kind, strictly_decreasing, study_json, trial_seed, EntropyPoint,
    EntropyVictim, VictimStudy, DEFAULT_PERIODS, DEFAULT_TRIALS,
};
pub use model::AttackModel;
pub use outcome::{
    attack_coverage_table, compromise_permille, to_jsonl, AttackOutcome, AttackRecord,
};
pub use surface::{map_surface, nx_shellcode, sample_attack, AttackSurface, STACK_SLOT_OFFSET};
pub use victim::{victim_by_name, victims, Victim};
