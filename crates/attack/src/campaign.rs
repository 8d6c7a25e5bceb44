//! The adversarial campaign runner: golden references, attacked runs,
//! outcome classification, and the recovery path.
//!
//! Every attack run goes through `rse_inject`'s trial kernel
//! ([`Trial::observe`] and [`Trial::rerun`]) and shared campaign body
//! ([`run_cells`]); what this module adds is the threat model. Plans come
//! from [`sample_attack`] instead of the soft-error sampler, victims come
//! in defended/exposed twin pairs, and MLR-guarded victims re-randomize
//! their layout **fresh every run** (a per-run layout seed derived from
//! the attack seed), because a fixed layout would hand the diversity
//! defense a constant the attacker never gets in the modeled system.

use crate::chain::{is_chain_model, run_chain};
use crate::model::AttackModel;
use crate::outcome::{AttackOutcome, AttackRecord};
use crate::surface::{map_surface, sample_attack};
use crate::victim::{victim_by_name, victims, Harness, Victim, Workload};
use rse_inject::{cell_seed, run_cells, CellModel, RecoveryStatus, RefState, Trial};
use rse_isa::asm::assemble;
use rse_isa::ModuleId;
use rse_support::rng::splitmix64;

/// Re-exported so callers configure attack campaigns with the exact
/// options type the injection campaigns use (tiering and sharding
/// change wall-clock only, never a byte of output).
pub use rse_inject::CampaignOptions;

/// Domain separator folded into the attack seed to derive the per-run
/// MLR layout seed, so layout entropy and attack-timing entropy are
/// independent draws from one recorded seed.
const MLR_LAYOUT_DOMAIN: u64 = 0x4D4C_525F_4C41_594F; // "MLR_LAYO"

/// Derives the per-run seed from the campaign base seed, the victim
/// name, the attack model, and the run index. Pure and stable: the
/// JSONL `seed` field plus [`sample_attack`] replays the exact attack.
pub fn derive_seed(base_seed: u64, victim: &str, model: AttackModel, run: u32) -> u64 {
    cell_seed(base_seed, victim, model, run)
}

impl CellModel for AttackModel {
    type Subject = Victim;
    const SUBJECT: &'static str = "victim";
    fn subject(name: &str) -> Option<&'static Victim> {
        victim_by_name(name)
    }
    fn workload(v: &Victim) -> &Workload {
        &v.workload
    }
    fn applies_to(self, v: &Victim) -> bool {
        self.applicable(v)
    }
    fn seed_index(self) -> u64 {
        self.index()
    }
}

/// The per-run MLR layout seed for MLR-guarded victims: independent of
/// the attack draws, derived from the same recorded seed.
pub(crate) fn mlr_layout_seed(v: &Victim, seed: u64) -> Option<u64> {
    (v.workload.harness == Harness::MlrOs).then(|| {
        let mut s = seed ^ MLR_LAYOUT_DOMAIN;
        splitmix64(&mut s)
    })
}

/// The attack verdict on an observed run, in the priority order
/// [`run_one_with`] documents; `loss` is what a clean exit with a
/// divergent result counts as.
pub(crate) fn verdict(t: &Trial, loss: AttackOutcome) -> AttackOutcome {
    if let Some(m) = t.down() {
        AttackOutcome::Degraded(m)
    } else if let Some(m) = t.detected_by() {
        AttackOutcome::Detected(m)
    } else if t.safe_mode() || t.end.timed_out() || t.end.crashed() {
        AttackOutcome::CrashTrap
    } else if t.golden {
        AttackOutcome::Prevented
    } else {
        loss
    }
}

/// The recovery a verdict records without re-executing, or `None` when
/// the run left divergent state only a checkpoint rollback can repair.
pub(crate) fn settled_recovery(outcome: AttackOutcome, golden: bool) -> Option<RecoveryStatus> {
    match outcome {
        AttackOutcome::Prevented | AttackOutcome::Compromised | AttackOutcome::Evaded(_) => {
            Some(RecoveryStatus::NotNeeded)
        }
        AttackOutcome::Degraded(_) if golden => Some(RecoveryStatus::Succeeded {
            mechanism: "quarantine-nop-mux",
        }),
        // The DSM is detect-only (no flush path): a clean result under a
        // DSM detection needed no mechanism at all.
        AttackOutcome::Detected(ModuleId::DSM) if golden => Some(RecoveryStatus::NotNeeded),
        AttackOutcome::Detected(_) if golden => Some(RecoveryStatus::Succeeded {
            mechanism: "flush-refetch",
        }),
        _ => None,
    }
}

/// [`verdict`] plus its recovery ([`settled_recovery`], else one
/// checkpoint-rollback re-execution).
pub(crate) fn classify(
    t: &Trial,
    r: &RefState,
    opts: &CampaignOptions,
    loss: AttackOutcome,
) -> (AttackOutcome, RecoveryStatus) {
    let outcome = verdict(t, loss);
    let recovery =
        settled_recovery(outcome, t.golden).unwrap_or_else(|| t.rollback(r, opts.tiered));
    (outcome, recovery)
}

/// Executes one attack run and classifies it.
///
/// Classification priority (most attributable first): a downed
/// defending module (`degraded:*`), a module detection (`detected:*` —
/// ICM invariant and DSM signature mismatches on checked harnesses, the
/// DDT's NX trap or crash-mediated recovery on OS harnesses), then the
/// end state: a safe-mode trip, timeout, or trap is a `crash-trap`; a
/// clean exit is `prevented` if the result matches golden and
/// `compromised` if the attacker's tampering stuck. Detections and
/// crashes with divergent state then exercise the checkpoint-rollback
/// re-execution exactly as the injection engine does.
pub fn run_one_with(
    v: &Victim,
    model: AttackModel,
    run: u32,
    seed: u64,
    r: &RefState,
    opts: &CampaignOptions,
) -> AttackRecord {
    if is_chain_model(model) {
        return run_chain(v, model, run, seed, r, opts);
    }
    let w = &v.workload;
    let image = assemble(w.source).expect("victim workload assembles");
    let surface = map_surface(v, &image);
    let plan = sample_attack(model, seed, v, &surface, &r.profile);
    let t = Trial::observe(w, &image, r, mlr_layout_seed(v, seed), &plan);
    let (outcome, recovery) = classify(&t, r, opts, AttackOutcome::Compromised);
    AttackRecord {
        victim: w.name,
        defended: v.defended,
        model: model.name(),
        run,
        seed,
        outcome,
        recovery,
        cycles: t.cycles(),
        attack: plan.describe(),
    }
}

/// One campaign cell: `runs` attacks of `model` against `victim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackCell {
    /// Victim name (must resolve via [`victim_by_name`]).
    pub victim: &'static str,
    /// Attack model.
    pub model: AttackModel,
    /// Number of runs.
    pub runs: u32,
}

/// A full adversarial campaign specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSpec {
    /// Base seed every per-run seed is derived from.
    pub base_seed: u64,
    /// The cells, executed in order.
    pub cells: Vec<AttackCell>,
}

impl AttackSpec {
    /// The pinned CI smoke campaign: every attack model against every
    /// twin of its victim pair (plus a one-run control per victim), so
    /// the coverage table shows each defense and each exposure class.
    pub fn smoke(base_seed: u64) -> AttackSpec {
        let cell = |victim, model, runs| AttackCell {
            victim,
            model,
            runs,
        };
        let mut cells = Vec::new();
        for v in victims() {
            cells.push(cell(v.workload.name, AttackModel::Control, 1));
        }
        for victim in ["stack_guard", "stack_exposed"] {
            cells.push(cell(victim, AttackModel::StackSmash, 6));
        }
        for victim in ["got_guard", "got_exposed"] {
            cells.push(cell(victim, AttackModel::GotTamper, 6));
        }
        for victim in ["branch_guard", "branch_exposed"] {
            cells.push(cell(victim, AttackModel::CodeInject, 5));
            cells.push(cell(victim, AttackModel::CfhRedirect, 5));
            cells.push(cell(victim, AttackModel::InstTamper, 6));
            cells.push(cell(victim, AttackModel::InstSkip, 4));
            cells.push(cell(victim, AttackModel::InstReplay, 4));
        }
        for victim in ["nx_guard", "nx_exposed"] {
            cells.push(cell(victim, AttackModel::NxProbe, 6));
        }
        cells.push(cell("branch_guard", AttackModel::IcmTamper, 6));
        AttackSpec { base_seed, cells }
    }

    /// The pinned adaptive campaign: the chain models plus the
    /// instruction-stream models against the DSM twins — the coverage
    /// the smoke campaign's single-shot cells cannot provide. The
    /// headline cells are `inst-skip` on `seq_guard` (the DSM closing
    /// the ICM's skip blind spot: zero compromises on the guard) and
    /// `recovery-strike` (bounded retry with escalation, never a silent
    /// wrong answer).
    pub fn adaptive(base_seed: u64) -> AttackSpec {
        let cell = |victim, model, runs| AttackCell {
            victim,
            model,
            runs,
        };
        let mut cells = Vec::new();
        for victim in ["seq_guard", "seq_exposed"] {
            cells.push(cell(victim, AttackModel::Control, 1));
            cells.push(cell(victim, AttackModel::InstSkip, 6));
            cells.push(cell(victim, AttackModel::InstTamper, 4));
            cells.push(cell(victim, AttackModel::InstReplay, 4));
        }
        for victim in ["stack_guard", "stack_exposed", "got_guard", "got_exposed"] {
            cells.push(cell(victim, AttackModel::AdaptiveChain, 4));
        }
        for victim in ["branch_guard", "branch_exposed", "seq_guard", "seq_exposed"] {
            cells.push(cell(victim, AttackModel::RecoveryStrike, 4));
        }
        cells.push(cell("branch_guard", AttackModel::QuarantineEvade, 4));
        AttackSpec { base_seed, cells }
    }

    /// The zero-attack control campaign: every victim under the
    /// `control` model. All runs must classify as `prevented`.
    pub fn control(base_seed: u64, runs: u32) -> AttackSpec {
        AttackSpec {
            base_seed,
            cells: victims()
                .iter()
                .map(|v| AttackCell {
                    victim: v.workload.name,
                    model: AttackModel::Control,
                    runs,
                })
                .collect(),
        }
    }

    /// The full cross product: every applicable (victim, model) pair,
    /// `runs` attacks each.
    pub fn full(base_seed: u64, runs: u32) -> AttackSpec {
        let mut cells = Vec::new();
        for v in victims() {
            for model in AttackModel::ALL {
                if model.applicable(v) {
                    cells.push(AttackCell {
                        victim: v.workload.name,
                        model,
                        runs,
                    });
                }
            }
        }
        AttackSpec { base_seed, cells }
    }

    /// Total runs in the spec.
    pub fn total_runs(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.runs)).sum()
    }
}

/// Executes an adversarial campaign. Equivalent to
/// [`run_campaign_with`] with default (sequential, untiered) options.
///
/// # Panics
///
/// Panics if a cell names an unknown victim or an inapplicable attack
/// model — specs are validated eagerly so a bad campaign never
/// half-runs.
pub fn run_campaign(spec: &AttackSpec) -> Vec<AttackRecord> {
    run_campaign_with(spec, &CampaignOptions::default())
}

/// Executes an adversarial campaign under [`CampaignOptions`] with the
/// injection campaigns' runner ([`run_cells`]): the merged record vector
/// — and therefore [`crate::outcome::to_jsonl`] — is byte-for-byte
/// identical for every thread count and tiering choice.
///
/// # Panics
///
/// Panics as [`run_campaign`] does on an invalid spec, and propagates
/// any worker panic.
pub fn run_campaign_with(spec: &AttackSpec, opts: &CampaignOptions) -> Vec<AttackRecord> {
    let cells = spec.cells.iter().map(|c| (c.victim, c.model, c.runs));
    run_cells(
        spec.base_seed,
        cells,
        opts.threads,
        |v, model, run, seed, r| run_one_with(v, model, run, seed, r, opts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::to_jsonl;

    #[test]
    fn seeds_are_stable_and_well_spread() {
        let a = derive_seed(1, "stack_guard", AttackModel::StackSmash, 0);
        assert_eq!(a, derive_seed(1, "stack_guard", AttackModel::StackSmash, 0));
        assert_ne!(a, derive_seed(2, "stack_guard", AttackModel::StackSmash, 0));
        assert_ne!(
            a,
            derive_seed(1, "stack_exposed", AttackModel::StackSmash, 0)
        );
        assert_ne!(a, derive_seed(1, "stack_guard", AttackModel::GotTamper, 0));
        assert_ne!(a, derive_seed(1, "stack_guard", AttackModel::StackSmash, 1));
    }

    #[test]
    fn specs_are_valid_and_cover_every_model() {
        for spec in [
            AttackSpec::smoke(0),
            AttackSpec::adaptive(0),
            AttackSpec::full(0, 1),
        ] {
            for cell in &spec.cells {
                let v = victim_by_name(cell.victim).unwrap();
                assert!(cell.model.applicable(v), "{:?}", cell);
            }
        }
        // The full cross product covers the whole model space on its
        // own; the two pinned campaigns (smoke + adaptive) cover it
        // together.
        for model in AttackModel::ALL {
            assert!(
                AttackSpec::full(0, 1)
                    .cells
                    .iter()
                    .any(|c| c.model == model),
                "{model} missing from full spec"
            );
            assert!(
                AttackSpec::smoke(0).cells.iter().any(|c| c.model == model)
                    || AttackSpec::adaptive(0)
                        .cells
                        .iter()
                        .any(|c| c.model == model),
                "{model} missing from both pinned specs"
            );
        }
        assert!(AttackSpec::smoke(0).total_runs() >= 80);
        assert!(AttackSpec::adaptive(0).total_runs() >= 60);
    }

    #[test]
    fn control_runs_are_all_prevented() {
        let records = run_campaign(&AttackSpec::control(7, 1));
        assert_eq!(records.len(), 10);
        for r in &records {
            assert_eq!(r.outcome, AttackOutcome::Prevented, "{}", r.to_json());
            assert_eq!(r.recovery, RecoveryStatus::NotNeeded);
            assert_eq!(r.attack, "none");
        }
    }

    #[test]
    fn single_runs_replay_byte_identically() {
        let v = victim_by_name("stack_exposed").unwrap();
        let r = rse_inject::reference(&v.workload);
        let opts = CampaignOptions::default();
        let rec = run_one_with(v, AttackModel::StackSmash, 0, 0xFEED, &r, &opts);
        let again = run_one_with(v, AttackModel::StackSmash, 0, 0xFEED, &r, &opts);
        assert_eq!(rec.to_json(), again.to_json());
        assert!(!rec.defended);
    }

    /// A mixed mini-campaign across the harness flavors whose output the
    /// tiered and sharded paths must reproduce byte-for-byte.
    fn mini_spec() -> AttackSpec {
        AttackSpec {
            base_seed: 0xD5B,
            cells: vec![
                AttackCell {
                    victim: "stack_guard",
                    model: AttackModel::StackSmash,
                    runs: 2,
                },
                AttackCell {
                    victim: "branch_guard",
                    model: AttackModel::CfhRedirect,
                    runs: 2,
                },
                AttackCell {
                    victim: "nx_guard",
                    model: AttackModel::NxProbe,
                    runs: 2,
                },
            ],
        }
    }

    #[test]
    fn tiered_and_sharded_campaigns_are_byte_identical() {
        let spec = mini_spec();
        let base = to_jsonl(&run_campaign(&spec));
        for (tiered, threads) in [(true, 1), (false, 3), (true, 16)] {
            let alt = to_jsonl(&run_campaign_with(
                &spec,
                &CampaignOptions {
                    tiered,
                    threads,
                    ..CampaignOptions::default()
                },
            ));
            assert_eq!(base, alt, "tiered={tiered} threads={threads}");
        }
    }
}
