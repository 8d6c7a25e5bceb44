//! Adaptive multi-stage attack chains.
//!
//! The single-shot models of [`crate::model`] fire one planned attack
//! and observe the wreckage. The chain models here are *adaptive*: each
//! stage's plan depends on what the previous stage's module verdict
//! revealed, exactly like the leak-then-strike adversary of the paper's
//! §4.1 entropy argument — but run inside the campaign engine, so one
//! recorded `u64` seed still replays the whole chain byte-for-byte.
//!
//! Three chains are implemented:
//!
//! * [`AttackModel::AdaptiveChain`] — *probe → leak → strike*. Stage 1
//!   fires the nominal-layout attack; if the defense made it miss, the
//!   attacker re-runs the victim attack-free, reads the randomized base
//!   the MLR published in the special header (the information leak),
//!   and strikes again **through the leaked address**. A loss at that
//!   point is classified `evaded:MLR`: the module was beaten around its
//!   randomization, not through it.
//! * [`AttackModel::RecoveryStrike`] — corrupt a live control-flow
//!   word, then keep re-delivering the same corruption while the
//!   checkpoint-rollback recovery re-executes. The rollback is bounded
//!   by [`CampaignOptions::max_rerun`]: a clean re-execution records
//!   `recovered:retry<k>`, an attacker who outlasts the budget forces
//!   an escalation to a quarantined/degraded safe halt instead of a
//!   rollback livelock — never a silent wrong answer.
//! * [`AttackModel::QuarantineEvade`] — flip a bit in the ICM's own
//!   CheckerMemory copy so every pass over the guarded site mismatches;
//!   the watchdog's burst counter quarantines the checker, and the
//!   late-window hijack then sails past the NOP-muxed CHKs. A divergent
//!   result with the checker down is `evaded:ICM` — the containment
//!   question the health machine must answer honestly.

use crate::campaign::{classify, mlr_layout_seed, settled_recovery, verdict, CampaignOptions};
use crate::model::AttackModel;
use crate::outcome::{AttackOutcome, AttackRecord};
use crate::surface::{map_surface, sample_attack, STACK_SLOT_OFFSET};
use crate::victim::Victim;
use rse_inject::{retry_mechanism, FaultPlan, PlannedFault, RecoveryStatus, RefState, Trial};
use rse_isa::asm::assemble;
use rse_isa::layout::{HEAP_BASE, STACK_BASE};
use rse_isa::ModuleId;
use rse_pipeline::SoftFault;
use rse_support::rng::splitmix64;

/// Domain separator for the chain's *stage* draws (strike timing,
/// attacker persistence), so they are independent of the stage-1 plan
/// draws taken from the same recorded seed.
const CHAIN_STAGE_DOMAIN: u64 = 0x4348_4149_4E53_5447; // "CHAINSTG"

/// Address of the MLR's published-layout words in the special header:
/// `+4` holds the randomized stack base, `+8` the randomized heap base
/// (`0` when no MLR ran) — exactly what the victim guests read, and
/// exactly what the leak stage steals.
const MLR_HDR: u32 = 0x0EFF_0040;

/// Whether `model` is a multi-stage chain handled by [`run_chain`]
/// rather than the single-shot runner.
pub fn is_chain_model(model: AttackModel) -> bool {
    matches!(
        model,
        AttackModel::AdaptiveChain | AttackModel::RecoveryStrike | AttackModel::QuarantineEvade
    )
}

/// Executes one adaptive-chain attack run. Dispatches on the chain
/// model; panics if called with a single-shot model (the campaign
/// runner routes only via [`is_chain_model`]).
pub fn run_chain(
    v: &Victim,
    model: AttackModel,
    run: u32,
    seed: u64,
    r: &RefState,
    opts: &CampaignOptions,
) -> AttackRecord {
    match model {
        AttackModel::AdaptiveChain => run_adaptive_chain(v, run, seed, r, opts),
        AttackModel::RecoveryStrike => run_recovery_strike(v, run, seed, r, opts),
        AttackModel::QuarantineEvade => run_quarantine_evade(v, run, seed, r, opts),
        other => panic!("{other} is not a chain model"),
    }
}

/// *Probe → leak → strike*: the adaptive chain against the MLR-guarded
/// (`stack_*`, `got_*`) victims.
fn run_adaptive_chain(
    v: &Victim,
    run: u32,
    seed: u64,
    r: &RefState,
    opts: &CampaignOptions,
) -> AttackRecord {
    let w = &v.workload;
    let image = assemble(w.source).expect("victim workload assembles");
    let surface = map_surface(v, &image);
    let plan = sample_attack(AttackModel::AdaptiveChain, seed, v, &surface, &r.profile);
    let mlr_seed = mlr_layout_seed(v, seed);
    let mut cs = seed ^ CHAIN_STAGE_DOMAIN;
    let record = |outcome, recovery, cycles, attack| AttackRecord {
        victim: w.name,
        defended: v.defended,
        model: AttackModel::AdaptiveChain.name(),
        run,
        seed,
        outcome,
        recovery,
        cycles,
        attack,
    };

    // Stage 1: the nominal-layout probe.
    let probe = Trial::observe(w, &image, r, mlr_seed, &plan);
    let mut cycles = probe.cycles();
    let (outcome, recovery) = classify(&probe, r, opts, AttackOutcome::Compromised);
    if outcome != AttackOutcome::Prevented {
        // The probe resolved the run on its own — a nominal-layout hit
        // (the undefended loss), a detection, or a crash. No adaptation
        // happened, so this is exactly the single-shot classification.
        let attack = format!("chain[probe:{};probe-hit]", plan.describe());
        return record(outcome, recovery, cycles, attack);
    }

    // Stage 2: the probe missed — leak the published layout from an
    // attack-free run under the same layout seed.
    let leak = Trial::observe(w, &image, r, mlr_seed, &FaultPlan { faults: Vec::new() });
    cycles += leak.cycles();
    let hdr = |off| leak.b.cpu.mem().memory.read_u32(MLR_HDR + off);
    let evil = surface.evil.expect("chain victims declare evil");
    let slot = if w.name.starts_with("stack_") {
        let base = if hdr(4) != 0 { hdr(4) } else { STACK_BASE };
        base - STACK_SLOT_OFFSET
    } else if hdr(8) != 0 {
        hdr(8)
    } else {
        HEAP_BASE
    };

    // Stage 3: strike through the leaked address.
    let at_cycle = 1 + splitmix64(&mut cs) % r.profile.cycles.max(1);
    let strike_plan = FaultPlan {
        faults: vec![PlannedFault::Soft(SoftFault::Write {
            at_cycle,
            addr: slot,
            value: evil,
        })],
    };
    let strike = Trial::observe(w, &image, r, mlr_seed, &strike_plan);
    cycles += strike.cycles();
    // A strike loss on the defended twin is attributed to the evaded
    // randomizer: the MLR's diversity was beaten by the leak, not by
    // luck at the nominal base.
    let loss = if v.defended {
        AttackOutcome::Evaded(ModuleId::MLR)
    } else {
        AttackOutcome::Compromised
    };
    let (outcome, recovery) = classify(&strike, r, opts, loss);
    let attack = format!(
        "chain[probe:{};leak:base={slot:#x};strike:mem[{slot:#x}]:={evil:#x}@c{at_cycle}]",
        plan.describe()
    );
    record(outcome, recovery, cycles, attack)
}

/// The recovery-window strike against the checked (`branch_*`, `seq_*`)
/// victims: the primary corruption plus re-delivery into every bounded
/// rollback re-execution the attacker's persistence covers.
fn run_recovery_strike(
    v: &Victim,
    run: u32,
    seed: u64,
    r: &RefState,
    opts: &CampaignOptions,
) -> AttackRecord {
    let w = &v.workload;
    let image = assemble(w.source).expect("victim workload assembles");
    let surface = map_surface(v, &image);
    let plan = sample_attack(AttackModel::RecoveryStrike, seed, v, &surface, &r.profile);
    // Attacker persistence: how many rollback re-executions the strike
    // still lands in (0 = the window clears immediately). Drawn past
    // the retry budget often enough that the escalation path is real.
    let mut cs = seed ^ CHAIN_STAGE_DOMAIN;
    let persist = (splitmix64(&mut cs) % 5) as u32;

    // Stage 1: the primary strike.
    let t = Trial::observe(w, &image, r, None, &plan);
    let outcome = verdict(&t, AttackOutcome::Compromised);

    // Stage 2: recovery under fire. Each rollback re-execution the
    // persistence covers gets the exact same plan re-delivered; a clean
    // attempt records `recovered:retry<k>`. When every attempt diverges,
    // crashes, or times out, the rollback escalates to a degraded safe
    // halt instead of retrying forever (never a silent wrong answer);
    // the cause names `--max-rerun` the way the re-randomization CLI
    // names `--validate-period`, so the operator knows which budget
    // tripped.
    let (outcome, recovery) = match settled_recovery(outcome, t.golden) {
        Some(recovery) => (outcome, recovery),
        None => {
            let attempts = opts.max_rerun.max(1);
            let mut last = String::new();
            let clean = (1..=attempts).find(|&k| {
                let strike = (k <= persist).then_some(&plan);
                t.rerun(r, opts.tiered, strike)
                    .map_err(|cause| last = cause)
                    .is_ok()
            });
            match clean {
                Some(k) => (
                    outcome,
                    RecoveryStatus::Succeeded {
                        mechanism: retry_mechanism(k),
                    },
                ),
                None => {
                    // Budget exhausted: quarantine the attacked surface
                    // instead of livelocking in rollback.
                    let escalated = match outcome {
                        AttackOutcome::Detected(m) => AttackOutcome::Degraded(m),
                        other => other,
                    };
                    let cause = format!(
                        "retry budget exhausted after {attempts} rollback attempts (last: {last}); \
                         raise --max-rerun only if the recovery window is known to clear"
                    );
                    (escalated, RecoveryStatus::FailedSafeHalt { cause })
                }
            }
        }
    };
    AttackRecord {
        victim: w.name,
        defended: v.defended,
        model: AttackModel::RecoveryStrike.name(),
        run,
        seed,
        outcome,
        recovery,
        cycles: t.cycles(),
        attack: format!("rw-strike[{};persist={persist}]", plan.describe()),
    }
}

/// The cross-module evasion against `branch_guard`: forge a mismatch
/// storm out of the ICM's own CheckerMemory until the health machine
/// quarantines it, then hijack through the NOP-muxed blind spot.
fn run_quarantine_evade(
    v: &Victim,
    run: u32,
    seed: u64,
    r: &RefState,
    opts: &CampaignOptions,
) -> AttackRecord {
    let w = &v.workload;
    let image = assemble(w.source).expect("victim workload assembles");
    let surface = map_surface(v, &image);
    let plan = sample_attack(AttackModel::QuarantineEvade, seed, v, &surface, &r.profile);
    let t = Trial::observe(w, &image, r, None, &plan);
    let (outcome, recovery) = classify(&t, r, opts, AttackOutcome::Compromised);
    // Quarantined checker + divergent result: the forged burst bought
    // the attacker a blind spot and the hijack landed in it. The loss is
    // the evaded module's (a golden result means the output-mux
    // containment held: plain `degraded`).
    let outcome = match outcome {
        AttackOutcome::Degraded(m) if !t.golden => AttackOutcome::Evaded(m),
        other => other,
    };
    AttackRecord {
        victim: w.name,
        defended: v.defended,
        model: AttackModel::QuarantineEvade.name(),
        run,
        seed,
        outcome,
        recovery,
        cycles: t.cycles(),
        attack: format!("evade[{}]", plan.describe()),
    }
}
