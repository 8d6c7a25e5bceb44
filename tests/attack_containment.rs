//! Pinned end-to-end attack containment scenarios.
//!
//! The promoted, engine-driven successor of `examples/attack_demo.rs`:
//! where the demo walked one hand-built control-flow hijack through the
//! MLR, these tests replay pinned scenarios from every guard/exposed
//! twin pair through the `rse-attack` campaign engine and assert the
//! *byte-exact* JSON record each seed expands to. The expected strings
//! below are verbatim lines of `tests/golden/attack_smoke.jsonl` and
//! `tests/golden/attack_adaptive.jsonl`, so a drift in seed derivation,
//! attack planning, classification, recovery tagging, or JSON shape
//! fails here with a readable diff long before the golden-file
//! comparison in CI does.

use rse_attack::{
    derive_seed, run_one_with, victim_by_name, victims, AttackModel, AttackOutcome, CampaignOptions,
};
use rse_inject::{reference, retry_mechanism, RecoveryStatus};
use rse_isa::ModuleId;
use rse_sys::DEFAULT_MAX_RERUN;

/// Base seed shared with `attack_campaign --smoke` and `scripts/ci.sh`.
const BASE_SEED: u64 = 0xD5B;

/// Replays `(victim, model, run)` from the campaign base seed, once
/// cycle-accurate and once with the functional-tier re-execution, and
/// asserts both records serialize byte-for-byte to the pinned golden
/// line. Seed-replayability is the engine's core contract: the same
/// seed must expand to the same attack and the same outcome, always —
/// and tiering may only change how fast.
fn assert_pinned(victim: &str, model: AttackModel, run: u32, golden: &str) {
    let v = victim_by_name(victim).expect("victim exists");
    let r = reference(&v.workload);
    let seed = derive_seed(BASE_SEED, victim, model, run);
    for tiered in [false, true] {
        let opts = CampaignOptions {
            tiered,
            ..CampaignOptions::default()
        };
        let rec = run_one_with(v, model, run, seed, &r, &opts);
        assert_eq!(
            rec.to_json(),
            golden,
            "{victim}/{}/run{run} drifted (tiered={tiered})",
            model.name()
        );
    }
}

/// The control group end to end: with no attack armed, every victim —
/// guarded or exposed — runs to its golden result, classifies
/// `prevented`, and engages no recovery machinery.
#[test]
fn control_runs_are_prevented_on_every_victim() {
    for v in victims() {
        let name = v.workload.name;
        let r = reference(&v.workload);
        let seed = derive_seed(BASE_SEED, name, AttackModel::Control, 0);
        let rec = run_one_with(
            v,
            AttackModel::Control,
            0,
            seed,
            &r,
            &CampaignOptions::default(),
        );
        assert_eq!(rec.outcome.tag(), "prevented", "{name}: {}", rec.to_json());
        assert_eq!(rec.recovery.tag(), "not-needed", "{name}");
        assert_eq!(rec.attack, "none", "{name}");
    }
}

/// The `attack_demo` scenario, engine-driven: a stack smash through the
/// hard-coded nominal address misses the MLR-randomized slot (guard
/// twin, `prevented`) and lands on the fixed layout (exposed twin,
/// `compromised`).
#[test]
fn stack_smash_pinned_pair() {
    assert_pinned(
        "stack_guard",
        AttackModel::StackSmash,
        0,
        r#"{"victim":"stack_guard","defended":true,"model":"stack-smash","run":0,"seed":7919462994826143190,"outcome":"prevented","recovery":"not-needed","cycles":635,"attack":"mem[0x7fffefc0]:=0x00400070@c476"}"#,
    );
    assert_pinned(
        "stack_exposed",
        AttackModel::StackSmash,
        1,
        r#"{"victim":"stack_exposed","defended":false,"model":"stack-smash","run":1,"seed":15054105865020624116,"outcome":"compromised","recovery":"not-needed","cycles":555,"attack":"mem[0x7fffefc0]:=0x00400070@c168"}"#,
    );
}

/// GOT-style pointer-table tampering: the nominal-address write misses
/// the randomized table under MLR and corrupts it on the fixed layout.
#[test]
fn got_tamper_pinned_pair() {
    assert_pinned(
        "got_guard",
        AttackModel::GotTamper,
        0,
        r#"{"victim":"got_guard","defended":true,"model":"got-tamper","run":0,"seed":16684351585530023248,"outcome":"prevented","recovery":"not-needed","cycles":790,"attack":"mem[0x18000000]:=0x00400094@c466"}"#,
    );
    assert_pinned(
        "got_exposed",
        AttackModel::GotTamper,
        0,
        r#"{"victim":"got_exposed","defended":false,"model":"got-tamper","run":0,"seed":16001797290474241168,"outcome":"compromised","recovery":"not-needed","cycles":556,"attack":"mem[0x18000000]:=0x00400094@c403"}"#,
    );
}

/// The NX case: shellcode staged in a writable data page trips the
/// DDT's non-executable check on the guard twin — and the divergent
/// state it left is repaired by checkpoint rollback — while the
/// exposed twin executes the payload outright.
#[test]
fn nx_probe_pinned_pair() {
    assert_pinned(
        "nx_guard",
        AttackModel::NxProbe,
        0,
        r#"{"victim":"nx_guard","defended":true,"model":"nx-probe","run":0,"seed":5002744442157867800,"outcome":"detected:DDT","recovery":"recovered:checkpoint-rollback","cycles":513,"attack":"mem[0x10000004]:=0x20020002@c175; mem[0x10000008]:=0x2004029a@c175; mem[0x1000000c]:=0x0000000c@c175; mem[0x10000010]:=0x20020001@c175; mem[0x10000014]:=0x20040000@c175; mem[0x10000018]:=0x0000000c@c175; mem[0x10000000]:=0x10000004@c175"}"#,
    );
    assert_pinned(
        "nx_exposed",
        AttackModel::NxProbe,
        0,
        r#"{"victim":"nx_exposed","defended":false,"model":"nx-probe","run":0,"seed":16835403033979038098,"outcome":"compromised","recovery":"not-needed","cycles":520,"attack":"mem[0x10000004]:=0x20020002@c62; mem[0x10000008]:=0x2004029a@c62; mem[0x1000000c]:=0x0000000c@c62; mem[0x10000010]:=0x20020001@c62; mem[0x10000014]:=0x20040000@c62; mem[0x10000018]:=0x0000000c@c62; mem[0x10000000]:=0x10000004@c62"}"#,
    );
}

/// The outcome vocabulary is an external contract: golden JSONL files,
/// `scripts/ci.sh` greps, and downstream consumers all match on these
/// exact spellings. Pin every token the adaptive work added (plus the
/// load-bearing old ones) so a rename fails here with a readable diff
/// instead of as a cryptic golden mismatch.
#[test]
fn outcome_and_model_token_spellings_are_pinned() {
    assert_eq!(AttackModel::AdaptiveChain.name(), "chain-adaptive");
    assert_eq!(AttackModel::RecoveryStrike.name(), "recovery-strike");
    assert_eq!(AttackModel::QuarantineEvade.name(), "quarantine-evade");
    assert_eq!(AttackModel::InstSkip.name(), "inst-skip");

    assert_eq!(AttackOutcome::Detected(ModuleId::DSM).tag(), "detected:DSM");
    assert_eq!(AttackOutcome::Evaded(ModuleId::ICM).tag(), "evaded:ICM");
    assert_eq!(AttackOutcome::Evaded(ModuleId::MLR).tag(), "evaded:MLR");
    assert_eq!(AttackOutcome::Degraded(ModuleId::DSM).tag(), "degraded:DSM");

    assert_eq!(RecoveryStatus::NotNeeded.tag(), "not-needed");
    assert_eq!(retry_mechanism(1), "retry1");
    assert_eq!(retry_mechanism(8), "retry8");
    assert_eq!(retry_mechanism(99), "retry8", "retry mechanism is clamped");
    assert_eq!(
        RecoveryStatus::Succeeded {
            mechanism: retry_mechanism(2)
        }
        .tag(),
        "recovered:retry2"
    );
    let halt = RecoveryStatus::FailedSafeHalt {
        cause: "retry budget exhausted after 3 rollback attempts (last: x); \
                raise --max-rerun only if the recovery window is known to clear"
            .into(),
    };
    assert_eq!(halt.tag(), "failed-safe-halt");
    match &halt {
        RecoveryStatus::FailedSafeHalt { cause } => {
            assert!(cause.contains("--max-rerun"), "cause must name the flag")
        }
        _ => unreachable!(),
    }
}

/// The DSM closing the inst-skip gap: a NOP-muxed fetch preserves every
/// ICM invariant (no word changed in memory) yet shortens the committed
/// basic block, so the sequence monitor's executed-word count diverges
/// from the static signature — `detected:DSM` on the guard twin where
/// the bare twin silently computes the wrong sum. Pinned lines are
/// verbatim from `tests/golden/attack_adaptive.jsonl`.
#[test]
fn inst_skip_dsm_pinned_pair() {
    assert_pinned(
        "seq_guard",
        AttackModel::InstSkip,
        0,
        r#"{"victim":"seq_guard","defended":true,"model":"inst-skip","run":0,"seed":17125397809732441317,"outcome":"detected:DSM","recovery":"recovered:checkpoint-rollback","cycles":618,"attack":"fetch[412]=nop"}"#,
    );
    assert_pinned(
        "seq_exposed",
        AttackModel::InstSkip,
        0,
        r#"{"victim":"seq_exposed","defended":false,"model":"inst-skip","run":0,"seed":5012233008048169099,"outcome":"compromised","recovery":"not-needed","cycles":612,"attack":"fetch[1069]=nop"}"#,
    );
}

/// The recovery-window property: a strike re-armed during rollback
/// re-execution either yields a *clean* recovery (`recovered:retry<k>`
/// within the budget — the engine only reports success when the re-run
/// digest matches golden) or escalates out of the retry loop
/// (`failed-safe-halt` naming the `--max-rerun` budget, or quarantine).
/// A defended victim never ends `compromised`, and no record ever pairs
/// a divergent end state with silent `not-needed` recovery — silent SDC
/// under attack is the one forbidden square.
#[test]
fn recovery_window_strikes_recover_cleanly_or_escalate() {
    let mut escalations = 0;
    let mut retries = 0;
    for victim in ["seq_guard", "branch_guard"] {
        let v = victim_by_name(victim).expect("victim exists");
        let r = reference(&v.workload);
        for run in 0..8 {
            let seed = derive_seed(BASE_SEED, victim, AttackModel::RecoveryStrike, run);
            let opts = CampaignOptions::default();
            let rec = run_one_with(v, AttackModel::RecoveryStrike, run, seed, &r, &opts);
            let outcome = rec.outcome.tag();
            let recovery = rec.recovery.tag();
            assert_ne!(
                outcome,
                "compromised",
                "{victim}/run{run}: defended victim lost silently: {}",
                rec.to_json()
            );
            match recovery.as_str() {
                s if s.starts_with("recovered:retry") => {
                    let k: u32 = s["recovered:retry".len()..].parse().expect("retry count");
                    assert!(
                        (1..=DEFAULT_MAX_RERUN).contains(&k),
                        "{victim}/run{run}: retry count {k} outside budget"
                    );
                    retries += 1;
                }
                "recovered:checkpoint-rollback"
                | "recovered:flush-refetch"
                | "recovered:quarantine-nop-mux"
                | "not-needed" => {}
                "failed-safe-halt" => {
                    assert!(
                        rec.to_json().contains("--max-rerun"),
                        "{victim}/run{run}: escalation cause must name the flag: {}",
                        rec.to_json()
                    );
                    escalations += 1;
                }
                other => panic!("{victim}/run{run}: unexpected recovery tag {other}"),
            }
        }
    }
    // The pinned seeds must actually exercise both halves of the
    // property, or this test is vacuous.
    assert!(retries > 0, "no run recovered through the retry budget");
    assert!(escalations > 0, "no run escalated past the retry budget");
}

/// Control-flow hijack via branch redirection: the ICM's redundant
/// invariant copy flags the rewritten branch word (the module reports
/// `degraded` because the tampered text disagrees with its store), and
/// rollback re-execution recovers the golden run; the exposed twin
/// jumps straight into the gadget.
#[test]
fn cfh_redirect_pinned_pair() {
    assert_pinned(
        "branch_guard",
        AttackModel::CfhRedirect,
        0,
        r#"{"victim":"branch_guard","defended":true,"model":"cfh-redirect","run":0,"seed":18267198131702743327,"outcome":"degraded:ICM","recovery":"recovered:checkpoint-rollback","cycles":627,"attack":"mem[0x00400014]:=0x0810000b@c543"}"#,
    );
    assert_pinned(
        "branch_exposed",
        AttackModel::CfhRedirect,
        0,
        r#"{"victim":"branch_exposed","defended":false,"model":"cfh-redirect","run":0,"seed":16880743320931427420,"outcome":"compromised","recovery":"not-needed","cycles":113,"attack":"mem[0x00400014]:=0x0810000b@c102"}"#,
    );
}

/// The recovery-window strike through both ends of the bounded rollback:
/// a strike re-armed into the first re-execution only, cleared on the
/// second (`recovered:retry2`; that attempt carries no strike, so it is
/// the one the tiered replay moves to the functional tier), and a strike
/// that outlasts the default budget on the DSM twin, escalating to
/// `degraded:DSM` with the full `--max-rerun` cause. Pinned lines are
/// verbatim from `tests/golden/attack_adaptive.jsonl`.
#[test]
fn recovery_strike_retry_and_escalation_pinned() {
    assert_pinned(
        "branch_guard",
        AttackModel::RecoveryStrike,
        0,
        r#"{"victim":"branch_guard","defended":true,"model":"recovery-strike","run":0,"seed":424323461306852234,"outcome":"degraded:ICM","recovery":"recovered:retry2","cycles":716,"attack":"rw-strike[mem[0x00400014]^=0x00000001@c102;persist=1]"}"#,
    );
    assert_pinned(
        "seq_guard",
        AttackModel::RecoveryStrike,
        1,
        r#"{"victim":"seq_guard","defended":true,"model":"recovery-strike","run":1,"seed":12364547385147806663,"outcome":"degraded:DSM","recovery":"failed-safe-halt","recovery_cause":"retry budget exhausted after 3 rollback attempts (last: re-executed state diverged from golden); raise --max-rerun only if the recovery window is known to clear","cycles":369,"attack":"rw-strike[mem[0x00400024]^=0x10000000@c361;persist=3]"}"#,
    );
}

/// The other two chains: a forged-burst quarantine of the ICM followed
/// by a hijack that lands in the blind spot (`evaded:ICM`, repaired by
/// one checkpoint rollback), and the full probe → leak → strike chain
/// beating the MLR through its leaked base (`evaded:MLR`). Pinned lines
/// are verbatim from `tests/golden/attack_adaptive.jsonl`.
#[test]
fn quarantine_evade_and_adaptive_chain_pinned() {
    assert_pinned(
        "branch_guard",
        AttackModel::QuarantineEvade,
        0,
        r#"{"victim":"branch_guard","defended":true,"model":"quarantine-evade","run":0,"seed":7333478396815594337,"outcome":"evaded:ICM","recovery":"recovered:checkpoint-rollback","cycles":522,"attack":"evade[mem[0x30000008]^=0x00100000@c91; mem[0x00400014]:=0x0810000b@c511]"}"#,
    );
    assert_pinned(
        "stack_guard",
        AttackModel::AdaptiveChain,
        0,
        r#"{"victim":"stack_guard","defended":true,"model":"chain-adaptive","run":0,"seed":13581917778415344286,"outcome":"evaded:MLR","recovery":"not-needed","cycles":1905,"attack":"chain[probe:mem[0x7fffefc0]:=0x00400070@c513;leak:base=0x7f394fc0;strike:mem[0x7f394fc0]:=0x400070@c245]"}"#,
    );
}
