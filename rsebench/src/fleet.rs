//! The `fleet` workload: the 1,000-node churn smoke, the 5-node soak
//! smoke, and the budgeted model-checker runs over 2-, 3- and 4-node
//! fleets.

use crate::report::{Checks, Sheet};
use crate::trace::{unit, Tracer};
use crate::Goldens;
use rse_fleet::{churn_to_jsonl, ChurnRecord, ChurnSpec, FleetSpec, SoakOptions};
use rse_inject::{Outcome, RunRecord};
use rse_mc::models::fleet::FleetModel;
use rse_mc::{explore, Options, Stats};
use std::time::Instant;

/// Base seed the fleet soak and churn goldens were cut with, and of
/// every `fleet` pass: a churn plan's cost depends on the seed it is
/// sampled from, so a fixed base seed makes every run time the same
/// job and checks both goldens in every run.
pub const GOLDEN_SEED: u64 = 0xF1EE7;

/// Fleet sizes the model checker closes exhaustively under its window
/// budget.
pub const MC_SIZES: [u16; 3] = [2, 3, 4];

/// Explorations of each model per pass: one takes milliseconds, too
/// short to time alone.
const MC_REPS: u32 = 100;

/// Churn models of the smoke spec, in spec order.
pub const CHURN_MODELS: [&str; 3] = ["steady", "rack-partition", "full-weather"];

/// Golden file names: churn smoke, soak smoke.
pub const GOLDEN_FILES: [&str; 2] = ["churn_smoke.jsonl", "fleet_soak_smoke.jsonl"];

fn mc_options() -> Options {
    Options {
        max_depth: 64,
        max_states: 1 << 22,
    }
}

/// One pass over the fleet workload at one base seed.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Base seed.
    pub base: u64,
    /// Churn records.
    pub churn: Vec<ChurnRecord>,
    /// Soak records.
    pub soak: Vec<RunRecord>,
    /// JSONL in [`GOLDEN_FILES`] order.
    pub jsonl: [String; 2],
    /// Model-checker statistics and verdicts per fleet size (last rep).
    pub mc: Vec<(u16, Stats, bool)>,
    /// Host nanoseconds in the churn campaign and its JSONL.
    pub churn_ns: u64,
    /// Host nanoseconds in the soak campaign and its JSONL.
    pub soak_ns: u64,
    /// Host nanoseconds in the model checker.
    pub mc_ns: u64,
    /// States explored across all reps.
    pub mc_states: u64,
}

/// Zeroes every per-layer name this workload reports.
pub fn declare_layers(sheet: &mut Sheet) {
    sheet.add("fleet.witness_ns", 0.0, "ns");
    sheet.add("fleet.soak.run_ns", 0.0, "ns");
    for m in CHURN_MODELS {
        sheet.add(format!("fleet.churn.run_ns.{m}"), 0.0, "ns");
        sheet.add(format!("fleet.churn.events.{m}"), 0.0, "count");
    }
    for n in MC_SIZES {
        sheet.add(format!("mc.states.n{n}"), 0.0, "count");
        sheet.add(format!("mc.transitions.n{n}"), 0.0, "count");
        sheet.add(format!("mc.explore_ns.n{n}"), 0.0, "ns");
    }
}

/// Runs one whole pass at base seed `base` through the runners the
/// `fleet_soak` and `mc_fleet` binaries use: `run_churn` once per churn
/// model and `run_soak_with` once per fault model, each on a one-cell
/// spec (a run's seed depends only on the base seed, its model and its
/// index, so together they are the whole spec's records; each soak call
/// also re-derives the fleet's timing profile, about 2% of its time),
/// and every exploration. Each call is timed on its own (under a span
/// when `tr` is given) and its host nanoseconds appended to `units`;
/// per-layer metrics are added to `sheet`.
pub fn run(
    base: u64,
    mut tr: Option<&mut Tracer>,
    sheet: &mut Sheet,
    units: &mut Vec<u64>,
) -> Pass {
    let spec = ChurnSpec::smoke(base);
    let t = Instant::now();
    let mut churn = Vec::new();
    for cell in &spec.cells {
        let one = ChurnSpec {
            cells: vec![*cell],
            ..spec.clone()
        };
        let m = cell.model.name();
        let (r, ns) = unit(
            tr.as_deref_mut(),
            units,
            &format!("fleet.churn.{m}"),
            || rse_fleet::run_churn(&one),
        );
        sheet.add(format!("fleet.churn.run_ns.{m}"), ns as f64, "ns");
        let events: u64 = r.iter().map(|r| r.events).sum();
        sheet.add(format!("fleet.churn.events.{m}"), events as f64, "count");
        churn.extend(r);
    }
    let (cj, _) = unit(tr.as_deref_mut(), units, "fleet.churn.jsonl", || {
        churn_to_jsonl(&churn)
    });
    let churn_ns = t.elapsed().as_nanos() as u64;

    let t = Instant::now();
    let soak_spec = FleetSpec::smoke(base);
    let mut soak = Vec::new();
    for cell in &soak_spec.cells {
        let one = FleetSpec {
            cells: vec![*cell],
            ..soak_spec.clone()
        };
        let (r, ns) = unit(tr.as_deref_mut(), units, "fleet.soak", || {
            rse_fleet::run_soak_with(&one, &SoakOptions::default())
        });
        sheet.add("fleet.soak.run_ns", ns as f64, "ns");
        soak.extend(r);
    }
    let (sj, _) = unit(tr.as_deref_mut(), units, "fleet.soak.jsonl", || {
        rse_inject::to_jsonl(&soak)
    });
    let soak_ns = t.elapsed().as_nanos() as u64;

    let (mut mc, mut mc_ns, mut mc_states) = (Vec::new(), 0, 0);
    for rep in 0..MC_REPS {
        for n in MC_SIZES {
            let (report, ns) = unit(
                tr.as_deref_mut(),
                units,
                &format!("mc.explore.n{n}"),
                || explore(&FleetModel::standard(n), &mc_options()),
            );
            sheet.add(format!("mc.explore_ns.n{n}"), ns as f64, "ns");
            mc_ns += ns;
            mc_states += report.stats.states as u64;
            if rep + 1 == MC_REPS {
                let s = report.stats;
                sheet.set(format!("mc.states.n{n}"), s.states as f64, "count");
                sheet.set(
                    format!("mc.transitions.n{n}"),
                    s.transitions as f64,
                    "count",
                );
                mc.push((n, s, report.violation.is_none()));
            }
        }
    }
    Pass {
        base,
        churn,
        soak,
        jsonl: [cj, sj],
        mc,
        churn_ns,
        soak_ns,
        mc_ns,
        mc_states,
    }
}

/// Correctness: byte-identical goldens at [`GOLDEN_SEED`]; at every
/// seed zero split-brain and an exhaustive, violation-free model check.
pub fn check(p: &Pass, goldens: &Goldens, checks: &mut Checks) {
    if p.base == GOLDEN_SEED {
        for (file, got) in GOLDEN_FILES.iter().zip(&p.jsonl) {
            checks.check(goldens.matches(file, got), || {
                format!("fleet output differs from tests/golden/{file}")
            });
        }
    }
    for r in &p.churn {
        checks.check(r.split_brain == 0, || {
            format!(
                "churn run {} saw {} split-brain completions",
                r.model, r.split_brain
            )
        });
    }
    for r in &p.soak {
        checks.check(r.outcome != Outcome::SplitBrain, || {
            format!("soak run {}/{} ended split-brain", r.model, r.run)
        });
    }
    for (n, stats, ok) in &p.mc {
        checks.check(*ok, || format!("model checker found a violation at n={n}"));
        checks.check(!stats.truncated, || {
            format!("model check at n={n} did not close exhaustively")
        });
    }
}

/// The workload's headline figures from an untraced pass: churn events,
/// soak runs and model-checker states per host second, and the
/// simulated mean churn availability.
pub fn headline(p: &Pass, sheet: &mut Sheet) {
    let per_s = |work: u64, ns: u64| work as f64 * 1e9 / ns as f64;
    let events: u64 = p.churn.iter().map(|r| r.events).sum();
    sheet.set("churn_events_per_s", per_s(events, p.churn_ns), "1/s");
    sheet.set(
        "soak_runs_per_s",
        per_s(p.soak.len() as u64, p.soak_ns),
        "1/s",
    );
    sheet.set("mc_states_per_s", per_s(p.mc_states, p.mc_ns), "1/s");
    let ppm: u64 = p.churn.iter().map(|r| r.availability_ppm).sum();
    sheet.set(
        "churn_availability_ppm",
        ppm as f64 / p.churn.len() as f64,
        "ppm",
    );
}

/// Whether two passes produced the same records and model-check
/// results.
pub fn same(a: &Pass, b: &Pass) -> bool {
    a.jsonl == b.jsonl
        && a.mc.len() == b.mc.len()
        && a.mc.iter().zip(&b.mc).all(|(x, y)| {
            x.0 == y.0
                && x.1.states == y.1.states
                && x.1.transitions == y.1.transitions
                && x.2 == y.2
        })
}
