//! # rsebench — the RSE workspace benchmark
//!
//! One command times one of two seeded batch workloads (`sim-paper`,
//! `campaigns-fleet`), checks that its outputs are correct, and prints
//! the end-to-end metrics by name and unit; `--trace 1` runs all three
//! parts of them (`sim-paper`, `campaigns`, `fleet`) and gives the
//! per-layer numbers instead. Every number is taken from outside the
//! simulator: timers around calls into each crate's public functions,
//! and the crates' public stats structs. See `README.md`.

#![forbid(unsafe_code)]

pub mod campaigns;
pub mod fleet;
pub mod host;
pub mod report;
pub mod sim_paper;
pub mod trace;

use report::{median, Checks, Sheet};
use std::time::Instant;
use trace::{timed, Tracer};

/// The parts the workloads are made of. A traced run goes through all
/// three, one after another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// Long cycle-accurate paper guests.
    SimPaper,
    /// Fault-injection campaigns.
    Campaigns,
    /// Fleet churn, soak and model checking.
    Fleet,
}

impl Part {
    /// All parts, in traced-run order.
    pub const ALL: [Part; 3] = [Part::SimPaper, Part::Campaigns, Part::Fleet];

    /// Name, as in span and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Part::SimPaper => "sim-paper",
            Part::Campaigns => "campaigns",
            Part::Fleet => "fleet",
        }
    }
}

/// The benchmark's workloads; a timed run measures the one named on the
/// command line. `campaigns` and `fleet` are one workload, so that each
/// timed run can be long enough to replay every unit of work many times
/// (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `sim-paper` part.
    SimPaper,
    /// The `campaigns` part, then the `fleet` part.
    CampaignsFleet,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 2] = [Workload::SimPaper, Workload::CampaignsFleet];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPaper => "sim-paper",
            Workload::CampaignsFleet => "campaigns-fleet",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The parts the workload runs, in order.
    pub fn parts(self) -> &'static [Part] {
        match self {
            Workload::SimPaper => &[Part::SimPaper],
            Workload::CampaignsFleet => &[Part::Campaigns, Part::Fleet],
        }
    }
}

/// Set-ups timed before each pass of a timed run; `setup_s` is the
/// median of all of them, so it samples the whole run.
const SETUP_REPS: usize = 3;

/// Passes of a timed run at the least, however long they take.
const MIN_PASSES: usize = 3;

/// The pinned JSONL goldens, read once during set-up (never written).
#[derive(Debug, Clone)]
pub struct Goldens(Vec<(&'static str, Option<String>)>);

impl Goldens {
    /// Reads `tests/golden/<file>` for every golden the workloads
    /// compare against, relative to the working directory.
    pub fn load() -> Goldens {
        Goldens(
            campaigns::GOLDEN_FILES
                .iter()
                .chain(&fleet::GOLDEN_FILES)
                .map(|&f| (f, std::fs::read_to_string(format!("tests/golden/{f}")).ok()))
                .collect(),
        )
    }

    /// Whether `got` equals the golden `file` byte for byte (`false` if
    /// the golden could not be read).
    pub fn matches(&self, file: &str, got: &str) -> bool {
        self.0
            .iter()
            .any(|(f, g)| *f == file && g.as_deref() == Some(got))
    }
}

/// Command-line options.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload a timed run measures; a traced run starts with it.
    pub workload: Workload,
    /// Seed of the `sim-paper` kernel data; `None` uses Table 4's.
    pub seed: Option<u64>,
    /// Seconds a timed run measures for.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Everything set-up builds: the `sim-paper` guests (generated from the
/// seed and assembled) and the goldens.
struct Setup {
    sim: sim_paper::Inputs,
    goldens: Goldens,
    generate_ns: u64,
    assemble_ns: u64,
}

fn setup(seed: Option<u64>) -> Setup {
    let (mut generate_ns, mut assemble_ns) = (0, 0);
    let sim = sim_paper::inputs(seed, &mut generate_ns, &mut assemble_ns);
    Setup {
        sim,
        goldens: Goldens::load(),
        generate_ns,
        assemble_ns,
    }
}

/// The result of a run: checks, metrics, and the diagnostics printed
/// beside them.
pub struct Outcome {
    /// Correctness checks.
    pub checks: Checks,
    /// The metrics of this run.
    pub sheet: Sheet,
    /// Calibration kernel times, ms, labelled with when they were taken.
    pub calibration: Vec<(String, f64)>,
    /// Host seconds of every measured pass (timed runs only).
    pub passes: Vec<f64>,
    /// Recorded spans (traced runs only).
    pub spans: Option<Tracer>,
}

/// What a timed run measured.
struct Measured {
    /// Host seconds of every timed set-up.
    setup: Vec<f64>,
    /// Host nanoseconds of every unit of work (one guest run; one
    /// campaign reference, run or JSONL rendering; one churn model, soak,
    /// JSONL rendering or exploration), per pass.
    passes: Vec<Vec<u64>>,
}

/// Runs `pass` at least [`MIN_PASSES`] times, and then as long as one
/// more pass (of the average length so far) still ends within
/// `args.seconds`, timing [`SETUP_REPS`] set-ups before each. Checks the
/// first pass with `check` and every later one against it with `same`
/// (each pass replays the same inputs). `pass` returns its result and
/// the host time of each of its units of work.
fn repeat<P>(
    args: &Args,
    checks: &mut Checks,
    mut pass: impl FnMut() -> (P, Vec<u64>),
    check: impl Fn(&P, &mut Checks),
    same: impl Fn(&P, &P) -> bool,
) -> Measured {
    let start = Instant::now();
    let mut m = Measured {
        setup: Vec::new(),
        passes: Vec::new(),
    };
    let mut first = None;
    loop {
        let done = m.passes.len();
        let next_end = start.elapsed().as_secs_f64() * (done + 1) as f64 / done.max(1) as f64;
        if done >= MIN_PASSES && next_end > args.seconds as f64 {
            break;
        }
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            std::hint::black_box(setup(args.seed));
            m.setup.push(t.elapsed().as_secs_f64());
        }
        let (p, units) = pass();
        m.passes.push(units);
        match &first {
            None => {
                check(&p, checks);
                first = Some(p);
            }
            Some(f) => checks.check(same(f, &p), || {
                format!("pass {} did not replay the first exactly", m.passes.len())
            }),
        }
    }
    m
}

/// The end-to-end run: whole passes of the named workload over the same
/// inputs (see [`repeat`]), with the calibration kernel timed before
/// and after.
///
/// `wall_s` is the sum over the pass's units of work of each unit's
/// fastest time in any pass. Every pass does the same work, and on a
/// shared host the noise only adds time: the process is not preempted
/// (its CPU time equals its wall time), but a neighbour slows the
/// simulator by up to 1.8× in phases, so identical fleet passes took
/// 2.1–3.8 s within one run. The fastest replay of each unit is the
/// cost of the work itself; every pass time is still printed beside the
/// result.
pub fn run_timed(args: &Args) -> Outcome {
    let s = setup(args.seed);
    let mut checks = Checks::default();
    let mut calibration = vec![("before".to_string(), host::calibrate_ms())];
    let m = match args.workload {
        Workload::SimPaper => repeat(
            args,
            &mut checks,
            || {
                let p = sim_paper::run(&s.sim, None);
                let units = p.unit_ns();
                (p, units)
            },
            |p, c| sim_paper::check(&s.sim, p, c),
            sim_paper::same,
        ),
        Workload::CampaignsFleet => repeat(
            args,
            &mut checks,
            || {
                let mut units = Vec::new();
                let c = campaigns::run_pieces(None, &mut Sheet::default(), &mut units);
                let f = fleet::run(fleet::GOLDEN_SEED, None, &mut Sheet::default(), &mut units);
                ((c, f), units)
            },
            |(c, f), ch| {
                campaigns::check(c, &s.goldens, ch);
                fleet::check(f, &s.goldens, ch);
            },
            |a, b| a.0.jsonl == b.0.jsonl && fleet::same(&a.1, &b.1),
        ),
    };
    calibration.push(("after".to_string(), host::calibrate_ms()));
    let fastest: u64 = (0..m.passes[0].len())
        .map(|i| {
            m.passes
                .iter()
                .filter_map(|p| p.get(i))
                .min()
                .copied()
                .unwrap_or(0)
        })
        .sum();
    let mut sheet = Sheet::default();
    sheet.set("setup_s", median(&m.setup), "s");
    sheet.set("wall_s", fastest as f64 / 1e9, "s");
    sheet.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    sheet.set("passed_pct", checks.passed_pct(), "%");
    Outcome {
        checks,
        sheet,
        calibration,
        passes: m
            .passes
            .iter()
            .map(|p| p.iter().sum::<u64>() as f64 / 1e9)
            .collect(),
        spans: None,
    }
}

/// The named workload's parts first, then the others.
fn order(first: Workload) -> Vec<Part> {
    let mine = first.parts();
    mine.iter()
        .copied()
        .chain(Part::ALL.into_iter().filter(|p| !mine.contains(p)))
        .collect()
}

/// The per-layer run: for each part one untraced pass, then one traced
/// pass of the same inputs. The traced pass must simulate exactly what
/// the untraced one did; the ratio of their host times is the part's
/// tracing overhead. The parts' headline figures come from the
/// untraced passes.
pub fn run_traced(args: &Args) -> Outcome {
    let mut tr = Tracer::default();
    let (s, _) = tr.span("setup", |_| setup(args.seed));
    let mut checks = Checks::default();
    let mut layers = Sheet::default();
    campaigns::declare_layers(&mut layers);
    fleet::declare_layers(&mut layers);
    layers.set("isa.assemble_ns", s.assemble_ns as f64, "ns");
    layers.set("workloads.generate_ns", s.generate_ns as f64, "ns");
    let mut calibration = Vec::new();
    for part in order(args.workload) {
        let before = host::calibrate_ms();
        let (plain_ns, traced_ns) = match part {
            Part::SimPaper => {
                let (plain, plain_ns) = timed(None, "", || sim_paper::run(&s.sim, None));
                sim_paper::check(&s.sim, &plain, &mut checks);
                let (traced, traced_ns) = tr.span("sim-paper", |t| sim_paper::run(&s.sim, Some(t)));
                checks.check(sim_paper::same(&plain, &traced), || {
                    "traced sim-paper pass simulated differently".into()
                });
                sim_paper::headline(&plain, &mut layers);
                sim_paper::layers(&traced, &mut layers);
                (plain_ns, traced_ns)
            }
            Part::Campaigns => {
                let (plain, plain_ns) = timed(None, "", campaigns::run);
                campaigns::check(&plain, &s.goldens, &mut checks);
                let (traced, traced_ns) = tr.span("campaigns", |t| {
                    campaigns::run_pieces(Some(t), &mut layers, &mut Vec::new())
                });
                checks.check(plain.jsonl == traced.jsonl, || {
                    "traced campaign JSONL differs from run_campaign_with".into()
                });
                campaigns::headline(&plain, &mut layers);
                layers.set(
                    "inject.hang_time_share",
                    campaigns::hang_time_share(&layers),
                    "ratio",
                );
                (plain_ns, traced_ns)
            }
            Part::Fleet => {
                // Measured once per process, before either pass uses it.
                let (_, ns) = tr.span("fleet.witness", |_| rse_fleet::witness_quanta().len());
                layers.set("fleet.witness_ns", ns as f64, "ns");
                let base = fleet::GOLDEN_SEED;
                let (plain, plain_ns) = timed(None, "", || {
                    fleet::run(base, None, &mut Sheet::default(), &mut Vec::new())
                });
                fleet::check(&plain, &s.goldens, &mut checks);
                let (traced, traced_ns) = tr.span("fleet", |t| {
                    fleet::run(base, Some(t), &mut layers, &mut Vec::new())
                });
                checks.check(fleet::same(&plain, &traced), || {
                    format!("traced fleet output differs at base seed {base}")
                });
                // The pass runs the churn and soak specs model by model;
                // their records must be the whole specs'.
                let whole = rse_fleet::churn_to_jsonl(&rse_fleet::run_churn(
                    &rse_fleet::ChurnSpec::smoke(base),
                ));
                checks.check(whole == plain.jsonl[0], || {
                    format!("churn model by model differs from run_churn at base seed {base}")
                });
                let whole = rse_inject::to_jsonl(&rse_fleet::run_soak_with(
                    &rse_fleet::FleetSpec::smoke(base),
                    &rse_fleet::SoakOptions::default(),
                ));
                checks.check(whole == plain.jsonl[1], || {
                    format!("soak model by model differs from run_soak_with at base seed {base}")
                });
                fleet::headline(&plain, &mut layers);
                (plain_ns, traced_ns)
            }
        };
        let after = host::calibrate_ms();
        let name = part.name();
        calibration.push((format!("{name} before"), before));
        calibration.push((format!("{name} after"), after));
        layers.set(
            format!("trace.overhead_pct.{name}"),
            100.0 * (traced_ns as f64 / plain_ns as f64 - 1.0),
            "%",
        );
    }
    Outcome {
        checks,
        sheet: layers,
        calibration,
        passes: Vec::new(),
        spans: Some(tr),
    }
}
