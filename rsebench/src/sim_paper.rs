//! The `sim-paper` workload: long cycle-accurate guests from the paper's
//! evaluation, every run starting from cold modelled caches.
//!
//! * Table 4 kernels (`kmeans`, `place`, `route`), inputs generated from
//!   the seed, each under `MachineConfig::Baseline` and
//!   `MachineConfig::FrameworkIcm`;
//! * the Figure 9 `server` with and without the DDT at two pool sizes;
//! * the kMeans guest once more under the `TieredDriver`, functional up
//!   to a late cycle-accurate window (the fault-window use).

use crate::report::{Checks, Sheet};
use crate::trace::{timed, ModuleClock, TimedModule, Tracer};
use rse_bench::MachineConfig;
use rse_core::{Engine, Module, RseConfig, RseStats};
use rse_isa::{syscalls, Image, ModuleId, Reg};
use rse_mem::{MemConfig, MemStats, MemorySystem};
use rse_modules::ddt::{Ddt, DdtConfig, DdtStats};
use rse_modules::icm::{Icm, IcmConfig, IcmStats};
use rse_pipeline::{
    CheckPolicy, ExecEvent, NullCoProcessor, Pipeline, PipelineConfig, PipelineStats,
};
use rse_support::rng::splitmix64;
use rse_sys::{Os, OsConfig, OsExit, TieredDriver, TieredStats, Window};
use rse_workloads::kmeans::KmeansParams;
use rse_workloads::place::PlaceParams;
use rse_workloads::route::RouteParams;
use rse_workloads::server::ServerParams;
use rse_workloads::{kmeans, place, route, server};
use std::rc::Rc;
use std::time::Instant;

/// Cycle ceiling for one guest run (never reached by a correct run).
const MAX_CYCLES: u64 = 2_000_000_000;

/// Server pool sizes (Figure 9 sweeps 1–10 threads).
pub const SERVER_THREADS: [u32; 2] = [2, 6];

/// Requests each server run handles.
const SERVER_REQUESTS: u64 = 16;

/// Share of the kMeans run, in percent, left cycle-accurate at the end
/// of the tiered run.
const TIERED_WINDOW_PCT: u64 = 5;

/// Cycle-accurate warm-up before the tiered window opens.
const TIERED_MARGIN: u64 = 2_000;

/// Tiered runs per pass: one takes well under a tenth of a second, too
/// short to time steadily alone.
const TIERED_REPS: usize = 8;

/// kMeans input: 2,100 patterns × 16 dims × 4 B = 131 KB, past the
/// 128 KB L2 D-cache.
fn kmeans_params(seed: u64) -> KmeansParams {
    KmeansParams {
        patterns: 2_100,
        dims: 16,
        clusters: 2,
        iters: 1,
        seed,
    }
}

/// Placement input: 12 unrolled sample blocks of 128 nets (~72 KB of
/// code, past both I-cache levels). Its data is capped at 64 KB by the
/// kernel's 16-bit immediate offsets.
fn place_params(seed: u64, lcg_seed: u32) -> PlaceParams {
    PlaceParams {
        cells: 512,
        nets_per_block: 128,
        blocks: 12,
        grid: 64,
        iters: 150,
        seed,
        lcg_seed,
    }
}

/// Routing input: one net on a 110 × 110 grid (grid, distance and
/// queue arrays 145 KB), past the L2 D-cache.
fn route_params(seed: u64) -> RouteParams {
    RouteParams {
        width: 110,
        nets: 1,
        block_pct: 12,
        seed,
    }
}

/// Wirelength band a generated net must fall in. A net's search costs
/// 0.1–0.9 M instructions depending on how far apart its terminals
/// are; nets routed at 110–140 cells search most of the grid and cost
/// 0.7–1.0 M.
const ROUTE_WIRELENGTH: std::ops::RangeInclusive<u32> = 110..=140;

/// The first route data seed of the splitmix64 stream from `s` whose
/// net routes within [`ROUTE_WIRELENGTH`].
fn route_seed(mut s: u64) -> u64 {
    loop {
        let seed = splitmix64(&mut s);
        let (routed, wire) = route::reference(&route_params(seed));
        if routed == 1 && ROUTE_WIRELENGTH.contains(&wire) {
            return seed;
        }
    }
}

/// The input seeds for one benchmark seed. `None` keeps the Table 4
/// data seeds. The route net is the same at every seed: the first of
/// the stream from Table 4's route seed that routes within
/// [`ROUTE_WIRELENGTH`], since nets in the band still cost 0.7–1.0 M
/// instructions; the other kernels' work does not depend on their data.
#[derive(Debug, Clone, Copy)]
struct DataSeeds {
    kmeans: u64,
    place: u64,
    lcg: u32,
    route: u64,
}

impl DataSeeds {
    fn new(seed: Option<u64>) -> DataSeeds {
        let route = route_seed(RouteParams::table4().seed);
        let Some(seed) = seed else {
            return DataSeeds {
                kmeans: KmeansParams::table4().seed,
                place: PlaceParams::table4().seed,
                lcg: PlaceParams::table4().lcg_seed,
                route,
            };
        };
        let mut s = seed ^ 0x5349_4D2D_5041_5045; // "SIM-PAPE"
        DataSeeds {
            kmeans: splitmix64(&mut s),
            place: splitmix64(&mut s),
            lcg: (splitmix64(&mut s) as u32) | 1,
            route,
        }
    }
}

/// One guest with its assembled image and the output its host-side
/// reference predicts.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// Assembled guest.
    pub image: Image,
    /// Expected `PRINT_INT` output.
    pub expect: Vec<i32>,
}

/// The workload's inputs, built during set-up.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Table 4 kernels.
    pub kernels: Vec<Kernel>,
    /// Server images, one per entry of [`SERVER_THREADS`].
    pub servers: Vec<Image>,
}

/// Builds the inputs, adding generation and assembly time to
/// `gen_ns`/`asm_ns`.
pub fn inputs(seed: Option<u64>, gen_ns: &mut u64, asm_ns: &mut u64) -> Inputs {
    let ds = DataSeeds::new(seed);
    let mut timed_gen = |f: &mut dyn FnMut() -> (String, Vec<i32>)| {
        let t = Instant::now();
        let r = f();
        *gen_ns += t.elapsed().as_nanos() as u64;
        r
    };
    let km = kmeans_params(ds.kmeans);
    let pl = place_params(ds.place, ds.lcg);
    let rt = route_params(ds.route);
    let sources = [
        (
            "kmeans",
            timed_gen(&mut || (kmeans::source(&km), vec![kmeans::reference(&km).0 as i32])),
        ),
        (
            "place",
            timed_gen(&mut || (place::source(&pl), vec![place::reference(&pl) as i32])),
        ),
        (
            "route",
            timed_gen(&mut || {
                let (routed, wire) = route::reference(&rt);
                (route::source(&rt), vec![routed as i32, wire as i32])
            }),
        ),
    ];
    let server_sources: Vec<String> = SERVER_THREADS
        .iter()
        .map(|&threads| {
            timed_gen(&mut || {
                let p = ServerParams {
                    threads,
                    ..ServerParams::default()
                };
                (server::source(&p), Vec::new())
            })
            .0
        })
        .collect();
    let mut assemble = |src: &str| {
        let t = Instant::now();
        let image = rse_isa::asm::assemble(src).expect("sim-paper guest assembles");
        *asm_ns += t.elapsed().as_nanos() as u64;
        image
    };
    Inputs {
        kernels: sources
            .into_iter()
            .map(|(name, (src, expect))| Kernel {
                name,
                image: assemble(&src),
                expect,
            })
            .collect(),
        servers: server_sources.iter().map(|s| assemble(s)).collect(),
    }
}

/// Everything one guest run produced.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Pipeline counters.
    pub pipeline: PipelineStats,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Engine counters.
    pub rse: RseStats,
    /// ICM counters, when installed.
    pub icm: Option<IcmStats>,
    /// DDT counters, when installed.
    pub ddt: Option<DdtStats>,
    /// Guest `PRINT_INT` output.
    pub output: Vec<i32>,
    /// How the guest ended.
    pub exit: OsExit,
    /// Responses the guest OS sent.
    pub responses: u64,
    /// Host nanoseconds of the whole run (construction to stats).
    pub ns: u64,
    /// Host nanoseconds inside `Os::run`.
    pub os_ns: u64,
    /// Host nanoseconds of construction, then of each `Os::run` call.
    pub slice_ns: Vec<u64>,
    /// The module's timing clock, in a traced run.
    pub clock: Option<Rc<ModuleClock>>,
}

impl SimRun {
    /// Whether two runs simulated identically (every simulated counter
    /// and the guest's observable behaviour).
    pub fn same_simulation(&self, other: &SimRun) -> bool {
        self.pipeline == other.pipeline
            && self.mem == other.mem
            && self.rse == other.rse
            && self.icm == other.icm
            && self.ddt == other.ddt
            && self.output == other.output
            && self.exit == other.exit
            && self.responses == other.responses
    }
}

/// Boxes `m`, wrapped in a [`TimedModule`] when `traced`.
fn install(engine: &mut Engine, m: Box<dyn Module>, traced: bool) -> Option<Rc<ModuleClock>> {
    let id = m.id();
    let (m, clock) = if traced {
        let (m, c) = TimedModule::wrap(m);
        (m, Some(c))
    } else {
        (m, None)
    };
    engine.install(m);
    engine.enable(id);
    clock
}

/// Cycles a timed guest run simulates per `Os::run` call: at most about
/// 50 ms of host time, so a long guest is timed as many short slices.
pub const SLICE_CYCLES: u64 = 20_000;

/// Runs `image` to completion under `os`. Traced, it makes one
/// `Os::run` call, as `rse_bench::run_workload` does, under a
/// `core.os_run` span. Untraced, it calls `Os::run` with a budget of
/// [`SLICE_CYCLES`] until the guest ends, timing each call as a slice;
/// `Os::run` resumes exactly where the last call stopped, and the
/// traced run checks that both ways simulate the same.
fn drive(
    mut cpu: Pipeline,
    mut engine: Engine,
    mut os: Os,
    clock: Option<Rc<ModuleClock>>,
    tr: Option<&mut Tracer>,
    t0: Instant,
) -> SimRun {
    let mut slice_ns = vec![t0.elapsed().as_nanos() as u64];
    let exit = match tr {
        Some(tr) => {
            let (exit, ns) = tr.span("core.os_run", |_| os.run(&mut cpu, &mut engine, MAX_CYCLES));
            slice_ns.push(ns);
            exit
        }
        None => {
            let end = cpu.now() + MAX_CYCLES;
            loop {
                let budget = SLICE_CYCLES.min(end - cpu.now());
                let t = Instant::now();
                let exit = os.run(&mut cpu, &mut engine, budget);
                slice_ns.push(t.elapsed().as_nanos() as u64);
                if exit != OsExit::Timeout || cpu.now() >= end {
                    break exit;
                }
            }
        }
    };
    let os_ns = slice_ns[1..].iter().sum();
    SimRun {
        pipeline: cpu.stats(),
        mem: cpu.mem().stats(),
        rse: engine.stats(),
        icm: engine.module_ref::<Icm>(ModuleId::ICM).map(Icm::stats),
        ddt: engine.module_ref::<Ddt>(ModuleId::DDT).map(Ddt::stats),
        output: os.output.clone(),
        exit,
        responses: os.stats().responses_sent,
        ns: t0.elapsed().as_nanos() as u64,
        os_ns,
        slice_ns,
        clock,
    }
}

/// Runs a Table 4 kernel under `machine`; the ICM is wrapped in a
/// [`TimedModule`] when `tr` is given.
pub fn run_kernel(image: &Image, machine: MachineConfig, tr: Option<&mut Tracer>) -> SimRun {
    let t0 = Instant::now();
    let (mem_config, pipe_config) = match machine {
        MachineConfig::Baseline => (MemConfig::baseline(), PipelineConfig::default()),
        MachineConfig::Framework => (MemConfig::with_framework(), PipelineConfig::default()),
        MachineConfig::FrameworkIcm => (
            MemConfig::with_framework(),
            PipelineConfig {
                check_policy: CheckPolicy::ControlFlow,
                ..PipelineConfig::default()
            },
        ),
    };
    let mut cpu = Pipeline::new(pipe_config, MemorySystem::new(mem_config));
    rse_sys::loader::load_process(&mut cpu, image);
    let mut engine = Engine::new(RseConfig::default());
    let mut clock = None;
    if machine == MachineConfig::FrameworkIcm {
        let mut icm = Icm::new(IcmConfig::default());
        icm.install_for_control_flow(image, &mut cpu.mem_mut().memory);
        clock = install(&mut engine, Box::new(icm), tr.is_some());
    }
    drive(cpu, engine, Os::new(OsConfig::default()), clock, tr, t0)
}

/// Runs the Figure 9 server, with the DDT when `with_ddt`; the DDT is
/// wrapped in a [`TimedModule`] when `tr` is given.
pub fn run_server(image: &Image, with_ddt: bool, tr: Option<&mut Tracer>) -> SimRun {
    let t0 = Instant::now();
    let mut cpu = Pipeline::new(
        PipelineConfig::default(),
        MemorySystem::new(MemConfig::with_framework()),
    );
    rse_sys::loader::load_process(&mut cpu, image);
    let mut engine = Engine::new(RseConfig::default());
    let mut clock = None;
    if with_ddt {
        let mut ddt = Ddt::new(DdtConfig::default());
        ddt.set_current_thread(0);
        clock = install(&mut engine, Box::new(ddt), tr.is_some());
    }
    let os = Os::new(OsConfig {
        num_requests: SERVER_REQUESTS,
        ..OsConfig::default()
    });
    drive(cpu, engine, os, clock, tr, t0)
}

/// The tiered kMeans run.
#[derive(Debug, Clone)]
pub struct TieredRun {
    /// Guest `PRINT_INT` output.
    pub output: Vec<i32>,
    /// How the run ended.
    pub end: ExecEvent,
    /// Handoff and progress counters.
    pub stats: TieredStats,
    /// Host nanoseconds.
    pub ns: u64,
}

/// Runs `image` under the [`TieredDriver`]: functional until the last
/// [`TIERED_WINDOW_PCT`]% of its `insts` instructions, cycle-accurate
/// from there to the end. `PRINT_INT` syscalls are serviced here.
pub fn run_tiered(image: &Image, insts: u64) -> TieredRun {
    let t0 = Instant::now();
    let mut d = TieredDriver::new(image, PipelineConfig::default(), MemConfig::baseline());
    let window = Window {
        open: insts * (100 - TIERED_WINDOW_PCT) / 100,
        close: None,
        margin: TIERED_MARGIN,
    };
    let mut output = Vec::new();
    let end = loop {
        match d.run(&mut NullCoProcessor, &window, u64::MAX / 2) {
            ExecEvent::Syscall if d.regs()[Reg::V0.index()] == syscalls::PRINT_INT => {
                output.push(d.regs()[Reg::A0.index()] as i32);
                d.resume(None);
            }
            ev => break ev,
        }
    };
    TieredRun {
        output,
        end,
        stats: d.stats(),
        ns: t0.elapsed().as_nanos() as u64,
    }
}

/// One pass over the workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// `(kernel, baseline run, framework+ICM run)`.
    pub kernels: Vec<(&'static str, SimRun, SimRun)>,
    /// `(threads, without DDT, with DDT)`.
    pub servers: Vec<(u32, SimRun, SimRun)>,
    /// The tiered kMeans runs.
    pub tiered: Vec<TieredRun>,
    /// kMeans guest instructions (one tiered run's work).
    pub tiered_insts: u64,
}

impl Pass {
    /// Every cycle-accurate run of the pass.
    pub fn ca_runs(&self) -> impl Iterator<Item = &SimRun> {
        self.kernels
            .iter()
            .flat_map(|(_, b, f)| [b, f])
            .chain(self.servers.iter().flat_map(|(_, a, b)| [a, b]))
    }

    /// Host nanoseconds of every unit of work of the pass: each
    /// cycle-accurate run's construction and slices, and each tiered run.
    pub fn unit_ns(&self) -> Vec<u64> {
        let ca = self.ca_runs().flat_map(|r| r.slice_ns.iter().copied());
        ca.chain(self.tiered.iter().map(|t| t.ns)).collect()
    }

    /// `(committed guest instructions, host ns)` over the cycle-accurate
    /// runs.
    pub fn ca_work(&self) -> (u64, u64) {
        self.ca_runs().fold((0, 0), |(i, n), r| {
            (i + r.pipeline.committed_program(), n + r.ns)
        })
    }
}

/// Runs one whole pass over `inputs`, traced when `tr` is given: each
/// Table 4 kernel under Baseline then FrameworkIcm, each server without
/// then with the DDT, then the tiered kMeans runs. The kMeans Baseline
/// run comes first: its instruction count places the tiered window.
pub fn run(inputs: &Inputs, mut tr: Option<&mut Tracer>) -> Pass {
    let mut kernels = Vec::new();
    for k in &inputs.kernels {
        let [b, f] = [MachineConfig::Baseline, MachineConfig::FrameworkIcm].map(|m| {
            match tr.as_deref_mut() {
                Some(t) => {
                    let label = format!("sim.{}.{}", k.name, config_label(m));
                    t.span(&label, |t| run_kernel(&k.image, m, Some(t))).0
                }
                None => run_kernel(&k.image, m, None),
            }
        });
        kernels.push((k.name, b, f));
    }
    let mut servers = Vec::new();
    for (image, threads) in inputs.servers.iter().zip(SERVER_THREADS) {
        let [a, b] = [false, true].map(|ddt| match tr.as_deref_mut() {
            Some(t) => {
                let label = format!(
                    "sim.server.t{threads}.{}",
                    if ddt { "ddt" } else { "plain" }
                );
                t.span(&label, |t| run_server(image, ddt, Some(t))).0
            }
            None => run_server(image, ddt, None),
        });
        servers.push((threads, a, b));
    }
    let tiered_insts = kernels[0].1.pipeline.committed_program();
    let image = &inputs.kernels[0].image;
    let tiered = (0..TIERED_REPS)
        .map(|_| {
            timed(tr.as_deref_mut(), "sys.tiered", || {
                run_tiered(image, tiered_insts)
            })
            .0
        })
        .collect();
    Pass {
        kernels,
        servers,
        tiered,
        tiered_insts,
    }
}

fn config_label(m: MachineConfig) -> &'static str {
    match m {
        MachineConfig::Baseline => "baseline",
        MachineConfig::Framework => "framework",
        MachineConfig::FrameworkIcm => "fw_icm",
    }
}

/// Correctness: guest outputs equal the host references, every run
/// exits cleanly, both machine configurations commit the same program
/// instructions, and every server request gets its response.
pub fn check(inputs: &Inputs, p: &Pass, checks: &mut Checks) {
    for (k, (name, b, f)) in inputs.kernels.iter().zip(&p.kernels) {
        for (cfg, r) in [("baseline", b), ("fw_icm", f)] {
            checks.check(r.exit == OsExit::Exited { code: 0 }, || {
                format!("{name} under {cfg} ended {:?}", r.exit)
            });
            checks.check(r.output == k.expect, || {
                format!(
                    "{name} under {cfg} printed {:?}, reference {:?}",
                    r.output, k.expect
                )
            });
        }
        checks.check(
            b.pipeline.committed_program() == f.pipeline.committed_program(),
            || format!("{name} committed different program instructions per configuration"),
        );
    }
    for (threads, a, b) in &p.servers {
        for r in [a, b] {
            checks.check(
                r.exit == OsExit::Exited { code: 0 } && r.responses == SERVER_REQUESTS,
                || {
                    format!(
                        "server ({threads} threads) ended {:?} after {} of {SERVER_REQUESTS} responses",
                        r.exit, r.responses
                    )
                },
            );
        }
    }
    for t in &p.tiered {
        checks.check(
            t.end == ExecEvent::Halted
                && t.output == inputs.kernels[0].expect
                && t.stats == p.tiered[0].stats,
            || format!("tiered kmeans ended {:?} printing {:?}", t.end, t.output),
        );
    }
}

/// Whether pass `b` simulated exactly what pass `a` did (a traced pass
/// against its untraced twin, or a repeated pass against the first).
pub fn same(a: &Pass, b: &Pass) -> bool {
    a.ca_runs()
        .zip(b.ca_runs())
        .all(|(x, y)| x.same_simulation(y))
        && a.tiered.len() == b.tiered.len()
        && a.tiered
            .iter()
            .zip(&b.tiered)
            .all(|(x, y)| x.stats == y.stats && x.output == y.output)
}

/// The workload's headline figures from an untraced pass:
/// `sim_minst_per_s` (committed guest instructions per host second over
/// the cycle-accurate runs), `tiered_minst_per_s`, and the simulated
/// `fw_icm_overhead_pct` (mean per-kernel FrameworkIcm cycle overhead
/// over Baseline) and `ddt_overhead_pct` (mean per-pool DDT cycle
/// overhead).
pub fn headline(p: &Pass, sheet: &mut Sheet) {
    let (insts, ns) = p.ca_work();
    sheet.set("sim_minst_per_s", insts as f64 * 1e3 / ns as f64, "Minst/s");
    let tiered_ns: u64 = p.tiered.iter().map(|t| t.ns).sum();
    let tiered_insts = p.tiered_insts * p.tiered.len() as u64;
    sheet.set(
        "tiered_minst_per_s",
        tiered_insts as f64 * 1e3 / tiered_ns as f64,
        "Minst/s",
    );
    let pct = |a: &SimRun, b: &SimRun| {
        100.0 * (b.pipeline.cycles as f64 / a.pipeline.cycles as f64 - 1.0)
    };
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let icm = mean(p.kernels.iter().map(|(_, b, f)| pct(b, f)).collect());
    let ddt = mean(p.servers.iter().map(|(_, a, b)| pct(a, b)).collect());
    sheet.set("fw_icm_overhead_pct", icm, "%");
    sheet.set("ddt_overhead_pct", ddt, "%");
}

/// Per-layer metrics of a traced pass.
pub fn layers(p: &Pass, sheet: &mut Sheet) {
    for (_, b, f) in &p.kernels {
        for (c, r) in [("baseline", b), ("fw_icm", f)] {
            let s = &r.pipeline;
            for (name, v) in [
                ("cycles", s.cycles),
                ("committed", s.committed),
                ("fetched", s.fetched),
                ("squashed", s.squashed),
                ("mispredicts", s.mispredicts),
                ("commit_stall_cycles", s.commit_stall_cycles),
            ] {
                sheet.add(format!("pipeline.{name}.{c}"), v as f64, "count");
            }
        }
        for (lvl, cs) in [
            ("il1", f.mem.il1),
            ("il2", f.mem.il2),
            ("dl1", f.mem.dl1),
            ("dl2", f.mem.dl2),
        ] {
            sheet.add(
                format!("mem.{lvl}.misses.fw_icm"),
                cs.misses as f64,
                "count",
            );
        }
    }
    let kinst = |r: &SimRun| r.pipeline.committed_program() as f64 / 1e3;
    let base_ns: f64 = p.kernels.iter().map(|(_, b, _)| b.os_ns as f64).sum();
    let base_kinst: f64 = p.kernels.iter().map(|(_, b, _)| kinst(b)).sum();
    sheet.set(
        "pipeline.host_ns_per_kinst.baseline",
        base_ns / base_kinst,
        "ns/kinst",
    );
    let icm_self: f64 = p
        .kernels
        .iter()
        .filter_map(|(_, _, f)| f.clock.as_ref())
        .map(|c| c.self_ns.get() as f64)
        .sum();
    let fw_ns: f64 = p.kernels.iter().map(|(_, _, f)| f.os_ns as f64).sum();
    let fw_kinst: f64 = p.kernels.iter().map(|(_, _, f)| kinst(f)).sum();
    sheet.set(
        "core.host_ns_per_kinst.fw_icm",
        (fw_ns - icm_self) / fw_kinst,
        "ns/kinst",
    );
    let (mut fetched, mut squashed) = (0u64, 0u64);
    for (_, b, f) in &p.kernels {
        for r in [b, f] {
            fetched += r.pipeline.fetched;
            squashed += r.pipeline.squashed;
        }
    }
    sheet.set(
        "pipeline.squashed_per_fetched",
        squashed as f64 / fetched.max(1) as f64,
        "ratio",
    );

    let engine_runs: Vec<&SimRun> = p
        .kernels
        .iter()
        .map(|(_, _, f)| f)
        .chain(p.servers.iter().map(|(_, _, d)| d))
        .collect();
    for r in &engine_runs {
        sheet.add("mem.mau_transfers", r.mem.mau_transfers as f64, "count");
        sheet.add(
            "mem.mau_wait_cycles",
            r.mem.mau_wait_cycles as f64,
            "cycles",
        );
        sheet.add("core.chk_routed", r.rse.chk_routed as f64, "count");
        sheet.add("core.chk_blocking", r.rse.chk_blocking as f64, "count");
        sheet.add("core.stalls", r.rse.stalls as f64, "count");
        sheet.add("core.flushes", r.rse.flushes as f64, "count");
    }

    let (mut hits, mut misses) = (0u64, 0u64);
    sheet.add("modules.icm.self_ns", 0.0, "ns");
    sheet.add("modules.icm.calls", 0.0, "count");
    for (_, _, f) in &p.kernels {
        if let Some(c) = &f.clock {
            sheet.add("modules.icm.self_ns", c.self_ns.get() as f64, "ns");
            sheet.add("modules.icm.calls", c.calls.get() as f64, "count");
        }
        if let Some(s) = f.icm {
            hits += s.cache_hits;
            misses += s.cache_misses;
        }
    }
    sheet.set("modules.icm.cache_hits", hits as f64, "count");
    sheet.set("modules.icm.cache_misses", misses as f64, "count");
    sheet.set(
        "modules.icm.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );

    for n in ["self_ns", "calls", "pages_saved", "dependencies_logged"] {
        let unit = if n == "self_ns" { "ns" } else { "count" };
        sheet.add(format!("modules.ddt.{n}"), 0.0, unit);
    }
    for (_, _, d) in &p.servers {
        if let Some(c) = &d.clock {
            sheet.add("modules.ddt.self_ns", c.self_ns.get() as f64, "ns");
            sheet.add("modules.ddt.calls", c.calls.get() as f64, "count");
        }
        if let Some(s) = d.ddt {
            sheet.add("modules.ddt.pages_saved", s.pages_saved as f64, "count");
            sheet.add(
                "modules.ddt.dependencies_logged",
                s.dependencies_logged as f64,
                "count",
            );
        }
    }

    let t = &p.tiered[0];
    let run_ns: u64 = p.tiered.iter().map(|t| t.ns).sum();
    sheet.set(
        "sys.tiered.run_ns",
        run_ns as f64 / p.tiered.len() as f64,
        "ns",
    );
    sheet.set(
        "sys.tiered.handoffs",
        (t.stats.handoffs_in + t.stats.handoffs_out) as f64,
        "count",
    );
    sheet.set(
        "sys.tiered.functional_units",
        t.stats.functional_units as f64,
        "count",
    );
    sheet.set(
        "sys.tiered.cycle_accurate_units",
        t.stats.cycle_accurate_units as f64,
        "count",
    );
}
