//! The campaign runner: golden reference execution, faulty runs,
//! outcome classification, and the checkpoint-recovery path.
//!
//! Every fault run and every attack run (`rse-attack`) goes through one
//! trial kernel:
//!
//! 1. [`reference()`] executes the **golden reference** for the workload
//!    once and derives the [`RunProfile`] the sampler scales to,
//! 2. [`Trial::observe`] builds a fresh harness, **checkpoints every
//!    mapped page** into a [`CheckpointStore`] (the system-software
//!    shadow of the OS SavePage store), arms the planned faults, and
//!    drives the guest under a cycle budget; the returned [`Trial`]
//!    answers what each classifier asks of the end state (does it match
//!    the golden result, which module detected, is the target module
//!    down, did safe mode trip, how many cycles),
//! 3. the per-crate classifier turns those answers into an outcome —
//!    here `Masked`, `SDC`, `DetectedByModule`, `WatchdogTimeout`,
//!    `CrashTrap`, `Hang`,
//! 4. when a detection fired but the result diverged, [`Trial::rerun`]
//!    exercises the **recovery path**: roll memory back from the
//!    checkpoint store, reset the context to the process entry, and
//!    re-execute; a re-run that reaches the golden result is recorded as
//!    `recovered:checkpoint-rollback`, anything else as a safe-mode halt
//!    with the recorded cause.
//!
//! The DDT workload delegates recovery to the guest OS (§4.2.2): the
//! crash of the auditing worker triggers the dependency-directed
//! rollback, and the record is judged by the main thread's final report.

use crate::fault::{FaultModel, FaultPlan, RunProfile};
use crate::outcome::{Outcome, RecoveryStatus, RunRecord};
use crate::snapshot::Fnv;
use crate::workload::{by_name, corpus, Harness, Workload};
use rse_core::{Engine, RseConfig, WatchdogConfig};
use rse_isa::asm::assemble;
use rse_isa::layout::{page_base, STACK_BASE};
use rse_isa::{Image, ModuleId, Reg};
use rse_mem::{MemConfig, MemorySystem, SparseMemory};
use rse_modules::ahbm::{Ahbm, AhbmConfig};
use rse_modules::ddt::{Ddt, DdtConfig};
use rse_modules::dsm::Dsm;
use rse_modules::icm::{Icm, IcmConfig};
use rse_modules::mlr::{Mlr, MlrConfig};
use rse_pipeline::{
    CheckPolicy, CpuContext, ExecEvent, NullCoProcessor, Pipeline, PipelineConfig, StepEvent,
};
use rse_support::rng::{fnv1a64, splitmix64};
use rse_sys::checkpoint::{Checkpoint, CheckpointConfig, CheckpointStore};
use rse_sys::tiered::{TieredDriver, Window};
use rse_sys::{loader, Os, OsConfig, OsExit};
use std::collections::BTreeMap;

/// Cycle budget for golden reference runs.
const REF_BUDGET: u64 = 50_000_000;

/// What the DDT workload's main thread prints after a successful
/// DDT-driven rollback (see the workload source).
const DDT_RECOVERED_OUTPUT: &[i32] = &[1];

/// Golden-run state a campaign cell classifies against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefState {
    /// Sampler profile measured on the fault-free run.
    pub profile: RunProfile,
    /// Golden result digest (registers + result buffer; bare/ICM
    /// harnesses only).
    pub digest: u64,
    /// Golden guest output (DDT/OS harness only).
    pub output: Vec<i32>,
}

/// Derives the per-run seed from the campaign base seed, the workload
/// name, the fault model, and the run index. Pure and stable: the JSONL
/// `seed` field plus [`FaultPlan::sample`] replays the exact fault.
pub fn derive_seed(base_seed: u64, workload: &str, model: FaultModel, run: u32) -> u64 {
    cell_seed(base_seed, workload, model, run)
}

/// The per-run seed of any campaign cell: the subject name, the model's
/// [`CellModel::seed_index`], and the run index folded into the base
/// seed. [`derive_seed`] and `rse_attack::derive_seed` are this body.
pub fn cell_seed<M: CellModel>(base_seed: u64, subject: &str, model: M, run: u32) -> u64 {
    let mut s = base_seed ^ fnv1a64(subject.as_bytes());
    splitmix64(&mut s);
    s ^= model.seed_index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s);
    s ^= u64::from(run);
    splitmix64(&mut s)
}

/// A ready-to-run simulation harness: pipeline + RSE engine, built per
/// the workload's [`Harness`] flavor (with the harness's primary module
/// and the MLR/AHBM bystanders installed for non-bare flavors). Public so
/// the fleet simulator (`rse-fleet`) can stamp out one full
/// pipeline+RSE instance per node from the same corpus machinery.
pub struct BuiltHarness {
    /// The simulated processor, image loaded.
    pub cpu: Pipeline,
    /// The RSE engine (empty for bare workloads).
    pub engine: Engine,
}

/// Builds the harness for `w` with the given watchdog cycle budget,
/// threading a per-run MLR layout seed into [`Harness::MlrOs`] flavors
/// (the adversarial campaigns randomize the victim's layout fresh every
/// run; `None` falls back to a fixed seed derived from the workload
/// name, so golden references stay reproducible). The seed is ignored by
/// every other harness flavor.
pub fn build_harness(
    w: &Workload,
    image: &Image,
    cycle_budget: u64,
    mlr_seed: Option<u64>,
) -> BuiltHarness {
    let rse_cfg = RseConfig {
        watchdog: WatchdogConfig {
            cycle_budget,
            ..WatchdogConfig::default()
        },
        ..RseConfig::default()
    };
    match w.harness {
        Harness::Bare => {
            let mut cpu = Pipeline::new(
                PipelineConfig::default(),
                MemorySystem::new(MemConfig::with_framework()),
            );
            cpu.load_image(image);
            BuiltHarness {
                cpu,
                engine: Engine::new(rse_cfg),
            }
        }
        Harness::Dsm => {
            let mut cpu = Pipeline::new(
                PipelineConfig::default(),
                MemorySystem::new(MemConfig::with_framework()),
            );
            cpu.load_image(image);
            let mut dsm = Dsm::new();
            dsm.install_signatures(image);
            let mut engine = Engine::new(rse_cfg);
            engine.install(Box::new(dsm));
            engine.enable(ModuleId::DSM);
            install_bystanders(&mut engine);
            BuiltHarness { cpu, engine }
        }
        Harness::Icm => {
            let mut cpu = Pipeline::new(
                PipelineConfig {
                    check_policy: CheckPolicy::ControlFlow,
                    ..PipelineConfig::default()
                },
                MemorySystem::new(MemConfig::with_framework()),
            );
            cpu.load_image(image);
            let mut icm = Icm::new(IcmConfig::default());
            icm.install_for_control_flow(image, &mut cpu.mem_mut().memory);
            let mut engine = Engine::new(rse_cfg);
            engine.install(Box::new(icm));
            engine.enable(ModuleId::ICM);
            install_bystanders(&mut engine);
            BuiltHarness { cpu, engine }
        }
        Harness::DdtOs | Harness::NxOs => {
            let mut cpu = Pipeline::new(
                PipelineConfig::default(),
                MemorySystem::new(MemConfig::with_framework()),
            );
            loader::load_process(&mut cpu, image);
            if w.harness == Harness::NxOs {
                // §4.2: the DDT marks non-code pages non-executable; the
                // pipeline enforces the range at commit.
                cpu.set_exec_range(Some((image.text_base, image.text_end())));
            }
            let mut ddt = Ddt::new(DdtConfig::default());
            ddt.set_current_thread(0);
            let mut engine = Engine::new(rse_cfg);
            engine.install(Box::new(ddt));
            engine.enable(ModuleId::DDT);
            install_bystanders(&mut engine);
            BuiltHarness { cpu, engine }
        }
        Harness::MlrOs => {
            let mut cpu = Pipeline::new(
                PipelineConfig {
                    chk_serialize_mask: 1 << ModuleId::MLR.number(),
                    ..PipelineConfig::default()
                },
                MemorySystem::new(MemConfig::with_framework()),
            );
            loader::load_process(&mut cpu, image);
            // The golden reference pins the layout seed to the workload
            // name; adversarial runs re-seed per run. `| 1` keeps the
            // seed nonzero so `Some(0)` never aliases "no entropy".
            let seed = mlr_seed.unwrap_or_else(|| fnv1a64(w.name.as_bytes())) | 1;
            let mut engine = Engine::new(rse_cfg);
            engine.install(Box::new(Mlr::new(MlrConfig {
                seed: Some(seed),
                ..MlrConfig::default()
            })));
            engine.enable(ModuleId::MLR);
            engine.install(Box::new(Ahbm::new(AhbmConfig::default())));
            engine.enable(ModuleId::AHBM);
            engine.install(Box::new(Icm::new(IcmConfig::default())));
            engine.enable(ModuleId::ICM);
            BuiltHarness { cpu, engine }
        }
        Harness::OsBare => {
            let mut cpu = Pipeline::new(
                PipelineConfig {
                    // Same pipeline shape as `MlrOs` so the undefended
                    // twin differs only in the installed modules; with no
                    // MLR the blocking `chk mlr` ops pass straight
                    // through and the result words stay zero.
                    chk_serialize_mask: 1 << ModuleId::MLR.number(),
                    ..PipelineConfig::default()
                },
                MemorySystem::new(MemConfig::with_framework()),
            );
            loader::load_process(&mut cpu, image);
            BuiltHarness {
                cpu,
                engine: Engine::new(rse_cfg),
            }
        }
    }
}

/// Installs the MLR and AHBM alongside the harness's primary module so
/// every non-bare harness carries three modules. With three installed
/// slots, one quarantined-or-disabled module stays below the
/// half-installed escalation threshold — the campaign then observes
/// genuine per-module containment instead of an immediate global trip.
fn install_bystanders(engine: &mut Engine) {
    engine.install(Box::new(Mlr::new(MlrConfig::default())));
    engine.enable(ModuleId::MLR);
    engine.install(Box::new(Ahbm::new(AhbmConfig::default())));
    engine.enable(ModuleId::AHBM);
}

/// How a bare/ICM/DSM drive loop ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RawEnd {
    /// The guest committed `halt`.
    Halted,
    /// The guest trapped in a way a bare harness cannot service.
    Crash(&'static str),
    /// The cycle budget ran out.
    TimedOut,
}

/// Runs a bare/ICM/DSM harness until it halts, traps, or exhausts the
/// absolute cycle `deadline`.
fn drive(cpu: &mut Pipeline, engine: &mut Engine, deadline: u64) -> RawEnd {
    let remaining = deadline.saturating_sub(cpu.now());
    if remaining == 0 {
        return RawEnd::TimedOut;
    }
    match cpu.run(engine, remaining) {
        StepEvent::Halted => RawEnd::Halted,
        StepEvent::Timeout => RawEnd::TimedOut,
        StepEvent::Syscall => RawEnd::Crash("unexpected syscall trap"),
        StepEvent::Exception(_) => RawEnd::Crash("unexpected coprocessor exception"),
    }
}

/// Which checker module, if any, flagged a mismatch this run: the ICM's
/// per-word comparison first, then the DSM's basic-block signature
/// check.
fn detecting_module(engine: &Engine) -> Option<ModuleId> {
    if engine
        .module_ref::<Icm>(ModuleId::ICM)
        .is_some_and(|icm| icm.stats().mismatches > 0)
    {
        return Some(ModuleId::ICM);
    }
    if engine
        .module_ref::<Dsm>(ModuleId::DSM)
        .is_some_and(|dsm| dsm.stats().mismatches > 0)
    {
        return Some(ModuleId::DSM);
    }
    None
}

/// Digest of the workload-declared result set: the named registers plus
/// the result buffer bytes. Public so the fleet simulator can judge a
/// failed-over workload's completion against the same golden digest.
pub fn result_digest(w: &Workload, cpu: &Pipeline, image: &Image) -> u64 {
    result_digest_parts(w, cpu.regs(), &cpu.mem().memory, image)
}

/// [`result_digest`] over raw architectural state: works against either
/// execution tier (the functional interpreter exposes the same register
/// file and [`SparseMemory`] as the pipeline).
pub fn result_digest_parts(
    w: &Workload,
    regs: &[u32; 32],
    mem: &SparseMemory,
    image: &Image,
) -> u64 {
    let mut h = Fnv::new();
    for &r in w.result_regs {
        h.write_u32(regs[r]);
    }
    if let Some((sym, len)) = w.result_buf {
        let addr = image.symbol(sym).expect("result_buf symbol exists");
        for i in 0..len {
            h.write_bytes(&[mem.read_u8(addr + i)]);
        }
    }
    h.finish()
}

fn sampler_profile(w: &Workload, image: &Image, cpu: &Pipeline, engine: &Engine) -> RunProfile {
    let data_range = w.data_fault_buf.map(|(sym, len)| {
        let addr = image.symbol(sym).expect("data_fault_buf symbol exists");
        (addr, addr + len)
    });
    let target_module = w.harness.target_module();
    let mau_completions = target_module.map_or(0, |m| engine.mau().finished_for(m));
    RunProfile {
        cycles: cpu.stats().cycles,
        fetched: cpu.stats().fetched,
        chk_routed: engine.stats().chk_routed,
        text_range: (image.text_base, image.text_end()),
        data_range,
        target_module,
        mau_completions,
    }
}

/// Executes the golden reference run for a workload.
///
/// # Panics
///
/// Panics if the fault-free workload does not complete cleanly — that is
/// a corpus bug, not a campaign outcome.
pub fn reference(w: &Workload) -> RefState {
    let image = assemble(w.source).expect("corpus workload assembles");
    let mut b = build_harness(w, &image, u64::MAX, None);
    match w.harness {
        Harness::Bare | Harness::Icm | Harness::Dsm => {
            let end = drive(&mut b.cpu, &mut b.engine, REF_BUDGET);
            assert_eq!(end, RawEnd::Halted, "golden run of {} must halt", w.name);
            assert!(
                b.engine.safe_mode().is_none(),
                "golden run of {} tripped the watchdog",
                w.name
            );
            RefState {
                profile: sampler_profile(w, &image, &b.cpu, &b.engine),
                digest: result_digest(w, &b.cpu, &image),
                output: Vec::new(),
            }
        }
        Harness::DdtOs | Harness::MlrOs | Harness::OsBare | Harness::NxOs => {
            let mut os = Os::new(OsConfig::default());
            let exit = os.run(&mut b.cpu, &mut b.engine, REF_BUDGET);
            assert_eq!(
                exit,
                OsExit::Exited { code: 0 },
                "golden run of {} must exit cleanly",
                w.name
            );
            assert_eq!(
                os.stats().recoveries,
                0,
                "golden run of {} must not need recovery",
                w.name
            );
            RefState {
                profile: sampler_profile(w, &image, &b.cpu, &b.engine),
                digest: 0,
                output: os.output.clone(),
            }
        }
    }
}

/// System-software pre-run checkpoint: every mapped page snapshotted
/// into a [`CheckpointStore`], in sorted-page order.
struct PreRunCheckpoints {
    /// The checkpoint store holding every pre-run page image.
    store: CheckpointStore,
    /// The snapshotted page ids, sorted.
    pages: Vec<u32>,
}

/// Snapshots every mapped page of `mem` into a fresh checkpoint store.
fn capture_checkpoints(mem: &SparseMemory) -> PreRunCheckpoints {
    let pages = mem.mapped_page_ids_sorted();
    let mut store = CheckpointStore::new(CheckpointConfig::default());
    for &page in &pages {
        store.store(Checkpoint {
            page,
            data: mem.snapshot_page(page_base(page)),
            saved_at: 0,
            writer: 0,
        });
    }
    PreRunCheckpoints { store, pages }
}

/// The cycle budget a faulted run gets: 4x the golden run plus slack,
/// so hangs are detectable without ever truncating a legitimate run.
pub fn fault_budget(r: &RefState) -> u64 {
    r.profile.cycles.saturating_mul(4) + 200_000
}

/// How a trial's drive ended: the bare loop's end for Bare/Icm/Dsm
/// harnesses, the guest OS's exit for the OS flavours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialEnd {
    /// A bare/ICM/DSM drive loop ended.
    Bare(RawEnd),
    /// The guest OS returned.
    Os(OsExit),
}

impl TrialEnd {
    /// The cycle budget ran out before the guest finished.
    pub fn timed_out(&self) -> bool {
        matches!(
            self,
            TrialEnd::Bare(RawEnd::TimedOut) | TrialEnd::Os(OsExit::Timeout)
        )
    }

    /// The guest trapped in a way the bare harness cannot service, or the
    /// OS had to kill the process.
    pub fn crashed(&self) -> bool {
        matches!(
            self,
            TrialEnd::Bare(RawEnd::Crash(_)) | TrialEnd::Os(OsExit::ProcessKilled { .. })
        )
    }
}

/// Drives a built harness to its end under the absolute cycle `budget`:
/// the bare loop, or a fresh guest OS for the OS flavours (returned so
/// the caller can read its output and recovery count).
fn run_harness(w: &Workload, b: &mut BuiltHarness, budget: u64) -> (TrialEnd, Option<Os>) {
    if w.harness.is_os() {
        let mut os = Os::new(OsConfig::default());
        let exit = os.run(&mut b.cpu, &mut b.engine, budget);
        (TrialEnd::Os(exit), Some(os))
    } else {
        (
            TrialEnd::Bare(drive(&mut b.cpu, &mut b.engine, budget)),
            None,
        )
    }
}

/// Whether an end state reproduces the golden reference: a halt with the
/// golden result digest on bare harnesses, a clean exit with the golden
/// output on OS harnesses.
fn matches_ref(end: &TrialEnd, digest: impl FnOnce() -> u64, output: &[i32], r: &RefState) -> bool {
    match end {
        TrialEnd::Bare(e) => *e == RawEnd::Halted && digest() == r.digest,
        TrialEnd::Os(exit) => *exit == (OsExit::Exited { code: 0 }) && output == r.output,
    }
}

/// The register context of a process (re-)entering at its entry point.
fn entry_context(image: &Image) -> CpuContext {
    let mut regs = [0u32; 32];
    regs[Reg::SP.index()] = STACK_BASE - 16;
    CpuContext {
        regs,
        pc: image.entry,
    }
}

/// One observed fault or attack run: the harness as the run left it,
/// how it ended, and what the recovery path needs to re-execute it.
/// Built by [`Trial::observe`]; both campaign engines classify from it.
pub struct Trial<'a> {
    w: &'a Workload,
    image: &'a Image,
    budget: u64,
    mlr_seed: Option<u64>,
    pre: PreRunCheckpoints,
    /// The harness in its end state.
    pub b: BuiltHarness,
    /// How the drive ended.
    pub end: TrialEnd,
    /// What the guest OS printed (empty for bare harnesses).
    output: Vec<i32>,
    /// Recoveries the guest OS performed (0 for bare harnesses).
    os_recoveries: u64,
    /// Whether the end state matches the golden reference.
    pub golden: bool,
}

impl<'a> Trial<'a> {
    /// Builds the harness for `w` (threading `mlr_seed`, see
    /// [`build_harness`]), captures the pre-run checkpoints, arms `plan`,
    /// and drives the guest under [`fault_budget`]. A timeout latches
    /// the watchdog's one-shot hang detector.
    pub fn observe(
        w: &'a Workload,
        image: &'a Image,
        r: &RefState,
        mlr_seed: Option<u64>,
        plan: &FaultPlan,
    ) -> Trial<'a> {
        let budget = fault_budget(r);
        let mut b = build_harness(w, image, budget, mlr_seed);
        let pre = capture_checkpoints(&b.cpu.mem().memory);
        plan.arm(&mut b.cpu, &mut b.engine);
        let (end, os) = run_harness(w, &mut b, budget);
        if end.timed_out() {
            b.engine.poll_hang(b.cpu.now());
        }
        let (output, os_recoveries) = os.map_or((Vec::new(), 0), |os| {
            let recoveries = os.stats().recoveries;
            (os.output, recoveries)
        });
        let golden = matches_ref(&end, || result_digest(w, &b.cpu, image), &output, r);
        Trial {
            w,
            image,
            budget,
            mlr_seed,
            pre,
            b,
            end,
            output,
            os_recoveries,
            golden,
        }
    }

    /// Which module detected the fault: the ICM's per-word comparison
    /// or the DSM's block signature on bare harnesses; on OS harnesses
    /// the DDT, through an NX trap the pipeline latched or an OS recovery.
    pub fn detected_by(&self) -> Option<ModuleId> {
        if self.w.harness.is_os() {
            (self.b.cpu.nx_violation().is_some() || self.os_recoveries > 0).then_some(ModuleId::DDT)
        } else {
            detecting_module(&self.b.engine)
        }
    }

    /// The harness's target module, if its health machine took it down.
    pub fn down(&self) -> Option<ModuleId> {
        self.w
            .harness
            .target_module()
            .filter(|&m| self.b.engine.module_health(m).is_down())
    }

    /// Whether the framework tripped global safe mode.
    pub fn safe_mode(&self) -> bool {
        self.b.engine.safe_mode().is_some()
    }

    /// Cycles the run took.
    pub fn cycles(&self) -> u64 {
        self.b.cpu.now()
    }

    /// One checkpoint-rollback re-execution: memory is repopulated
    /// strictly from the pre-run checkpoint store, the context reset to
    /// the process entry, `strike` (if any) re-armed, and the guest
    /// re-driven under the run's budget with the run's MLR seed.
    ///
    /// With `tiered` set, a bare harness, and no strike, the re-execution
    /// is fault-free and judged only by its result digest — exactly the
    /// case where the functional tier is exact by the differential
    /// invariant (golden ≡ pipeline) — so it runs under the
    /// [`TieredDriver`] with [`Window::none`] and never enters the
    /// cycle-accurate tier. Every other re-execution runs cycle-accurate.
    ///
    /// Returns `Ok(())` when the re-run reproduces the golden result, or
    /// the cause recorded with the safe-mode halt.
    pub fn rerun(
        &self,
        r: &RefState,
        tiered: bool,
        strike: Option<&FaultPlan>,
    ) -> Result<(), String> {
        let (w, image) = (self.w, self.image);
        let (end, golden) = if tiered && !w.harness.is_os() && strike.is_none() {
            let mut d = TieredDriver::new(
                image,
                PipelineConfig::default(),
                MemConfig::with_framework(),
            );
            self.restore(d.memory_mut())?;
            d.install_context(&entry_context(image));
            // `budget` is a cycle budget (4×ref cycles + slack); with a
            // 4-wide commit the same number safely over-covers the run's
            // instruction count, so it doubles as functional fuel.
            let end = TrialEnd::Bare(
                match d.run(&mut NullCoProcessor, &Window::none(), self.budget) {
                    ExecEvent::Halted => RawEnd::Halted,
                    ExecEvent::OutOfFuel => RawEnd::TimedOut,
                    ExecEvent::Syscall => RawEnd::Crash("unexpected syscall trap"),
                    ExecEvent::Exception(_) => RawEnd::Crash("unexpected coprocessor exception"),
                },
            );
            let digest = || result_digest_parts(w, d.regs(), d.memory(), image);
            let golden = matches_ref(&end, digest, &[], r);
            (end, golden)
        } else {
            let mut b = build_harness(w, image, self.budget, self.mlr_seed);
            self.restore(&mut b.cpu.mem_mut().memory)?;
            b.cpu.mem_mut().invalidate_caches();
            b.cpu.set_context(&entry_context(image));
            if let Some(plan) = strike {
                plan.arm(&mut b.cpu, &mut b.engine);
            }
            let (end, os) = run_harness(w, &mut b, self.budget);
            let output = os.map(|os| os.output).unwrap_or_default();
            let golden = matches_ref(&end, || result_digest(w, &b.cpu, image), &output, r);
            (end, golden)
        };
        match end {
            _ if golden => Ok(()),
            TrialEnd::Bare(RawEnd::Halted) | TrialEnd::Os(OsExit::Exited { code: 0 }) => {
                Err("re-executed state diverged from golden".into())
            }
            TrialEnd::Bare(RawEnd::TimedOut) => {
                Err("re-execution after rollback did not complete".into())
            }
            TrialEnd::Bare(RawEnd::Crash(why)) => {
                Err(format!("re-execution after rollback crashed: {why}"))
            }
            TrialEnd::Os(other) => Err(format!("re-execution after rollback ended with {other:?}")),
        }
    }

    /// The checkpoint-rollback recovery verdict: one fault-free
    /// [`Trial::rerun`], `recovered:checkpoint-rollback` on a golden
    /// match and a safe-mode halt with the cause otherwise.
    pub fn rollback(&self, r: &RefState, tiered: bool) -> RecoveryStatus {
        match self.rerun(r, tiered, None) {
            Ok(()) => RecoveryStatus::Succeeded {
                mechanism: "checkpoint-rollback",
            },
            Err(cause) => RecoveryStatus::FailedSafeHalt { cause },
        }
    }

    /// Restores every pre-run page from the checkpoint store. A missing
    /// page means recovery has insufficient information, exactly the
    /// §4.2.2 whole-process-termination case.
    fn restore(&self, mem: &mut SparseMemory) -> Result<(), String> {
        for &page in &self.pre.pages {
            let cp = self
                .pre
                .store
                .earliest_for(page)
                .ok_or_else(|| format!("missing checkpoint for page {page:#x}"))?;
            mem.restore_page(page_base(page), &cp.data);
        }
        Ok(())
    }
}

/// Executes one fault-injection run and classifies it.
///
/// With [`CampaignOptions::tiered`] set, the checkpoint-rollback
/// re-execution (the only deterministic, fault-free segment of a run)
/// executes on the functional tier (see [`Trial::rerun`]); the faulty
/// run itself stays fully cycle-accurate so classification and the
/// recorded cycle counts are bit-for-bit unchanged.
pub fn run_one_with(
    w: &Workload,
    model: FaultModel,
    run: u32,
    seed: u64,
    r: &RefState,
    opts: &CampaignOptions,
) -> RunRecord {
    let image = assemble(w.source).expect("corpus workload assembles");
    let plan = FaultPlan::sample(model, seed, &r.profile);
    let t = Trial::observe(w, &image, r, None, &plan);
    let outcome = if let Some(m) = t.down() {
        Outcome::Degraded(m)
    } else if let Some(m) = t.detected_by() {
        Outcome::DetectedByModule(m)
    } else if t.safe_mode() {
        Outcome::WatchdogTimeout
    } else if t.b.engine.stats().quarantines > 0 {
        Outcome::Contained
    } else if t.end.timed_out() {
        Outcome::Hang
    } else if t.end.crashed() {
        Outcome::CrashTrap
    } else if t.golden {
        Outcome::Masked
    } else {
        Outcome::Sdc
    };
    let recovery = match (&t.end, outcome) {
        (_, Outcome::Degraded(_)) if t.golden => RecoveryStatus::Succeeded {
            mechanism: "quarantine-nop-mux",
        },
        (_, Outcome::Contained) if t.golden => RecoveryStatus::Succeeded {
            mechanism: "probe-re-enable",
        },
        (TrialEnd::Bare(_), Outcome::Masked | Outcome::Sdc) => RecoveryStatus::NotNeeded,
        (TrialEnd::Bare(_), _) if t.golden => RecoveryStatus::Succeeded {
            mechanism: if matches!(outcome, Outcome::DetectedByModule(_)) {
                "flush-refetch"
            } else {
                "safe-mode-decouple"
            },
        },
        (TrialEnd::Bare(_), _) => t.rollback(r, opts.tiered),
        (TrialEnd::Os(exit), Outcome::Degraded(_) | Outcome::Contained) => {
            RecoveryStatus::FailedSafeHalt {
                cause: format!(
                    "degraded-mode run diverged (output {:?}, exit {:?})",
                    t.output, exit
                ),
            }
        }
        (TrialEnd::Os(exit), Outcome::DetectedByModule(_)) => {
            if *exit == (OsExit::Exited { code: 0 }) && t.output == DDT_RECOVERED_OUTPUT {
                RecoveryStatus::Succeeded {
                    mechanism: "ddt-checkpoint-rollback",
                }
            } else {
                RecoveryStatus::FailedSafeHalt {
                    cause: format!(
                        "post-recovery run diverged (output {:?}, exit {:?})",
                        t.output, exit
                    ),
                }
            }
        }
        (TrialEnd::Os(_), _) => RecoveryStatus::NotNeeded,
    };
    RunRecord {
        workload: w.name,
        model: model.name(),
        run,
        seed,
        outcome,
        recovery,
        cycles: t.cycles(),
        faults: plan.describe(),
    }
}

/// One campaign cell: `runs` injections of `model` into `workload`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignCell {
    /// Workload name (must resolve via [`by_name`]).
    pub workload: &'static str,
    /// Fault model.
    pub model: FaultModel,
    /// Number of runs.
    pub runs: u32,
}

/// A full campaign specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Base seed every per-run seed is derived from.
    pub base_seed: u64,
    /// The cells, executed in order.
    pub cells: Vec<CampaignCell>,
}

impl CampaignSpec {
    /// The pinned 64-run CI smoke campaign: every fault model exercised
    /// across the corpus.
    pub fn smoke(base_seed: u64) -> CampaignSpec {
        let cell = |workload, model, runs| CampaignCell {
            workload,
            model,
            runs,
        };
        CampaignSpec {
            base_seed,
            cells: vec![
                cell("alu_loop", FaultModel::RegSingle, 8),
                cell("alu_loop", FaultModel::MemData, 8),
                cell("mem_checksum", FaultModel::RegDouble, 8),
                cell("mem_checksum", FaultModel::MemData, 8),
                cell("icm_loop", FaultModel::FetchWord, 8),
                cell("icm_loop", FaultModel::MemText, 8),
                cell("icm_loop", FaultModel::ChkDrop, 4),
                cell("icm_loop", FaultModel::ChkGarble, 4),
                cell("ddt_recover", FaultModel::MemData, 8),
            ],
        }
    }

    /// The zero-fault control campaign: every workload under the
    /// `control` model. All runs must classify as `masked`.
    pub fn control(base_seed: u64, runs: u32) -> CampaignSpec {
        CampaignSpec {
            base_seed,
            cells: corpus()
                .iter()
                .map(|w| CampaignCell {
                    workload: w.name,
                    model: FaultModel::Control,
                    runs,
                })
                .collect(),
        }
    }

    /// The quarantine matrix: every module-targeted fault model against
    /// the two module-bearing workloads. This is the degraded-mode
    /// coverage campaign — it measures how often a faulted module is
    /// contained (quarantine → NOP mux → guest completes) or healed
    /// (backoff probe re-enables it) instead of decoupling the whole
    /// framework.
    pub fn quarantine(base_seed: u64, runs: u32) -> CampaignSpec {
        const MODULE_MODELS: [FaultModel; 4] = [
            FaultModel::ModValidStuck0,
            FaultModel::ModValidStuck1,
            FaultModel::ModStateCorrupt,
            FaultModel::MauDrop,
        ];
        let mut cells = Vec::new();
        for name in ["icm_loop", "ddt_recover"] {
            let w = by_name(name).expect("corpus workload");
            for model in MODULE_MODELS {
                if model.applicable(w) {
                    cells.push(CampaignCell {
                        workload: w.name,
                        model,
                        runs,
                    });
                }
            }
        }
        CampaignSpec { base_seed, cells }
    }

    /// The full cross product: every applicable (workload, model) pair,
    /// `runs` injections each.
    pub fn full(base_seed: u64, runs: u32) -> CampaignSpec {
        let mut cells = Vec::new();
        for w in corpus() {
            for model in FaultModel::ALL {
                if model.applicable(w) {
                    cells.push(CampaignCell {
                        workload: w.name,
                        model,
                        runs,
                    });
                }
            }
        }
        CampaignSpec { base_seed, cells }
    }

    /// Total runs in the spec.
    pub fn total_runs(&self) -> u64 {
        self.cells.iter().map(|c| u64::from(c.runs)).sum()
    }
}

/// Execution options for a campaign. Tiering and sharding never change
/// a single output byte — they only change how fast the same records
/// are produced. The rollback retry budget *is* part of the replay
/// contract: it bounds how many re-executions a recovery-window
/// adversary can force before the run escalates to a safe halt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignOptions {
    /// Run deterministic fault-free segments (checkpoint-rollback
    /// re-execution) on the functional tier.
    pub tiered: bool,
    /// Worker threads for run-level sharding; `0` or `1` runs
    /// sequentially.
    pub threads: usize,
    /// Rollback retry budget for recovery-window strikes (the
    /// `--max-rerun` flag; see [`rse_sys::recovery::validate_max_rerun`]).
    pub max_rerun: u32,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            tiered: false,
            threads: 1,
            max_rerun: rse_sys::DEFAULT_MAX_RERUN,
        }
    }
}

/// Executes a campaign: golden references are computed once per
/// workload, then every cell's runs execute in order. Equivalent to
/// [`run_campaign_with`] with default (sequential, untiered) options.
///
/// # Panics
///
/// Panics if a cell names an unknown workload or an inapplicable fault
/// model — specs are validated eagerly so a bad campaign never half-runs.
pub fn run_campaign(spec: &CampaignSpec) -> Vec<RunRecord> {
    run_campaign_with(spec, &CampaignOptions::default())
}

/// Executes a campaign under [`CampaignOptions`] (see [`run_cells`]):
/// the merged record vector — and therefore [`to_jsonl`] — is
/// byte-for-byte identical for every thread count and tiering choice.
///
/// # Panics
///
/// Panics as [`run_campaign`] does on an invalid spec, and propagates
/// any worker panic.
pub fn run_campaign_with(spec: &CampaignSpec, opts: &CampaignOptions) -> Vec<RunRecord> {
    let cells = spec.cells.iter().map(|c| (c.workload, c.model, c.runs));
    run_cells(
        spec.base_seed,
        cells,
        opts.threads,
        |w, model, run, seed, r| run_one_with(w, model, run, seed, r, opts),
    )
}

/// What the shared campaign runner needs of a cell's model: the kind of
/// subject a cell names, whether the model applies to it, and the stable
/// index folded into the per-run seed. Implemented by [`FaultModel`]
/// (subjects are corpus workloads) and by `rse-attack`'s attack models
/// (subjects are victims).
pub trait CellModel: Copy + Sync + std::fmt::Display {
    /// What a cell runs against.
    type Subject: Sync + 'static;
    /// The subject noun spec-validation panics use.
    const SUBJECT: &'static str;
    /// Resolves a subject by name.
    fn subject(name: &str) -> Option<&'static Self::Subject>;
    /// The workload a subject runs.
    fn workload(s: &Self::Subject) -> &Workload;
    /// Whether the model applies to the subject.
    fn applies_to(self, s: &Self::Subject) -> bool;
    /// The model's stable seed-derivation index.
    fn seed_index(self) -> u64;
}

impl CellModel for FaultModel {
    type Subject = Workload;
    const SUBJECT: &'static str = "workload";
    fn subject(name: &str) -> Option<&'static Workload> {
        by_name(name)
    }
    fn workload(w: &Workload) -> &Workload {
        w
    }
    fn applies_to(self, w: &Workload) -> bool {
        self.applicable(w)
    }
    fn seed_index(self) -> u64 {
        self.index()
    }
}

/// The campaign body shared by the fault and attack runners. Every
/// `(subject, model, runs)` cell is validated before anything runs (a
/// bad spec never half-runs), each subject's golden reference is computed
/// once, every `(cell, run)` job's seed is precomputed from the spec
/// alone ([`cell_seed`]), and the jobs are sharded with [`run_sharded`],
/// so the result vector is identical at every thread count.
///
/// # Panics
///
/// Panics if a cell names an unknown subject or an inapplicable model,
/// and propagates any worker panic.
pub fn run_cells<M: CellModel, R: Send>(
    base_seed: u64,
    cells: impl IntoIterator<Item = (&'static str, M, u32)>,
    threads: usize,
    job: impl Fn(&'static M::Subject, M, u32, u64, &RefState) -> R + Sync,
) -> Vec<R> {
    let cells: Vec<(&'static M::Subject, M, u32)> = cells
        .into_iter()
        .map(|(name, model, runs)| {
            let s = M::subject(name).unwrap_or_else(|| panic!("unknown {} {name:?}", M::SUBJECT));
            assert!(
                model.applies_to(s),
                "model {model} is not applicable to {} {}",
                M::SUBJECT,
                M::workload(s).name
            );
            (s, model, runs)
        })
        .collect();
    let mut refs: BTreeMap<&str, RefState> = BTreeMap::new();
    for &(s, _, _) in &cells {
        let w = M::workload(s);
        refs.entry(w.name).or_insert_with(|| reference(w));
    }
    let jobs: Vec<(&'static M::Subject, M, u32, u64)> = cells
        .iter()
        .flat_map(|&(s, model, runs)| {
            let name = M::workload(s).name;
            (0..runs).map(move |run| (s, model, run, cell_seed(base_seed, name, model, run)))
        })
        .collect();
    run_sharded(&jobs, threads, |_, &(s, model, run, seed)| {
        job(s, model, run, seed, &refs[M::workload(s).name])
    })
}

/// Runs `jobs` through `f`, sharding across `threads` worker threads.
///
/// Sharding is run-level and embarrassingly parallel: worker `t` of `T`
/// takes jobs `t, t+T, t+2T, …` (round-robin, so long cells spread
/// across workers) and the results merge back by job index — the result
/// vector is identical at every thread count. `0` or `1` threads runs
/// inline. Shared by the injection and adversarial campaign runners.
///
/// # Panics
///
/// Propagates any worker panic.
pub fn run_sharded<J: Sync, R: Send>(
    jobs: &[J],
    threads: usize,
    f: impl Fn(usize, &J) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads == 1 {
        return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let f = &f;
            handles.push(scope.spawn(move || {
                jobs.iter()
                    .enumerate()
                    .skip(t)
                    .step_by(threads)
                    .map(|(i, j)| (i, f(i, j)))
                    .collect::<Vec<_>>()
            }));
        }
        for handle in handles {
            for (i, rec) in handle.join().expect("campaign worker panicked") {
                slots[i] = Some(rec);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job produced a record"))
        .collect()
}

/// Serializes records as JSON lines (one record per line, trailing
/// newline).
pub fn to_jsonl(records: &[RunRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_stable_and_well_spread() {
        let a = derive_seed(1, "alu_loop", FaultModel::RegSingle, 0);
        assert_eq!(a, derive_seed(1, "alu_loop", FaultModel::RegSingle, 0));
        assert_ne!(a, derive_seed(2, "alu_loop", FaultModel::RegSingle, 0));
        assert_ne!(a, derive_seed(1, "mem_checksum", FaultModel::RegSingle, 0));
        assert_ne!(a, derive_seed(1, "alu_loop", FaultModel::RegDouble, 0));
        assert_ne!(a, derive_seed(1, "alu_loop", FaultModel::RegSingle, 1));
    }

    #[test]
    fn smoke_spec_is_64_runs() {
        assert_eq!(CampaignSpec::smoke(0).total_runs(), 64);
    }

    #[test]
    fn full_spec_skips_inapplicable_models() {
        let spec = CampaignSpec::full(0, 1);
        assert!(spec
            .cells
            .iter()
            .all(|c| c.model.applicable(by_name(c.workload).unwrap())));
        // icm_loop has no data buffer; bare workloads have no CHECKs.
        assert!(!spec
            .cells
            .iter()
            .any(|c| c.workload == "icm_loop" && c.model == FaultModel::MemData));
        assert!(!spec
            .cells
            .iter()
            .any(|c| c.workload == "alu_loop" && c.model == FaultModel::ChkDrop));
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn bad_spec_is_rejected_eagerly() {
        run_campaign(&CampaignSpec {
            base_seed: 0,
            cells: vec![CampaignCell {
                workload: "alu_loop",
                model: FaultModel::ChkDrop,
                runs: 1,
            }],
        });
    }

    #[test]
    fn control_runs_are_all_masked() {
        let records = run_campaign(&CampaignSpec::control(7, 2));
        assert_eq!(records.len(), 8);
        for r in &records {
            assert_eq!(r.outcome, Outcome::Masked, "{}", r.to_json());
            assert_eq!(r.recovery, RecoveryStatus::NotNeeded);
            assert_eq!(r.faults, "none");
        }
    }

    #[test]
    fn quarantine_spec_covers_module_models() {
        let spec = CampaignSpec::quarantine(0, 2);
        assert_eq!(spec.cells.len(), 7, "{:?}", spec.cells);
        assert_eq!(spec.total_runs(), 14);
        assert!(spec
            .cells
            .iter()
            .all(|c| c.model.applicable(by_name(c.workload).unwrap())));
        // MauDrop needs the ICM harness's MAU traffic.
        assert!(!spec
            .cells
            .iter()
            .any(|c| c.workload == "ddt_recover" && c.model == FaultModel::MauDrop));
    }

    #[test]
    fn stuck_valid_line_is_confined_to_the_module() {
        let w = by_name("icm_loop").unwrap();
        let r = reference(w);
        let seed = derive_seed(3, w.name, FaultModel::ModValidStuck0, 0);
        let rec = run_one_with(
            w,
            FaultModel::ModValidStuck0,
            0,
            seed,
            &r,
            &CampaignOptions::default(),
        );
        assert!(
            rec.outcome.is_confined(),
            "expected containment, got {}",
            rec.to_json()
        );
    }

    /// A mixed mini-campaign (injections across the three harness
    /// flavors) whose outputs the tiered and sharded paths must
    /// reproduce byte-for-byte.
    fn mini_spec() -> CampaignSpec {
        CampaignSpec {
            base_seed: 0xD5B,
            cells: vec![
                CampaignCell {
                    workload: "alu_loop",
                    model: FaultModel::RegSingle,
                    runs: 3,
                },
                // With base seed 0xD5B, mem-text run 1 classifies as a
                // hang that recovers via checkpoint-rollback — the exact
                // segment the tiered path moves to the functional tier
                // (see the pinned smoke golden).
                CampaignCell {
                    workload: "icm_loop",
                    model: FaultModel::MemText,
                    runs: 2,
                },
                CampaignCell {
                    workload: "ddt_recover",
                    model: FaultModel::MemData,
                    runs: 2,
                },
            ],
        }
    }

    #[test]
    fn tiered_campaign_is_byte_identical() {
        let spec = mini_spec();
        let records = run_campaign(&spec);
        assert!(
            records
                .iter()
                .any(|r| r.to_json().contains("recovered:checkpoint-rollback")),
            "mini spec must exercise the rollback re-run the tiered path replaces"
        );
        let base = to_jsonl(&records);
        let tiered = to_jsonl(&run_campaign_with(
            &spec,
            &CampaignOptions {
                tiered: true,
                ..CampaignOptions::default()
            },
        ));
        assert_eq!(base, tiered);
    }

    #[test]
    fn sharded_campaign_is_byte_identical() {
        let spec = mini_spec();
        let base = to_jsonl(&run_campaign(&spec));
        for threads in [3, 16] {
            let sharded = to_jsonl(&run_campaign_with(
                &spec,
                &CampaignOptions {
                    tiered: true,
                    threads,
                    ..CampaignOptions::default()
                },
            ));
            assert_eq!(base, sharded, "threads={threads}");
        }
    }

    /// A fault-free observed run of the named workload, for driving
    /// [`Trial::rerun`] into each of its failure causes.
    fn control_trial<'a>(w: &'a Workload, image: &'a Image, r: &RefState) -> Trial<'a> {
        Trial::observe(w, image, r, None, &FaultPlan { faults: Vec::new() })
    }

    #[test]
    fn rerun_reaches_golden_on_both_tiers() {
        for name in ["icm_loop", "ddt_recover"] {
            let w = by_name(name).unwrap();
            let image = assemble(w.source).unwrap();
            let r = reference(w);
            let t = control_trial(w, &image, &r);
            assert!(t.golden, "{name}");
            for tiered in [false, true] {
                assert_eq!(t.rerun(&r, tiered, None), Ok(()), "{name} tiered={tiered}");
            }
        }
    }

    #[test]
    fn rerun_cause_strings_are_pinned() {
        let w = by_name("alu_loop").unwrap();
        let image = assemble(w.source).unwrap();
        let r = reference(w);
        let mut t = control_trial(w, &image, &r);
        let mut wrong = r.clone();
        wrong.digest ^= 1;
        for tiered in [false, true] {
            assert_eq!(
                t.rerun(&wrong, tiered, None),
                Err("re-executed state diverged from golden".into()),
                "tiered={tiered}"
            );
        }
        t.budget = 50;
        for tiered in [false, true] {
            assert_eq!(
                t.rerun(&r, tiered, None),
                Err("re-execution after rollback did not complete".into()),
                "tiered={tiered}"
            );
        }
        // Drop the data page: the text page before it restores, then the
        // rollback stops on the first page the store cannot supply.
        let data_page = *t.pre.pages.last().unwrap();
        t.pre.store.forget_page(data_page);
        for tiered in [false, true] {
            assert_eq!(
                t.rerun(&r, tiered, None),
                Err("missing checkpoint for page 0x10000".into()),
                "tiered={tiered}"
            );
        }
    }

    #[test]
    fn os_rerun_cause_strings_are_pinned() {
        let w = by_name("ddt_recover").unwrap();
        let image = assemble(w.source).unwrap();
        let r = reference(w);
        let mut t = control_trial(w, &image, &r);
        let mut wrong = r.clone();
        wrong.output.push(7);
        assert_eq!(
            t.rerun(&wrong, false, None),
            Err("re-executed state diverged from golden".into())
        );
        t.budget = 50;
        for tiered in [false, true] {
            assert_eq!(
                t.rerun(&r, tiered, None),
                Err("re-execution after rollback ended with Timeout".into()),
                "tiered={tiered}"
            );
        }
    }

    #[test]
    fn references_are_reproducible() {
        for w in corpus() {
            let a = reference(w);
            let b = reference(w);
            assert_eq!(a, b, "reference for {} is nondeterministic", w.name);
            assert!(a.profile.cycles > 0);
            assert!(a.profile.fetched > 0);
        }
    }
}
