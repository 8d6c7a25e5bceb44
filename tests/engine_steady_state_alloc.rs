//! No simulated cycle allocates once warm, pipeline and engine alike.
//!
//! A counting global allocator tallies the heap allocations made inside
//! `Pipeline::step`, which covers every pipeline stage and every engine
//! callback. Two harnesses run: the Baseline machine (an engine with no
//! module) and the campaign ICM harness, ICM-checked control flow
//! (`CheckPolicy::ControlFlow`) with the ICM, MLR and AHBM enabled. A
//! DRAM-bound load stalls commit, so the ROB, the input queues and the
//! IOQ run full. After a warm-up, 10k cycles must not allocate at all.

use rse::core::{Engine, RseConfig};
use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::mem::{MemConfig, MemorySystem};
use rse::modules::{Ahbm, AhbmConfig, Icm, IcmConfig, Mlr, MlrConfig};
use rse::pipeline::{CheckPolicy, Pipeline, PipelineConfig, StepEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each upholds `GlobalAlloc`'s contract exactly as `System`
// does; the counting touches only const-initialised thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's guarantees on `layout` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's guarantees on `new_size` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_CYCLES: u64 = 4_000;
const MEASURED_CYCLES: u64 = 10_000;

/// What a metered run saw.
struct Metered {
    cycles: u64,
    allocs: u64,
    peak_ioq: usize,
}

/// Steps `cpu` to its halt, counting the allocations made inside the
/// steps of the measured window of cycles.
fn run_metered(cpu: &mut Pipeline, engine: &mut Engine) -> Metered {
    let mut peak_ioq = 0;
    let mut cycles = 0;
    loop {
        let measuring = (WARMUP_CYCLES..WARMUP_CYCLES + MEASURED_CYCLES).contains(&cycles);
        COUNTING.with(|on| on.set(measuring));
        let event = cpu.step(engine);
        COUNTING.with(|on| on.set(false));
        if measuring {
            peak_ioq = peak_ioq.max(engine.ioq().occupancy());
        }
        cycles += 1;
        match event {
            None => assert!(cycles < 10_000_000, "the guest did not halt"),
            Some(StepEvent::Halted) => break,
            Some(other) => panic!("unexpected {other:?}"),
        }
    }
    assert!(
        cycles >= WARMUP_CYCLES + MEASURED_CYCLES,
        "the guest ran only {cycles} cycles"
    );
    Metered {
        cycles,
        allocs: ALLOCS.with(|n| n.replace(0)),
        peak_ioq,
    }
}

/// The campaign ICM loop, run long enough to cover the measured window,
/// plus a load striding past the 128 KB L2 so every iteration waits on
/// DRAM and the ROB backs up behind it.
const ICM_LOOP: &str = r#"
    main:   li   r8, 0
            li   r9, 0
            li   r10, 6000
            la   r13, buf
    loop:   lw   r12, 0(r13)
            addi r13, r13, 64
            addi r8, r8, 1
            andi r11, r8, 1
            beq  r11, r0, even
            addi r9, r9, 5
            b    next
    even:   addi r9, r9, 2
    next:   bne  r8, r10, loop
            halt

            .data
            .align 4
    buf:    .space 4
"#;

#[test]
fn engine_callbacks_do_not_allocate_once_warm() {
    let image = assemble(ICM_LOOP).expect("assembles");
    let mut cpu = Pipeline::new(
        PipelineConfig {
            check_policy: CheckPolicy::ControlFlow,
            ..PipelineConfig::default()
        },
        MemorySystem::new(MemConfig::with_framework()),
    );
    cpu.load_image(&image);
    let mut icm = Icm::new(IcmConfig::default());
    icm.install_for_control_flow(&image, &mut cpu.mem_mut().memory);
    let config = RseConfig::default();
    let mut engine = Engine::new(config);
    engine.install(Box::new(icm));
    engine.install(Box::new(Mlr::new(MlrConfig::default())));
    engine.install(Box::new(Ahbm::new(AhbmConfig::default())));
    for id in [ModuleId::ICM, ModuleId::MLR, ModuleId::AHBM] {
        engine.enable(id);
    }

    let run = run_metered(&mut cpu, &mut engine);
    assert_eq!(cpu.regs()[9], 3000 * 5 + 3000 * 2);
    assert_eq!(
        run.peak_ioq, config.queue_entries,
        "the IOQ never ran full in the measured window"
    );
    let stats = engine.stats();
    assert!(stats.chk_blocking > 1000 && stats.flushes == 0);
    assert!(cpu.stats().squashed > 0, "the loop never mispredicted");
    assert_eq!(
        run.allocs, 0,
        "pipeline steps allocated in {MEASURED_CYCLES} steady-state cycles of {}",
        run.cycles
    );
}

#[test]
fn baseline_pipeline_steps_do_not_allocate_once_warm() {
    let image = assemble(ICM_LOOP).expect("assembles");
    let mut cpu = Pipeline::new(
        PipelineConfig::default(),
        MemorySystem::new(MemConfig::baseline()),
    );
    cpu.load_image(&image);
    let mut engine = Engine::new(RseConfig::default());

    let run = run_metered(&mut cpu, &mut engine);
    assert_eq!(cpu.regs()[9], 3000 * 5 + 3000 * 2);
    assert!(cpu.stats().squashed > 0, "the loop never mispredicted");
    assert_eq!(
        run.allocs, 0,
        "pipeline steps allocated in {MEASURED_CYCLES} steady-state cycles of {}",
        run.cycles
    );
}
