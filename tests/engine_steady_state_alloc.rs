//! The engine allocates nothing per simulated cycle once warm.
//!
//! A counting global allocator tallies the heap allocations made inside
//! the engine's `CoProcessor` callbacks, which a wrapper calls directly
//! on an `Engine` running the campaign ICM harness: ICM-checked control
//! flow (`CheckPolicy::ControlFlow`) with the ICM, MLR and AHBM enabled.
//! A DRAM-bound load stalls commit, so the ROB, the input queues and the
//! IOQ run full. After a warm-up the callbacks of 10k ticks must not
//! allocate at all; the pipeline's own allocations are not counted.

use rse::core::{Engine, RseConfig};
use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::mem::{MemConfig, MemorySystem};
use rse::modules::{Ahbm, AhbmConfig, Icm, IcmConfig, Mlr, MlrConfig};
use rse::pipeline::{
    CheckPolicy, CoProcessor, CommitGate, CoprocException, DispatchInfo, ExecuteInfo, Pipeline,
    PipelineConfig, RobId, StepEvent,
};
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

const WARMUP_TICKS: u64 = 4_000;
const MEASURED_TICKS: u64 = 10_000;

/// Forwards every callback to the engine, counting the allocations the
/// engine makes inside the measured window of ticks.
struct Metered {
    engine: Engine,
    ticks: u64,
    peak_ioq: usize,
}

impl Metered {
    fn call<R>(&mut self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let measuring = (WARMUP_TICKS..WARMUP_TICKS + MEASURED_TICKS).contains(&self.ticks);
        COUNTING.with(|on| on.set(measuring));
        let r = f(&mut self.engine);
        COUNTING.with(|on| on.set(false));
        if measuring {
            self.peak_ioq = self.peak_ioq.max(self.engine.ioq().occupancy());
        }
        r
    }
}

impl CoProcessor for Metered {
    fn on_dispatch(&mut self, now: u64, info: &DispatchInfo, mem: &mut MemorySystem) {
        self.call(|e| e.on_dispatch(now, info, mem));
    }

    fn on_execute(&mut self, now: u64, info: &ExecuteInfo, mem: &mut MemorySystem) {
        self.call(|e| e.on_execute(now, info, mem));
    }

    fn on_commit(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem) {
        self.call(|e| e.on_commit(now, rob, mem));
    }

    fn on_squash(&mut self, now: u64, rob: RobId, mem: &mut MemorySystem) {
        self.call(|e| e.on_squash(now, rob, mem));
    }

    fn commit_gate(&mut self, now: u64, rob: RobId) -> CommitGate {
        self.call(|e| e.commit_gate(now, rob))
    }

    fn tick(&mut self, now: u64, mem: &mut MemorySystem) {
        self.call(|e| e.tick(now, mem));
        self.ticks += 1;
    }

    fn take_exception(&mut self) -> Option<CoprocException> {
        self.call(|e| e.take_exception())
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
    let mut metered = Metered {
        engine,
        ticks: 0,
        peak_ioq: 0,
    };

    assert_eq!(cpu.run(&mut metered, 10_000_000), StepEvent::Halted);
    assert_eq!(cpu.regs()[9], 3000 * 5 + 3000 * 2);
    assert!(
        metered.ticks >= WARMUP_TICKS + MEASURED_TICKS,
        "the guest ran only {} ticks",
        metered.ticks
    );
    assert_eq!(
        metered.peak_ioq, config.queue_entries,
        "the IOQ never ran full in the measured window"
    );
    let stats = metered.engine.stats();
    assert!(stats.chk_blocking > 1000 && stats.flushes == 0);
    assert!(cpu.stats().squashed > 0, "the loop never mispredicted");
    assert_eq!(
        ALLOCS.with(Cell::get),
        0,
        "engine callbacks allocated in {MEASURED_TICKS} steady-state ticks"
    );
}
