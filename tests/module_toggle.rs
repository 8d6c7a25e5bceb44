//! A guest that switches its only module on and off must not leak the
//! engine's per-instruction entries. Disabling the last module puts the
//! engine on its no-module fast path while older instructions, latched
//! with the module on, are still in flight; their input-queue and IOQ
//! entries must still be freed when they commit or are squashed, or a
//! few dozen toggles overflow the ROB-sized queues.

use rse::core::testutil::CountingModule;
use rse::core::{Engine, RseConfig};
use rse::isa::asm::assemble;
use rse::isa::ModuleId;
use rse::mem::{MemConfig, MemorySystem};
use rse::pipeline::{Pipeline, PipelineConfig, StepEvent};

const TOGGLE_LOOP: &str = r#"
    main:   li   r8, 0
            li   r9, 40
    loop:   chk  icm, nblk, 0, 0
            addi r10, r10, 3
            add  r11, r11, r10
            chk  icm, nblk, 1, 0
            addi r8, r8, 1
            bne  r8, r9, loop
            halt
"#;

#[test]
fn toggling_the_only_module_forty_times_halts_with_empty_queues() {
    let image = assemble(TOGGLE_LOOP).expect("assembles");
    let mut cpu = Pipeline::new(
        PipelineConfig::default(),
        MemorySystem::new(MemConfig::with_framework()),
    );
    cpu.load_image(&image);
    let mut engine = Engine::new(RseConfig::default());
    engine.install(Box::new(CountingModule::new(ModuleId::ICM)));
    assert_eq!(cpu.run(&mut engine, 1_000_000), StepEvent::Halted);

    assert_eq!(cpu.regs()[8], 40);
    assert_eq!(engine.stats().enables, 40);
    assert_eq!(engine.stats().disables, 40);
    assert!(!engine.is_enabled(ModuleId::ICM));
    let q = engine.queues();
    for (name, len) in [
        ("Fetch_Out", q.fetch_out.len()),
        ("Regfile_Data", q.regfile_data.len()),
        ("Execute_Out", q.execute_out.len()),
        ("Memory_Out", q.memory_out.len()),
    ] {
        assert_eq!(len, 0, "{name} still holds entries after the halt");
    }
    assert_eq!(engine.ioq().occupancy(), 0, "IOQ still holds entries");
}
