//! Micro-benchmarks of the core data structures and the simulator
//! itself (host-side performance; the *simulated* results come from the
//! `table*`/`fig*` binaries). Runs on the in-repo `rse_support::bench`
//! timer — median/p95 per benchmark, JSON lines via `RSE_BENCH_JSON`.

use rse_core::{Engine, RseConfig};
use rse_isa::asm::assemble;
use rse_isa::ModuleId;
use rse_mem::{Cache, CacheConfig, MemConfig, MemorySystem};
use rse_modules::ddt::{transition, DependencyMatrix, PageStatusTable};
use rse_modules::{Ahbm, AhbmConfig, Icm, IcmConfig, Mlr, MlrConfig};
use rse_pipeline::{CheckPolicy, NullCoProcessor, Pipeline, PipelineConfig, StepEvent};
use rse_support::bench::{black_box, Harness};

fn bench_cache(c: &mut Harness) {
    c.bench_function("cache/dl2_access_stream", |b| {
        let mut cache = Cache::new(CacheConfig::dl2());
        let mut addr = 0u32;
        b.iter(|| {
            addr = addr.wrapping_add(68); // stride with conflicts
            black_box(cache.access(addr, addr.is_multiple_of(3)));
        });
    });
}

fn bench_ddm(c: &mut Harness) {
    c.bench_function("ddt/ddm_log_and_taint_64", |b| {
        let mut m = DependencyMatrix::new(64);
        let mut x = 1u32;
        b.iter(|| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let p = (x >> 8) as usize % 64;
            let q = (x >> 16) as usize % 64;
            m.log(p, q);
            black_box(m.tainted_by(p));
        });
    });
}

fn bench_pst(c: &mut Harness) {
    c.bench_function("ddt/pst_transition_stream", |b| {
        let mut pst = PageStatusTable::new(1024);
        let mut x = 1u32;
        b.iter(|| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let page = (x >> 12) % 2048;
            let thread = ((x >> 4) % 8) as usize;
            black_box(pst.with_entry(page, |o| transition(o, thread, x & 1 == 0)));
        });
    });
}

fn bench_assembler(c: &mut Harness) {
    let src = rse_workloads::kmeans::source(&rse_workloads::kmeans::KmeansParams::default());
    c.bench_function("isa/assemble_kmeans", |b| {
        b.iter(|| black_box(assemble(&src).unwrap()));
    });
}

fn bench_pipeline_throughput(c: &mut Harness) {
    let image = assemble(
        r#"
        main:   li   r8, 0
                li   r9, 2000
        loop:   addi r8, r8, 1
                andi r10, r8, 7
                add  r11, r11, r10
                bne  r8, r9, loop
                halt
        "#,
    )
    .unwrap();
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(20);
    group.bench_function("simulate_8k_instructions", |b| {
        b.iter(|| {
            let mut cpu = Pipeline::new(
                PipelineConfig::default(),
                MemorySystem::new(MemConfig::baseline()),
            );
            cpu.load_image(&image);
            assert_eq!(cpu.run(&mut NullCoProcessor, 10_000_000), StepEvent::Halted);
            black_box(cpu.stats().cycles)
        });
    });
    group.bench_function("simulate_8k_instructions_with_engine", |b| {
        b.iter(|| {
            let mut cpu = Pipeline::new(
                PipelineConfig::default(),
                MemorySystem::new(MemConfig::with_framework()),
            );
            cpu.load_image(&image);
            let mut engine = Engine::new(RseConfig::default());
            assert_eq!(cpu.run(&mut engine, 10_000_000), StepEvent::Halted);
            black_box(cpu.stats().cycles)
        });
    });
    // The engine's real path, shaped like the campaign ICM harness: a
    // blocking ICM CHECK before every control-flow instruction, with the
    // MLR and AHBM enabled alongside. The case above enables no module,
    // so it times only the engine's fast path.
    group.bench_function("simulate_8k_instructions_with_icm", |b| {
        b.iter(|| {
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
            let mut engine = Engine::new(RseConfig::default());
            engine.install(Box::new(icm));
            engine.install(Box::new(Mlr::new(MlrConfig::default())));
            engine.install(Box::new(Ahbm::new(AhbmConfig::default())));
            for id in [ModuleId::ICM, ModuleId::MLR, ModuleId::AHBM] {
                engine.enable(id);
            }
            assert_eq!(cpu.run(&mut engine, 10_000_000), StepEvent::Halted);
            black_box(cpu.stats().cycles)
        });
    });
    group.finish();
}

fn main() {
    let mut h = Harness::from_env();
    bench_cache(&mut h);
    bench_ddm(&mut h);
    bench_pst(&mut h);
    bench_assembler(&mut h);
    bench_pipeline_throughput(&mut h);
    h.finish();
}
