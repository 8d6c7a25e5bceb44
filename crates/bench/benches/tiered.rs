//! Tiered-execution speed curve: how much wall clock the functional
//! fast-path saves as the cycle-accurate window shrinks.
//!
//! A long-horizon guest (~300k instructions) runs under the
//! [`TieredDriver`] with windows of decreasing width — from
//! whole-run cycle-accurate (the untiered baseline) down to pure
//! functional — and every variant is asserted to reach the identical
//! architectural register file before it is timed. The
//! `tiered/smoke_baseline` / `tiered/smoke_tiered` pair is the CI gate:
//! `scripts/ci.sh` runs this bench with `RSE_BENCH_JSON` pointing at a
//! scratch file and asserts the median-time speedup is at least 5×;
//! `BENCH_tiered.json` is the committed copy of that output.

use rse_isa::asm::assemble;
use rse_isa::Image;
use rse_mem::MemConfig;
use rse_pipeline::{ExecEvent, NullCoProcessor, PipelineConfig};
use rse_support::bench::{black_box, Harness};
use rse_sys::{TieredDriver, Window};

/// ~300k instructions: 6 per iteration × 50_000 iterations, plus setup.
const ITERS: u32 = 50_000;

fn workload() -> Image {
    let src = format!(
        "main:   li   r8, 0\n\
                 li   r9, {ITERS}\n\
         loop:   addi r8, r8, 1\n\
                 xor  r11, r11, r8\n\
                 addi r12, r12, 3\n\
                 sw   r11, 0(r29)\n\
                 and  r13, r12, r11\n\
                 bne  r8, r9, loop\n\
                 halt"
    );
    assemble(&src).expect("bench workload assembles")
}

/// Runs the workload under `window` to completion and returns the final
/// registers and the unified clock at halt.
fn run_tiered(image: &Image, window: &Window) -> ([u32; 32], u64) {
    let mut d = TieredDriver::new(image, PipelineConfig::default(), MemConfig::baseline());
    let ev = d.run(&mut NullCoProcessor, window, u64::MAX / 2);
    assert_eq!(ev, ExecEvent::Halted, "bench workload must halt");
    (*d.regs(), d.clock())
}

fn main() {
    let mut h = Harness::from_env();
    let image = workload();

    // The unified-clock horizon (functional instruction count) anchors
    // the window positions; the margin matches the pipeline's warm-up
    // needs generously.
    let (golden_regs, horizon) = run_tiered(&image, &Window::none());
    let margin = 2_000u64;
    let late = |pct: u64| Window {
        open: horizon * (100 - pct) / 100,
        close: None,
        margin,
    };
    let mid = Window::around(horizon * 45 / 100, horizon * 55 / 100, margin);

    // Every variant must land on the identical architectural state
    // before we bother timing it.
    for (name, w) in [
        ("whole_run", Window::whole_run()),
        ("last 50%", late(50)),
        ("mid 10%", mid),
        ("last 2%", late(2)),
        ("none", Window::none()),
    ] {
        let (regs, _) = run_tiered(&image, &w);
        assert_eq!(regs, golden_regs, "window {name} diverged");
    }

    // The CI gate pair: untiered baseline vs a realistic late fault
    // window (cycle-accurate only through the last 2% of the run).
    h.bench_function("tiered/smoke_baseline", |b| {
        b.iter(|| black_box(run_tiered(&image, &Window::whole_run())));
    });
    h.bench_function("tiered/smoke_tiered", |b| {
        b.iter(|| black_box(run_tiered(&image, &late(2))));
    });

    // The speed curve: window width shrinking toward pure functional.
    h.bench_function("tiered/window_last_50pct", |b| {
        b.iter(|| black_box(run_tiered(&image, &late(50))));
    });
    h.bench_function("tiered/window_mid_10pct", |b| {
        b.iter(|| black_box(run_tiered(&image, &mid)));
    });
    h.bench_function("tiered/functional_only", |b| {
        b.iter(|| black_box(run_tiered(&image, &Window::none())));
    });

    for (baseline, contender) in [
        ("tiered/smoke_baseline", "tiered/smoke_tiered"),
        ("tiered/smoke_baseline", "tiered/functional_only"),
    ] {
        if let Some(x) = h.speedup(baseline, contender) {
            println!("speedup {contender} over {baseline}: {x:.1}x");
        }
    }
    h.finish();
}
