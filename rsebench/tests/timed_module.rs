//! The timing wrapper is transparent: a run with every module wrapped in
//! `TimedModule` simulates exactly what the unwrapped run does, and the
//! engine still downcasts to the wrapped module's concrete type. An
//! untraced run, driven through `Os::run` in slices, simulates exactly
//! what one whole `Os::run` call does.

use rse_bench::{run_workload, MachineConfig};
use rse_isa::asm::assemble;
use rse_workloads::kmeans::{self, KmeansParams};
use rse_workloads::server::{self, ServerParams};
use rsebench::sim_paper::{run_kernel, run_server};
use rsebench::trace::Tracer;

fn small_kmeans() -> rse_isa::Image {
    let p = KmeansParams {
        patterns: 24,
        dims: 4,
        clusters: 4,
        iters: 1,
        seed: 3,
    };
    assemble(&kmeans::source(&p)).expect("kmeans assembles")
}

#[test]
fn wrapped_icm_run_matches_unwrapped_run() {
    let image = small_kmeans();
    let mut tr = Tracer::default();
    let plain = run_kernel(&image, MachineConfig::FrameworkIcm, None);
    let wrapped = run_kernel(&image, MachineConfig::FrameworkIcm, Some(&mut tr));
    assert!(plain.icm.is_some(), "unwrapped ICM downcasts");
    assert!(wrapped.icm.is_some(), "wrapped ICM still downcasts");
    assert!(wrapped.clock.as_ref().is_some_and(|c| c.calls.get() > 0));
    assert_eq!(plain.pipeline, wrapped.pipeline);
    assert_eq!(plain.mem, wrapped.mem);
    assert_eq!(plain.rse, wrapped.rse);
    assert_eq!(plain.icm, wrapped.icm);
    assert_eq!(plain.output, wrapped.output);
    assert!(
        tr.total_ns("core.os_run") > 0,
        "the Os::run span was recorded"
    );
}

#[test]
fn wrapped_ddt_run_matches_unwrapped_run() {
    let p = ServerParams {
        threads: 2,
        work: 40,
        ..ServerParams::default()
    };
    let image = assemble(&server::source(&p)).expect("server assembles");
    let mut tr = Tracer::default();
    let plain = run_server(&image, true, None);
    let wrapped = run_server(&image, true, Some(&mut tr));
    assert!(wrapped.ddt.is_some(), "wrapped DDT still downcasts");
    assert!(plain.same_simulation(&wrapped));
    assert_eq!(plain.ddt, wrapped.ddt);
}

#[test]
fn kernel_harness_mirrors_run_workload() {
    let p = KmeansParams {
        patterns: 256,
        dims: 8,
        clusters: 4,
        iters: 1,
        seed: 3,
    };
    let image = assemble(&kmeans::source(&p)).expect("kmeans assembles");
    for m in [MachineConfig::Baseline, MachineConfig::FrameworkIcm] {
        let ours = run_kernel(&image, m, None);
        assert!(ours.slice_ns.len() > 2, "{m:?} ran in several slices");
        let theirs = run_workload(&image, m, 100_000_000);
        assert_eq!(ours.pipeline, theirs.pipeline, "{m:?}");
        assert_eq!(ours.mem, theirs.mem, "{m:?}");
    }
}
