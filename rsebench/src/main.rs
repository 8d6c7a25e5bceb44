//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path rsebench/Cargo.toml -- \
//!     --workload sim-paper|campaigns-fleet [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root (the goldens are read from
//! `tests/golden/`). A timed run measures the named workload for
//! `--seconds`; a traced run (`--trace 1`) passes every part once
//! untraced and once traced. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it records the host, the seed, the calibration kernel and the
//! pass times. Any failed correctness check makes the exit code 1.

use rsebench::report::{json_num, json_str};
use rsebench::{host, run_timed, run_traced, Args, Outcome, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: rsebench --workload sim-paper|campaigns-fleet \
     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_u64(flag: &str, v: Option<String>) -> Result<u64, String> {
    let v = v.ok_or_else(|| format!("{flag} expects a value"))?;
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("{flag}: '{v}' is not an unsigned integer"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload expects a name")?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = Some(parse_u64("--seed", it.next())?),
            "--seconds" => seconds = parse_u64("--seconds", it.next())?,
            "--trace" => {
                trace = match parse_u64("--trace", it.next())? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag '{a}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn context_line(args: &Args, out: &Outcome, h: &host::Host) -> String {
    let calibration: Vec<String> = out
        .calibration
        .iter()
        .map(|(when, ms)| format!("[{},{}]", json_str(when), json_num(*ms)))
        .collect();
    format!(
        "{{\"host\":{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{}}},\
         \"workload\":\"{}\",\"seed\":{},\"trace\":{},\"threads\":1,\
         \"calibration_ms\":[{}],\"pass_s\":[{}]}}",
        h.nproc,
        json_str(&h.cpu_model),
        json_str(&h.rustc),
        json_str(&h.commit),
        args.workload.name(),
        args.seed.map_or("null".into(), |s| s.to_string()),
        u8::from(args.trace),
        calibration.join(","),
        out.passes
            .iter()
            .map(|s| json_num(*s))
            .collect::<Vec<_>>()
            .join(","),
    )
}

/// Writes the traced run's spans to `rsebench/out/`.
fn write_spans(args: &Args, out: &Outcome) {
    let Some(tr) = &out.spans else { return };
    let dir = "rsebench/out";
    let path = format!(
        "{dir}/spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed.map_or("default".into(), |s| s.to_string())
    );
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => eprintln!("rsebench: {} spans written to {path}", tr.spans().len()),
        Err(e) => eprintln!("rsebench: cannot write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let h = host::Host::probe();
    let out = if args.trace {
        run_traced(&args)
    } else {
        run_timed(&args)
    };
    write_spans(&args, &out);
    println!("{}", context_line(&args, &out, &h));
    let c = out.checks;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        out.sheet.to_json()
    );
    if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
