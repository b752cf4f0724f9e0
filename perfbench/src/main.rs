//! Benchmark command:
//!
//! ```text
//! synthattr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! synthattr-perfbench --pin <full|tiny>
//! ```
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when any output check failed.

use std::process::ExitCode;

use synthattr_perfbench::alloc::CountingAllocator;
use synthattr_perfbench::{offline, run, Options, Size, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn size(name: &str) -> Result<Size, String> {
    match name {
        "full" => Ok(Size::Full),
        "tiny" => Ok(Size::Tiny),
        other => Err(format!("unknown size {other:?}")),
    }
}

fn options(args: &[String]) -> Result<Options, String> {
    let need = |flag: &str| value(args, flag).ok_or(format!("missing {flag}"));
    let workload = Workload::parse(need("--workload")?)
        .ok_or_else(|| format!("unknown workload {:?}", value(args, "--workload")))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(name) = value(&args, "--pin") {
        return match size(name).and_then(offline::pin_line) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pin: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let o = match options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("usage: --workload <paper-year|chain-chaos|serve-cold|serve-warm> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, errors) = run(&o);
    eprintln!(
        "[perfbench] {} seed={} trace={} attempted={} failed={} fail_ratio={}",
        o.workload.name(),
        o.seed,
        o.trace as u8,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted as f64
    );
    for name in outcome.metrics.names() {
        eprintln!(
            "[perfbench]   {name} = {}",
            outcome.metrics.get(name).unwrap_or(0.0)
        );
    }
    for e in &errors {
        eprintln!("[perfbench] error: {e}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
