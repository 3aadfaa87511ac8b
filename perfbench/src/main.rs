//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one workload in this process, prints the deterministic counts,
//! check results and (when traced) the per-layer self-time table, then the
//! result as one JSON object on the last line.

use perfbench::workloads::{run_named, NAMES};
use perfbench::{result_json, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("perfbench: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Options {
        seed: 7,
        seconds: 10.0,
        trace: false,
        out_dir: Some(PathBuf::from("perfbench/out")),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| opts.seconds = v).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            "--out" => {
                opts.out_dir = Some(PathBuf::from(value));
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    let Some(result) = run_named(&name, &opts) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    for line in &result.lines {
        println!("{line}");
    }
    println!("{}", result_json(&result));
    ExitCode::SUCCESS
}
