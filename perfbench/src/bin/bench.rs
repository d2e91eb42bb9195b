//! `bench run` / `bench compare` — see README.md.

use std::path::PathBuf;
use std::process::ExitCode;

use cstore_perfbench::compare::{compare, Spec};
use cstore_perfbench::runner::{run_full_set, run_single, RunOptions};

const USAGE: &str = "\
usage:
  bench run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
            [--dir <scratch>] [--trace-out <file>]
      one workload in this process; the last stdout line is its JSON result
  bench run --out <dir> [--seed N] [--seconds S] [--quick]
      every workload, untraced then traced, appended to <dir> as a new set
  bench compare <dirA> <dirB> [--spec BENCHMARK.json]
      judge B against base A with the bounds in BENCHMARK.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            RunOptions::parse(rest).and_then(|o| match &o.workload {
                Some(w) => run_single(&o, w),
                None => run_full_set(&o),
            })
        }
        Some((cmd, rest)) if cmd == "compare" => run_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(args: &[String]) -> Result<i32, String> {
    let mut dirs = Vec::new();
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec_path = it.next().ok_or("--spec needs a value")?.into();
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [a, b] = dirs.as_slice() else {
        return Err(USAGE.to_string());
    };
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let regressed = compare(&Spec::parse(&text)?, a, b)?;
    Ok(i32::from(regressed))
}
