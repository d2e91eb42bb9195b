//! The `bench run` command: one workload in this process (what the
//! driver invokes), or a full set — every workload, untraced then traced,
//! each in a child process of its own — written to a results directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::harness::{Report, RunArgs};
use crate::json::{self, Metric};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workloads;

/// `bench run` options.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOptions {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Results directory of a full set.
    pub out: Option<PathBuf>,
    /// Scratch directory for on-disk state (default: next to the binary).
    pub dir: Option<PathBuf>,
    /// Where a traced single run writes its Chrome trace (default: next
    /// to the binary).
    pub trace_out: Option<PathBuf>,
}

impl RunOptions {
    pub fn parse(args: &[String]) -> Result<RunOptions, String> {
        let mut o = RunOptions {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            quick: false,
            out: None,
            dir: None,
            trace_out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => o.workload = Some(value()?),
                "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                }
                "--trace" => {
                    o.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--quick" => o.quick = true,
                "--out" => o.out = Some(value()?.into()),
                "--dir" => o.dir = Some(value()?.into()),
                "--trace-out" => o.trace_out = Some(value()?.into()),
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        if let Some(w) = &o.workload {
            if !WORKLOADS.iter().any(|(name, _)| name == w) {
                return Err(format!("unknown workload '{w}'"));
            }
        }
        Ok(o)
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover is inside the (ignored) build directory.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// On-disk state goes next to the running binary — inside the build
/// directory, hence inside the checkout and ignored by git — unless
/// `--dir` says otherwise.
fn scratch_dir(options: &RunOptions, workload: &str) -> Result<PathBuf, String> {
    let base = match &options.dir {
        Some(d) => d.clone(),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .parent()
            .ok_or("the binary has no parent directory")?
            .join("perfbench-scratch"),
    };
    let dir = base.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The metrics a run must print, in registry order. A missing
/// end-to-end value is a harness bug; a missing per-layer value means
/// the workload does not exercise that layer and reads 0.
fn collect(report: &Report, trace: bool) -> Vec<Metric> {
    let metric = |d: &MetricDef, value: f64| Metric {
        name: d.name.to_string(),
        value,
        unit: d.unit.to_string(),
    };
    if trace {
        PER_LAYER
            .iter()
            .map(|d| metric(d, report.layers.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|d| {
                let v = report
                    .e2e
                    .get(d.name)
                    .unwrap_or_else(|| panic!("workload did not report {}", d.name));
                metric(d, *v)
            })
            .collect()
    }
}

/// Run one workload in this process and print its result. Returns the
/// process exit code.
pub fn run_single(options: &RunOptions, workload: &str) -> Result<i32, String> {
    let scratch = Scratch(scratch_dir(options, workload)?);
    let args = RunArgs {
        workload: workload.to_string(),
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        quick: options.quick,
        scratch: scratch.0.clone(),
    };
    println!(
        "workload {workload} seed {} seconds {} trace {} quick {}",
        args.seed, args.seconds, args.trace as u8, args.quick
    );
    let report = workloads::run(&args)?;
    drop(scratch);
    for name in report.layers.keys() {
        assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "per-layer metric '{name}' is not in the registry"
        );
    }
    let metrics = collect(&report, args.trace);
    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("{note}");
    }
    for p in &report.problems {
        println!("FAILED {p}");
    }
    println!(
        "{:<44} {:>16.6} ratio ({} of {} operations)",
        "failed_op_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    if args.trace {
        // Spans stay in memory until here. Without `--trace-out` the file
        // goes next to the binary, like the scratch state.
        let path = match &options.trace_out {
            Some(p) => p.clone(),
            None => std::env::current_exe()
                .map_err(|e| e.to_string())?
                .with_file_name(format!("trace_{workload}.json")),
        };
        std::fs::write(&path, report.spans.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "wrote {} spans to {}",
            report.spans.spans().len(),
            path.display()
        );
    }
    println!(
        "{}",
        json::result_line(
            report.failed == 0,
            report.attempted.max(1),
            report.failed,
            &metrics
        )
    );
    Ok(0)
}

/// The next unused set number in `out` (`<workload>.<n>.json`), so
/// repeated invocations accumulate sets instead of overwriting.
fn next_set(out: &Path) -> usize {
    (1..)
        .find(|n| {
            WORKLOADS
                .iter()
                .all(|(w, _)| !out.join(format!("{w}.{n}.json")).exists())
        })
        .expect("a free set number")
}

/// Run every workload — untraced, then traced — each in its own child
/// process (so peak memory does not leak across), and write one
/// `<workload>.<set>.json` plus `trace_<workload>.json` into `out`.
pub fn run_full_set(options: &RunOptions) -> Result<i32, String> {
    let out = options
        .out
        .as_ref()
        .ok_or("a full set needs --out <dir> (or name one with --workload)")?;
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let set = next_set(out);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let mut sections = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", workload])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if options.quick {
                cmd.arg("--quick");
            }
            if let Some(dir) = &options.dir {
                cmd.arg("--dir").arg(dir);
            }
            if trace {
                cmd.arg("--trace-out")
                    .arg(out.join(format!("trace_{workload}.json")));
            }
            let output = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            if !output.status.success() {
                return Err(format!(
                    "{workload} (trace {}) exited with {}",
                    trace as u8, output.status
                ));
            }
            let last = stdout.lines().last().ok_or("child printed nothing")?;
            let parsed = json::parse(last)?;
            all_correct &= parsed.get("correct").and_then(json::Json::as_bool) == Some(true);
            sections.push(last.to_string());
        }
        let file = out.join(format!("{workload}.{set}.json"));
        let text = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"quick\": {}, \
             \"untraced\": {}, \"traced\": {}}}\n",
            options.seed,
            json::num(options.seconds),
            options.quick,
            sections[0],
            sections[1]
        );
        std::fs::write(&file, text).map_err(|e| format!("{}: {e}", file.display()))?;
        println!("wrote {}", file.display());
    }
    Ok(if all_correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_invocation() {
        let o = RunOptions::parse(&args(
            "--workload scan_filter --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("scan_filter"));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, 10.0, true, false)
        );
        let o = RunOptions::parse(&args("--quick --out results")).unwrap();
        assert!(o.quick && o.workload.is_none());
        assert_eq!(o.out, Some(PathBuf::from("results")));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed x",
            "--seconds 0",
            "--seed",
            "--frobnicate",
        ] {
            assert!(RunOptions::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_traced_report_prints_every_per_layer_metric() {
        let mut report = Report::default();
        report.layer("sql.parse_us", 3.5);
        let metrics = collect(&report, true);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0].value, 3.5);
        assert!(metrics[1..].iter().all(|m| m.value == 0.0));
    }
}
