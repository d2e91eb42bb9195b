//! `bench compare <dirA> <dirB>`: one row per (workload, end-to-end
//! metric) with both sides' medians, the ratio with its base, and a
//! verdict against the bound `BENCHMARK.json` fixes for the metric.
//!
//! A directory holds the `<workload>.<set>.json` files of one or more
//! `bench run --out` invocations of one commit. With several sets a side
//! is its median, and a metric whose own run-to-run spread on the base
//! side exceeds the bound is `unresolved` rather than `ok` or `worse`.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::Better;
use crate::stats;

/// An end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

/// The part of `BENCHMARK.json` `compare` needs.
pub struct Spec {
    pub workloads: Vec<String>,
    pub gates: Vec<Gate>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no '{key}' array"))
        };
        let text_of = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or(format!("BENCHMARK.json: entry without '{key}'"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?;
        let mut gates = Vec::new();
        for m in list("end_to_end")? {
            gates.push(Gate {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                better: match text_of(m, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("BENCHMARK.json: better = '{other}'")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: end-to-end metric without bound")?,
            });
        }
        Ok(Spec { workloads, gates })
    }
}

/// One side's values for one workload: per metric, one value per set.
#[derive(Default, Debug)]
pub struct Side {
    pub values: BTreeMap<String, Vec<f64>>,
    pub failed_share: Vec<f64>,
}

/// Read every `<workload>.<set>.json` under `dir`.
pub fn read_side(dir: &Path, workload: &str) -> Result<Side, String> {
    let mut side = Side::default();
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
        .filter(|n| {
            n.strip_prefix(workload)
                .and_then(|r| r.strip_prefix('.'))
                .and_then(|r| r.strip_suffix(".json"))
                .is_some_and(|set| set.parse::<u32>().is_ok())
        })
        .collect();
    names.sort();
    for name in names {
        let path = dir.join(&name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{}: a --quick result is for smoke use only and cannot be compared",
                path.display()
            ));
        }
        let run = doc
            .get("untraced")
            .ok_or(format!("{}: no untraced run", path.display()))?;
        let number = |key: &str| {
            run.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{}: no '{key}'", path.display()))
        };
        side.failed_share
            .push(number("failed")? / number("attempted")?.max(1.0));
        let metrics = run
            .get("metrics")
            .and_then(json::metrics_from)
            .ok_or(format!("{}: malformed metrics", path.display()))?;
        for m in metrics {
            side.values.entry(m.name).or_default().push(m.value);
        }
    }
    if side.failed_share.is_empty() {
        return Err(format!(
            "{}: no result set for workload {workload}",
            dir.display()
        ));
    }
    Ok(side)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run-to-run spread of one side as a share of its median: the distance
/// between the quartiles with four or more sets, the range with two or
/// three, unknown (0) with one.
fn spread(values: &[f64]) -> f64 {
    let s = stats::sorted(values.to_vec());
    let Some(median) = stats::median(&s) else {
        return 0.0;
    };
    let width = match s.len() {
        0 | 1 => 0.0,
        2 | 3 => s[s.len() - 1] - s[0],
        n => {
            // Quartiles by linear interpolation between closest ranks.
            let q = |p: f64| {
                let pos = p * (n - 1) as f64;
                let (lo, frac) = (pos.floor() as usize, pos.fract());
                s[lo] + (s[(lo + 1).min(n - 1)] - s[lo]) * frac
            };
            q(0.75) - q(0.25)
        }
    };
    if median == 0.0 {
        0.0
    } else {
        width / median.abs()
    }
}

/// Judge `b` (the change) against `a` (the base) for one metric:
/// returns both medians, `b/a`, and the verdict. `worse` means `b`'s
/// median is worse than `a`'s by more than the bound; when `a`'s own
/// spread exceeds the bound the difference cannot be told from noise.
pub fn judge(gate: &Gate, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let med = |v: &[f64]| stats::median(&stats::sorted(v.to_vec())).unwrap_or(f64::NAN);
    let (ma, mb) = (med(a), med(b));
    let ratio = mb / ma;
    let worsening = match gate.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let verdict = if !ratio.is_finite() || spread(a) > gate.bound {
        Verdict::Unresolved
    } else if worsening > gate.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ma, mb, ratio, verdict)
}

/// Compare two result directories. Prints the table; returns whether
/// anything is `worse` or fails more often than the base.
pub fn compare(spec: &Spec, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let mut regressed = false;
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>22}  verdict",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for workload in &spec.workloads {
        let (a, b) = (read_side(dir_a, workload)?, read_side(dir_b, workload)?);
        for gate in &spec.gates {
            let values = |side: &Side, which: &str| {
                side.values
                    .get(&gate.name)
                    .cloned()
                    .ok_or(format!("{which}: {workload} has no {}", gate.name))
            };
            let (ma, mb, ratio, verdict) = judge(gate, &values(&a, "A")?, &values(&b, "B")?);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{:<18} {:<26} {:>14.4} {:>14.4} {:>8.4} of {:>10.4}  {} ({} {}, bound {:.0}%)",
                workload,
                gate.name,
                ma,
                mb,
                ratio,
                ma,
                verdict.as_str(),
                gate.unit,
                gate.better.as_str(),
                gate.bound * 100.0
            );
        }
        // Failures have no bound: any rise is a regression.
        let worst = |s: &Side| s.failed_share.iter().copied().fold(0.0, f64::max);
        let (fa, fb) = (worst(&a), worst(&b));
        let verdict = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        regressed |= verdict == Verdict::Worse;
        println!(
            "{:<18} {:<26} {:>14.6} {:>14.6} {:>22}  {} (ratio lower, bound 0)",
            workload,
            "failed_op_share",
            fa,
            fb,
            "-",
            verdict.as_str()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(better: Better, bound: f64) -> Gate {
        Gate {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound,
        }
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let lower = gate(Better::Lower, 0.05);
        // 4 % slower: inside the bound.
        assert_eq!(judge(&lower, &[100.0], &[104.0]).3, Verdict::Ok);
        // 6 % slower: worse.
        let (ma, mb, ratio, v) = judge(&lower, &[100.0], &[106.0]);
        assert_eq!((ma, mb, v), (100.0, 106.0, Verdict::Worse));
        assert!((ratio - 1.06).abs() < 1e-12);
        // Faster is never worse.
        assert_eq!(judge(&lower, &[100.0], &[50.0]).3, Verdict::Ok);
        let higher = gate(Better::Higher, 0.05);
        assert_eq!(judge(&higher, &[1000.0], &[960.0]).3, Verdict::Ok);
        assert_eq!(judge(&higher, &[1000.0], &[940.0]).3, Verdict::Worse);
        assert_eq!(judge(&higher, &[1000.0], &[2000.0]).3, Verdict::Ok);
    }

    #[test]
    fn a_noisy_base_is_unresolved_not_ok_or_worse() {
        let g = gate(Better::Lower, 0.05);
        // Base runs spread 20 % around 100: a 30 % rise cannot be judged.
        let noisy = [90.0, 95.0, 100.0, 105.0, 110.0, 120.0];
        assert_eq!(judge(&g, &noisy, &[130.0]).3, Verdict::Unresolved);
        // A steady base with the same median can.
        let steady = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(judge(&g, &steady, &[130.0]).3, Verdict::Worse);
        assert_eq!(judge(&g, &steady, &[101.0]).3, Verdict::Ok);
        // Medians decide, not single runs.
        assert_eq!(judge(&g, &steady, &[100.0, 100.5, 140.0]).3, Verdict::Ok);
        assert_eq!(judge(&g, &[0.0], &[1.0]).3, Verdict::Unresolved);
    }

    #[test]
    fn spec_and_result_files_round_trip() {
        let spec = Spec::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, ["w"]);
        assert_eq!(spec.gates[0].bound, 0.25);

        // Next to the test binary: inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe.with_file_name(format!("perfbench-compare-{}", std::process::id()));
        let (a, b) = (dir.join("a"), dir.join("b"));
        for d in [&a, &b] {
            std::fs::create_dir_all(d).unwrap();
        }
        let file = |setup: f64, failed: u32, quick: bool| {
            format!(
                "{{\"workload\": \"w\", \"quick\": {quick}, \"untraced\": {{\"correct\": true, \
                 \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\"setup_s\": \
                 {{\"value\": {setup}, \"unit\": \"s\"}}}}}}, \"traced\": {{}}}}"
            )
        };
        std::fs::write(a.join("w.1.json"), file(1.0, 0, false)).unwrap();
        std::fs::write(a.join("w.2.json"), file(1.02, 0, false)).unwrap();
        std::fs::write(b.join("w.1.json"), file(1.1, 0, false)).unwrap();
        assert_eq!(read_side(&a, "w").unwrap().values["setup_s"], [1.0, 1.02]);
        assert_eq!(compare(&spec, &a, &b), Ok(false));
        // 40 % slower set-up is worse than the 25 % bound.
        std::fs::write(b.join("w.1.json"), file(1.5, 0, false)).unwrap();
        assert_eq!(compare(&spec, &a, &b), Ok(true));
        // More failures regress whatever the timings say.
        std::fs::write(b.join("w.1.json"), file(1.0, 1, false)).unwrap();
        assert_eq!(compare(&spec, &a, &b), Ok(true));
        // Quick results are refused; so is a missing workload.
        std::fs::write(b.join("w.1.json"), file(1.0, 0, true)).unwrap();
        assert!(compare(&spec, &a, &b).unwrap_err().contains("--quick"));
        std::fs::remove_file(b.join("w.1.json")).unwrap();
        assert!(compare(&spec, &a, &b).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
