//! Sets of runs: every workload untraced and traced, written as one result
//! file, and the comparison of two such files.

use crate::host::{self, Fingerprint};
use crate::json::{self, Json};
use crate::metrics::{Better, Spec, END_TO_END, PER_LAYER};
use crate::workloads::NAMES;
use std::fmt::Write;

pub const SCHEMA: &str = "demaq-benchmark/v1";

pub struct ResultSet {
    pub correct: bool,
    /// The result file's text.
    pub text: String,
}

/// Run one workload in a process of its own — exactly what the driver
/// does — so peak memory and process-wide counters belong to that run
/// alone. Returns the parsed result line.
fn child_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}",
            u8::from(trace),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed no result"))?;
    json::parse(line).map_err(|e| format!("{workload} result line: {e}"))
}

fn metrics_object(result: &Json) -> String {
    let fields: Vec<String> = result
        .get("metrics")
        .and_then(Json::as_object)
        .into_iter()
        .flatten()
        .map(|(name, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(m.get("value").and_then(Json::as_f64).unwrap_or(0.0)),
                json::quote(m.get("unit").and_then(Json::as_str).unwrap_or(""))
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn print_metrics(specs: &[Spec], result: &Json) {
    for s in specs {
        let v = result
            .get("metrics")
            .and_then(|m| m.get(s.name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        println!(
            "  {:<40} {:>18} {}",
            s.name,
            v.map_or("-".to_string(), |v| format!("{v:.6}")),
            s.unit
        );
    }
}

/// Every workload, untraced for the end-to-end metrics then traced for the
/// per-layer ones; prints every metric by name with its unit and writes
/// the same to `<work dir>/<file>`.
pub fn run_all(seed: u64, seconds: f64, quick: bool, file: &str) -> Result<ResultSet, String> {
    let fp = Fingerprint::collect();
    let mut correct = true;
    let mut text = String::new();
    write!(
        text,
        "{{\"schema\": {}, \"mode\": {}, \"seed\": {seed}, \"seconds\": {}, \"host\": {{\"cores\": {}, \
         \"kernel\": {}, \"storage\": {}, \"fsync_us_p50\": {}, \"rustc\": {}, \"git_commit\": {}}}, \"workloads\": {{",
        json::quote(SCHEMA),
        json::quote(if quick { "quick" } else { "full" }),
        json::number(seconds),
        fp.cores,
        json::quote(&fp.kernel),
        json::quote(&fp.storage),
        json::number(fp.fsync_us_p50),
        json::quote(&fp.rustc),
        json::quote(&fp.git_commit)
    )
    .unwrap();
    println!(
        "host: {} core(s), kernel {}, storage {}, fsync p50 {:.0} us, {}, commit {}",
        fp.cores, fp.kernel, fp.storage, fp.fsync_us_p50, fp.rustc, fp.git_commit
    );
    for (i, workload) in NAMES.iter().enumerate() {
        let end_to_end = child_run(workload, seed, seconds, false, quick)?;
        let per_layer = child_run(workload, seed, seconds, true, quick)?;
        let count = |k: &str| {
            [&end_to_end, &per_layer]
                .iter()
                .map(|r| r.get(k).and_then(Json::as_f64).unwrap_or(0.0))
                .sum::<f64>()
        };
        let ok = count("failed") == 0.0;
        correct &= ok;
        println!(
            "{workload}: correct={ok} attempted={} failed={}",
            count("attempted"),
            count("failed")
        );
        print_metrics(END_TO_END, &end_to_end);
        print_metrics(PER_LAYER, &per_layer);
        write!(
            text,
            "{}{}: {{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
            if i > 0 { ", " } else { "" },
            json::quote(workload),
            count("attempted"),
            count("failed"),
            metrics_object(&end_to_end),
            metrics_object(&per_layer)
        )
        .unwrap();
    }
    text.push_str("}}\n");
    let path = host::work_dir().join(file);
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(ResultSet { correct, text })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The difference is inside the band two runs of the same code may
    /// differ by, yet too large to call equal.
    Unresolved,
}

/// By what share of `a` did the metric get worse going to `b`.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

/// Beyond the bound either way is a verdict; within a third of it — the
/// spread the benchmark allows itself between runs — is the same.
pub fn verdict(worsening: f64, bound: f64) -> Verdict {
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else if worsening.abs() <= bound / 3.0 {
        Verdict::Same
    } else {
        Verdict::Unresolved
    }
}

fn load(text: &str, label: &str) -> Result<Json, String> {
    let j = json::parse(text).map_err(|e| format!("{label}: {e}"))?;
    if j.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{label}: not a {SCHEMA} result file"));
    }
    if j.get("mode").and_then(Json::as_str) != Some("full") {
        return Err(format!(
            "{label}: only full-mode results compare (this one is flagged quick)"
        ));
    }
    Ok(j)
}

/// One row per workload × gated metric. Returns the rows and whether any
/// verdict is `Worse` or `Better` (the sets disagree beyond a bound).
pub fn compare(a_text: &str, b_text: &str) -> Result<(Vec<String>, bool), String> {
    let (a, b) = (load(a_text, "A")?, load(b_text, "B")?);
    let value = |set: &Json, workload: &str, metric: &str| {
        set.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let mut rows = vec![format!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    )];
    let mut disagree = false;
    for workload in NAMES {
        for spec in END_TO_END {
            let bound = spec.bound.expect("end-to-end metrics are bounded");
            let (Some(va), Some(vb)) = (
                value(&a, workload, spec.name),
                value(&b, workload, spec.name),
            ) else {
                return Err(format!(
                    "{workload}/{} is missing from a result file",
                    spec.name
                ));
            };
            let w = worsening(va, vb, spec.better);
            let v = verdict(w, bound);
            disagree |= matches!(v, Verdict::Worse | Verdict::Better);
            rows.push(format!(
                "{workload:<18} {:<20} {va:>14.6} {vb:>14.6} {:>8.2}% {:>5.0}%  {}",
                spec.name,
                w * 100.0,
                bound * 100.0,
                format!("{v:?}").to_lowercase()
            ));
        }
    }
    Ok((rows, disagree))
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let (rows, _) = compare(&read(a)?, &read(b)?)?;
    for row in rows {
        println!("{row}");
    }
    Ok(true)
}

/// Two back-to-back sets of the same code must agree on every gated
/// metric within its bound.
pub fn check(seed: u64, seconds: f64, quick: bool) -> Result<bool, String> {
    let first = run_all(seed, seconds, quick, "check-a.json")?;
    let second = run_all(seed, seconds, quick, "check-b.json")?;
    // `--quick` sets are too short to compare; they only prove both ran.
    if quick {
        return Ok(first.correct && second.correct);
    }
    let (rows, disagree) = compare(&first.text, &second.text)?;
    for row in rows {
        println!("{row}");
    }
    Ok(first.correct && second.correct && !disagree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(mode: &str, cpu: f64) -> String {
        let metrics: Vec<String> = END_TO_END
            .iter()
            .map(|s| {
                let v = if s.name == "cpu_us_per_msg" { cpu } else { 1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    s.name, s.unit
                )
            })
            .collect();
        let workloads: Vec<String> = NAMES
            .iter()
            .map(|w| format!("\"{w}\": {{\"end_to_end\": {{{}}}}}", metrics.join(", ")))
            .collect();
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"mode\": \"{mode}\", \"workloads\": {{{}}}}}",
            workloads.join(", ")
        )
    }

    #[test]
    fn verdicts_follow_the_bound() {
        assert_eq!(verdict(0.11, 0.10), Verdict::Worse);
        assert_eq!(verdict(-0.11, 0.10), Verdict::Better);
        assert_eq!(verdict(0.03, 0.10), Verdict::Same);
        assert_eq!(verdict(-0.03, 0.10), Verdict::Same);
        assert_eq!(verdict(0.07, 0.10), Verdict::Unresolved);
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn compare_flags_regressions_and_rejects_quick_sets() {
        let (rows, disagree) = compare(&set("full", 40.0), &set("full", 41.0)).unwrap();
        assert!(!disagree);
        assert_eq!(rows.len(), 1 + NAMES.len() * END_TO_END.len());
        assert!(rows
            .iter()
            .any(|r| r.contains("cpu_us_per_msg") && r.ends_with("same")));
        let (rows, disagree) = compare(&set("full", 40.0), &set("full", 52.0)).unwrap();
        assert!(disagree);
        assert!(rows
            .iter()
            .any(|r| r.contains("cpu_us_per_msg") && r.ends_with("worse")));
        let err = compare(&set("quick", 40.0), &set("full", 40.0)).unwrap_err();
        assert!(err.contains("quick"), "{err}");
        assert!(compare("{}", &set("full", 1.0)).is_err());
    }
}
