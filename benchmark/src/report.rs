//! What leaves the benchmark: the one-line result the driver reads,
//! the table a person reads, the result file and history line of
//! `all`, and `diff`. `BENCHMARK.json` is the only list of metric
//! names, units, directions and bounds; the code computes values by
//! name and this module looks them up.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{json, Value};

use crate::run::Outcome;
use crate::stats;
use crate::sut::Res;
use crate::trace::Tracer;

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The `BENCHMARK.json` this binary was built beside.
    pub fn load() -> Spec {
        let v = serde_json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let text = |v: &Value, key: &str| v[key].as_str().expect("a string").to_string();
        let metrics = |key: &str| {
            let list = v[key].as_array().expect("a metric list").iter();
            list.map(|m| MetricSpec {
                name: text(m, "name"),
                unit: text(m, "unit"),
                higher_is_better: m["better"].as_str() == Some("higher"),
                bound: m.get("bound").and_then(Value::as_f64),
            })
            .collect()
        };
        Spec {
            run_seconds: v["run_seconds"].as_f64().expect("run_seconds"),
            workloads: v["workloads"]
                .as_array()
                .expect("workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Where result files, traces and the history live.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn trace_file(workload: &str) -> PathBuf {
    results_dir().join(format!("trace-{workload}.json"))
}

/// Write the traced run's spans, counts, per-layer self times and
/// metrics (`null` where a series or span is missing).
pub fn write_trace(
    spec: &Spec,
    workload: &str,
    seed: u64,
    outcome: &Outcome,
    tracer: &Tracer,
) -> Res<()> {
    let metrics: BTreeMap<&str, Option<f64>> = spec
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), outcome.metrics.get(&m.name).copied()))
        .collect();
    let mut body = tracer.to_json();
    if let Value::Object(map) = &mut body {
        map.insert("workload".into(), Value::from(workload));
        map.insert("seed".into(), Value::from(seed));
        map.insert("metrics".into(), json!(metrics));
    }
    std::fs::create_dir_all(results_dir()).map_err(|e| e.to_string())?;
    std::fs::write(trace_file(workload), format!("{body}\n")).map_err(|e| e.to_string())
}

/// The last line of standard output. An end-to-end metric
/// (`required`) that is missing or not positive fails the run; a layer
/// metric whose series or span is missing reads 0 here and `null` in
/// the result file.
pub fn driver_line(outcome: &Outcome, listed: &[MetricSpec], required: bool) -> Res<String> {
    let mut metrics = BTreeMap::new();
    for spec in listed {
        let value = match outcome.metrics.get(&spec.name) {
            Some(v) if !required || *v > 0.0 => *v,
            None if !required => 0.0,
            other => return Err(format!("end-to-end metric {} is {other:?}", spec.name)),
        };
        metrics.insert(
            spec.name.clone(),
            json!({"value": value, "unit": spec.unit.as_str()}),
        );
    }
    let line = json!({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    });
    Ok(line.to_string())
}

/// Every listed metric by name with its unit, for a person.
pub fn print_table(title: &str, outcome: &Outcome, listed: &[MetricSpec]) {
    eprintln!(
        "{title}: attempted {} failed {} ({} read and {} copy samples)",
        outcome.attempted, outcome.failed, outcome.read_samples, outcome.copy_samples
    );
    if let Some(e) = &outcome.first_error {
        eprintln!("  first failure: {e}");
    }
    for spec in listed {
        match outcome.metrics.get(&spec.name) {
            Some(v) => eprintln!("  {:<38} {:>16.4} {}", spec.name, v, spec.unit),
            None => eprintln!("  {:<38} {:>16} {}", spec.name, "null", spec.unit),
        }
    }
}

// ------------------------------------------------------------------- all

fn first_line_of(program: &str, args: &[&str]) -> String {
    let out = Command::new(program).args(args).output();
    let text = out
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
    text.and_then(|t| t.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host_facts() -> BTreeMap<String, Value> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    BTreeMap::from([
        (
            "git_sha".to_string(),
            Value::from(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".to_string(),
            Value::from(first_line_of("rustc", &["--version"])),
        ),
        ("kernel".to_string(), Value::from(kernel.trim())),
        ("nproc".to_string(), Value::from(nproc)),
    ])
}

/// One run in a fresh process, so peak memory and every counter belong
/// to one workload. Returns the parsed result line.
fn child(workload: &str, seed: u64, seconds: f64, warmup_s: f64, trace: bool) -> Res<Value> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--warmup",
            &warmup_s.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().filter(|_| out.status.success());
    let line = line.ok_or_else(|| format!("{workload}: run failed ({})", out.status))?;
    let result = serde_json::parse(line).map_err(|e| format!("{workload}: {e}"))?;
    if result["correct"].as_bool() != Some(true) {
        return Err(format!(
            "{workload}: {} of {} operations failed",
            result["failed"], result["attempted"]
        ));
    }
    Ok(result)
}

/// Run the four workloads `runs` times untraced and once traced, check
/// every answer, write one result file, append one history line.
pub fn all(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    warmup_s: f64,
    runs: usize,
    out: &Path,
) -> Res<()> {
    let mut workloads = BTreeMap::new();
    let mut medians = BTreeMap::new();
    for name in &spec.workloads {
        let mut end_to_end: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0, 0);
        for _ in 0..runs {
            let result = child(name, seed, seconds, warmup_s, false)?;
            for m in &spec.end_to_end {
                let value = result["metrics"][m.name.as_str()]["value"].as_f64();
                end_to_end
                    .entry(m.name.clone())
                    .or_default()
                    .push(value.ok_or("a metric is missing")?);
            }
            attempted += result["attempted"].as_u64().unwrap_or(0);
            failed += result["failed"].as_u64().unwrap_or(0);
        }
        // The traced run's line cannot say `null`; its trace file can.
        child(name, seed, seconds, warmup_s, true)?;
        let trace = std::fs::read_to_string(trace_file(name)).map_err(|e| e.to_string())?;
        let per_layer = serde_json::parse(&trace).map_err(|e| e.to_string())?["metrics"].clone();
        let mid: BTreeMap<String, f64> = end_to_end
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), stats::median(v)?)))
            .collect();
        medians.insert(name.clone(), mid);
        workloads.insert(
            name.clone(),
            json!({"end_to_end": end_to_end, "per_layer": per_layer, "attempted": attempted, "failed": failed}),
        );
    }

    let mut meta = host_facts();
    meta.insert("seed".into(), Value::from(seed));
    meta.insert("window_s".into(), Value::from(seconds));
    meta.insert("warmup_s".into(), Value::from(warmup_s));
    meta.insert("runs".into(), Value::from(runs as u64));
    let dir = out.parent().ok_or("the result file needs a directory")?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let body = serde_json::to_string_pretty(&json!({"meta": meta.clone(), "workloads": workloads}));
    std::fs::write(out, body.map_err(|e| e.to_string())? + "\n").map_err(|e| e.to_string())?;

    meta.insert("metrics".into(), json!(medians));
    let history = dir.join("history.jsonl");
    let mut lines = std::fs::read_to_string(&history).unwrap_or_default();
    lines.push_str(&format!("{}\n", Value::Object(meta)));
    std::fs::write(&history, lines).map_err(|e| e.to_string())?;
    eprintln!(
        "wrote {} and one line of {}",
        out.display(),
        history.display()
    );
    Ok(())
}

// ------------------------------------------------------------------ diff

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The runs of one side disagree by more than the bound (or there
    /// are too few to say), so the medians prove nothing.
    Unresolved,
}

/// Compare one metric's runs on two sides. `worse_by` is the share of
/// the baseline's median by which the change is worse (negative when
/// it is better).
pub fn judge(
    base: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Option<(f64, Verdict)> {
    let (a, b) = (stats::median(base)?, stats::median(change)?);
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let steady = |v: &[f64]| stats::spread(v).is_some_and(|s| s <= bound);
    let verdict = if !steady(base) || !steady(change) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some((worse_by, verdict))
}

fn runs_of(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let runs = file["workloads"][workload]["end_to_end"][metric].as_array();
    runs.map(|r| r.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// One row per workload and end-to-end metric. Returns whether any
/// row is `worse`.
pub fn diff(spec: &Spec, base: &Path, change: &Path) -> Res<bool> {
    let read = |p: &Path| -> Res<Value> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        serde_json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (read(base)?, read(change)?);
    let show = |v: &[f64]| match (stats::median(v), stats::quartiles(v)) {
        (Some(m), Some([q1, _, q3])) => format!("{m:.4} [{q1:.4}, {q3:.4}]"),
        (Some(m), None) => format!("{m:.4} [one run]"),
        _ => "-".to_string(),
    };
    println!(
        "{:<11} {:<21} {:<6} {:<32} {:<32} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "base median [q1, q3]",
        "change median [q1, q3]",
        "worse",
        "bound"
    );
    let mut any_worse = false;
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (va, vb) = (
                runs_of(&a, workload, &m.name),
                runs_of(&b, workload, &m.name),
            );
            let bound = m.bound.ok_or("an end-to-end metric has a bound")?;
            let Some((worse_by, verdict)) = judge(&va, &vb, m.higher_is_better, bound) else {
                continue;
            };
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{:<11} {:<21} {:<6} {:<32} {:<32} {:>7.1}% {:>5.0}%  {}",
                workload,
                m.name,
                m.unit,
                show(&va),
                show(&vb),
                100.0 * worse_by,
                100.0 * bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 10 %: 5 % slower is ok, 20 % is worse.
        let base = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(&base, &[10.5, 10.6, 10.4], false, 0.10).unwrap().1,
            Verdict::Ok
        );
        let (by, verdict) = judge(&base, &[12.0, 12.1, 11.9], false, 0.10).unwrap();
        assert_eq!(verdict, Verdict::Worse);
        assert!((by - 0.2).abs() < 1e-9);
        // Higher is better: the same numbers the other way round.
        assert_eq!(
            judge(&[12.0, 12.1, 11.9], &base, true, 0.10).unwrap().1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &[12.0, 12.1, 11.9], true, 0.10).unwrap().1,
            Verdict::Ok
        );
        // Runs that disagree by more than the bound resolve nothing,
        // and neither does a single run.
        assert_eq!(
            judge(&base, &[8.0, 12.0, 16.0], false, 0.10).unwrap().1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&base, &[30.0], false, 0.10).unwrap().1,
            Verdict::Unresolved
        );
        assert!(judge(&base, &[], false, 0.10).is_none());
    }

    #[test]
    fn benchmark_json_lists_what_the_contract_needs() {
        let spec = Spec::load();
        let names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        let ours: Vec<&str> = crate::gen::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut all: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let listed = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), listed, "a metric name is used once");
    }
}
