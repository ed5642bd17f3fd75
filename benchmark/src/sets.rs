//! Running every workload, each in a child process of its own (so
//! `peak_rss_mb` is the workload's, not the set's), and comparing sets.

use crate::env::Args;
use crate::json::Json;
use crate::spec::{MetricSpec, WORKLOADS};
use crate::stats::{median, spread};
use crate::{ctx, Res};
use std::process::{Command, Stdio};

/// The result line a run prints last: the contract's four keys.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj()
        .with("correct", correct)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics)
}

/// `{"value": v, "unit": u}` per spec, in spec order. A metric with no
/// sample on this workload reports 0 here; the record says why.
pub fn metrics_json(specs: &[MetricSpec], value_of: impl Fn(&str) -> Option<f64>) -> Json {
    let mut m = Json::obj();
    for s in specs {
        let v = value_of(s.name).filter(|v| v.is_finite()).unwrap_or(0.0);
        m.set(s.name, Json::obj().with("value", v).with("unit", s.unit));
    }
    m
}

/// Runs this binary once per workload with `seed`, passing its output
/// through, and returns each workload's result line.
pub fn run_each_workload(args: &Args, seed: u64) -> Res<Vec<(&'static str, Json)>> {
    let exe = ctx(std::env::current_exe(), "current_exe")?;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .arg("--out-dir")
            .arg(&args.out_dir)
            .stderr(Stdio::inherit())
            .output();
        let out = ctx(out, "spawn workload run")?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name, out.status));
        }
        let last = stdout.lines().last().unwrap_or("");
        results.push((w.name, ctx(Json::parse(last), "parse result line")?));
    }
    Ok(results)
}

/// One workload's value of one metric from a result line.
fn value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Prints, for every workload × gated metric, each set's value, the
/// median, the full range and (four sets or more) the quartile spread as
/// shares of the median, beside the bound. Returns the pairs whose range
/// exceeds the bound.
pub fn compare_sets(sets: &[Vec<(&'static str, Json)>], specs: &[MetricSpec]) -> Vec<String> {
    let mut over = Vec::new();
    println!(
        "\n| workload | metric | unit | {} | median | range/median | IQR/median | bound |",
        (1..=sets.len())
            .map(|i| format!("set {i}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|---|{}---|---|---|---|", "---|".repeat(sets.len()));
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for s in specs {
            let vals: Vec<f64> = sets
                .iter()
                .filter_map(|set| value(&set[wi].1, s.name))
                .collect();
            let med = median(vals.iter().copied());
            let (lo, hi) = vals
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let range = (hi - lo) / med;
            let iqr = (vals.len() >= 4).then(|| spread(&vals));
            let bound = s.bound.unwrap_or(f64::INFINITY);
            println!(
                "| {} | {} | {} | {} | {med:.4} | {:.2}% | {} | {:.0}% |",
                w.name,
                s.name,
                s.unit,
                vals.iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" | "),
                range * 100.0,
                iqr.map_or("-".to_string(), |q| format!("{:.2}%", q * 100.0)),
                bound * 100.0,
            );
            if range > bound {
                over.push(format!(
                    "{} {}: sets differ by {:.1}% of their median, bound {:.0}%",
                    w.name,
                    s.name,
                    range * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    over
}
