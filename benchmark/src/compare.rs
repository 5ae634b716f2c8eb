//! `compare <set-a> <set-b>`: the parent-vs-change table.
//!
//! A set is a file of the detail lines untraced runs print (one JSON object
//! per run; `repeat.sh` makes two from one build). For every workload and
//! end-to-end metric the table gives both medians, the ratio with its base,
//! each set's own spread, and a verdict against the metric's bound in
//! `BENCHMARK.json`: `pass`, `regressed`, or — when either set's spread is
//! wider than the bound, so the medians cannot resolve it — `unresolved`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::report::{median_f64, Json};

/// `(workload, metric)` → one value per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_set(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    for line in text.lines().filter(|l| l.trim_start().starts_with('{')) {
        let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        // Driver lines and traced runs carry no end-to-end metrics.
        let (Some(workload), Some(metrics)) = (
            run.get("workload").and_then(Json::as_str),
            run.get("end_to_end").and_then(Json::as_obj),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if samples.is_empty() {
        return Err(format!("{path}: no untraced run found"));
    }
    Ok(samples)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)`.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = median_f64(&v);
    if median == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / median
    }
}

/// `name → (higher is better, bound)` from `BENCHMARK.json`.
fn bounds(benchmark_json: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let spec = Json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in spec.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        if let (Some(name), Some(better), Some(bound)) = (
            m.get("name").and_then(Json::as_str),
            m.get("better").and_then(Json::as_str),
            m.get("bound").and_then(Json::as_f64),
        ) {
            out.insert(name.to_string(), (better == "higher", bound));
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <set-a> <set-b>".into());
    };
    let (a, b) = (read_set(a_path)?, read_set(b_path)?);
    let bounds = bounds(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))?;
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "spread a", "spread b", "bound"
    );
    let mut regressed = false;
    for ((workload, name), a_values) in &a {
        let (Some(b_values), Some(&(higher_better, bound))) =
            (b.get(&(workload.clone(), name.clone())), bounds.get(name))
        else {
            continue;
        };
        let (ma, mb) = (median_f64(a_values), median_f64(b_values));
        let worse_by = if higher_better {
            (ma - mb) / ma
        } else {
            (mb - ma) / ma
        };
        let (sa, sb) = (spread(a_values), spread(b_values));
        let verdict = if sa.max(sb) > bound {
            "unresolved"
        } else if worse_by > bound {
            regressed = true;
            "regressed"
        } else {
            "pass"
        };
        println!(
            "{workload:<12} {name:<14} {ma:>14.4} {mb:>14.4} {:>8.4} {sa:>9.4} {sb:>9.4} {bound:>6.2}  {verdict}",
            mb / ma
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
