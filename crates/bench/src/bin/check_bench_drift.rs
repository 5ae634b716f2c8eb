//! Compare a fresh `emit_bench_json` run against a committed `BENCH_*.json`
//! and **warn** (never fail, unless `--strict`) when a speedup ratio
//! regressed by more than the threshold.
//!
//! CI runs the `--quick` smoke of `emit_bench_json` on every push and feeds
//! both files here; a `::warning::` annotation surfaces suspicious rows
//! without turning benchmark noise into red builds. Speedup *ratios* (not
//! absolute nanoseconds) are compared because they are host-independent:
//! the committed baselines come from a different machine than the CI runner.
//!
//! The fault-recovery and replication rows additionally carry times and a
//! retry amplification. Those are compared too — direction inverted (higher =
//! regression), same threshold, still warn-only.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mlkv-bench --bin check_bench_drift -- \
//!     --baseline BENCH_batch_parallel.json --current /tmp/batch_smoke.json \
//!     [--threshold 0.30] [--strict]
//! ```
//!
//! The workspace builds offline (no serde); rows are parsed with a tiny
//! flat-object scanner that understands exactly the emitter's output: one
//! JSON object per line inside `"results": [...]`, with string, number and
//! boolean values.

use std::collections::BTreeMap;
use std::process::ExitCode;

use mlkv_bench::arg_value;

/// The speedup fields the emitters write, in lookup order. Higher is better.
const SPEEDUP_KEYS: [&str; 3] = [
    "speedup_vs_serial",
    "throughput_retained_vs_serving",
    "read_throughput_vs_primary",
];

/// Fields compared with the direction inverted — larger is worse:
/// fault-recovery and replication-failover times, the replication lag drain,
/// and the retry amplification of the churn rows.
const LATENCY_KEYS: [&str; 4] = [
    "recovery_ns",
    "retry_amplification",
    "catchup_ns",
    "failover_ns",
];

/// Measured-but-not-compared fields, excluded from row identity keys.
const NOISE_KEYS: [&str; 7] = [
    "mean_ns",
    "records_per_sec",
    "attempts",
    "reconnects",
    "severed",
    "primary_gather_ns",
    "replica_gather_ns",
];

/// One comparable metric extracted from a result row.
#[derive(Clone, Copy)]
struct Metric {
    value: f64,
    /// `true` for latency metrics: regression means the value *rose*.
    lower_is_better: bool,
}

/// Parse a flat JSON object line (`{"k": v, ...}`) into key/value strings.
/// Tolerant of anything the emitter writes; returns `None` for non-row lines.
fn parse_row(line: &str) -> Option<Vec<(String, String)>> {
    let line = line.trim().trim_end_matches(',');
    let body = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('"') {
        let after_open = &rest[open + 1..];
        let close = after_open.find('"')?;
        let key = &after_open[..close];
        let after_key = &after_open[close + 1..];
        let colon = after_key.find(':')?;
        let after_colon = after_key[colon + 1..].trim_start();
        let (value, remainder) = if let Some(stripped) = after_colon.strip_prefix('"') {
            let end = stripped.find('"')?;
            (stripped[..end].to_string(), &stripped[end + 1..])
        } else {
            let end = after_colon.find([',', '}']).unwrap_or(after_colon.len());
            (after_colon[..end].trim().to_string(), &after_colon[end..])
        };
        fields.push((key.to_string(), value));
        rest = remainder;
    }
    if fields.is_empty() {
        None
    } else {
        Some(fields)
    }
}

/// Extract the result rows' comparable metrics from one emitted
/// `BENCH_*.json` file, keyed by their identity fields (engine, workload,
/// batch, parallelism, mode knobs). A speedup row yields one entry keyed by
/// identity alone (the historical format); each latency field yields a
/// further entry with an explicit `metric=` suffix.
fn parse_rows(path: &str) -> BTreeMap<String, Metric> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let Some(fields) = parse_row(line) else {
            continue;
        };
        let identity = fields
            .iter()
            .filter(|(k, _)| {
                !NOISE_KEYS.contains(&k.as_str())
                    && !SPEEDUP_KEYS.contains(&k.as_str())
                    && !LATENCY_KEYS.contains(&k.as_str())
            })
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        if let Some(speedup) = fields
            .iter()
            .find(|(k, _)| SPEEDUP_KEYS.contains(&k.as_str()))
            .and_then(|(_, v)| v.parse::<f64>().ok())
        {
            rows.insert(
                identity.clone(),
                Metric {
                    value: speedup,
                    lower_is_better: false,
                },
            );
        }
        for (k, v) in &fields {
            if !LATENCY_KEYS.contains(&k.as_str()) {
                continue;
            }
            let Ok(value) = v.parse::<f64>() else {
                continue;
            };
            rows.insert(
                format!("{identity} metric={k}"),
                Metric {
                    value,
                    lower_is_better: true,
                },
            );
        }
    }
    rows
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let Some(baseline_path) = arg_value(&args, "--baseline") else {
        eprintln!(
            "usage: check_bench_drift --baseline FILE --current FILE [--threshold 0.30] [--strict]"
        );
        return ExitCode::FAILURE;
    };
    let Some(current_path) = arg_value(&args, "--current") else {
        eprintln!(
            "usage: check_bench_drift --baseline FILE --current FILE [--threshold 0.30] [--strict]"
        );
        return ExitCode::FAILURE;
    };
    let threshold: f64 = arg_value(&args, "--threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.30);
    let strict = args.iter().any(|a| a == "--strict");

    let baseline = parse_rows(&baseline_path);
    let current = parse_rows(&current_path);
    if baseline.is_empty() || current.is_empty() {
        eprintln!(
            "::warning::check_bench_drift parsed no rows ({}: {}, {}: {})",
            baseline_path,
            baseline.len(),
            current_path,
            current.len()
        );
        return ExitCode::SUCCESS;
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for (key, base) in &baseline {
        // Denominator rows (serial) carry a speedup of exactly 1.0 in both
        // files, so they compare as trivially ok; no filtering, or genuine
        // sub-1.0 data rows would silently escape regression detection.
        let Some(cur) = current.get(key) else {
            eprintln!("::warning::bench drift: row missing from current run: {key}");
            continue;
        };
        compared += 1;
        if base.lower_is_better {
            // Unit-neutral formatting: these rows mix nanosecond latencies
            // with dimensionless ratios (retry_amplification).
            let fmt = |v: f64| {
                if v >= 1000.0 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.3}")
                }
            };
            let ceiling = base.value * (1.0 + threshold);
            if cur.value > ceiling {
                regressions += 1;
                eprintln!(
                    "::warning::bench drift: {key}: {} rose above {} \
                     (baseline {} + {:.0}% tolerance)",
                    fmt(cur.value),
                    fmt(ceiling),
                    fmt(base.value),
                    threshold * 100.0
                );
            } else {
                println!(
                    "ok: {key}: {} (baseline {}, ceiling {})",
                    fmt(cur.value),
                    fmt(base.value),
                    fmt(ceiling)
                );
            }
        } else {
            let floor = base.value * (1.0 - threshold);
            if cur.value < floor {
                regressions += 1;
                eprintln!(
                    "::warning::bench drift: {key}: speedup {:.2}x fell below {floor:.2}x \
                     (baseline {:.2}x - {:.0}% tolerance)",
                    cur.value,
                    base.value,
                    threshold * 100.0
                );
            } else {
                println!(
                    "ok: {key}: speedup {:.2}x (baseline {:.2}x, floor {floor:.2}x)",
                    cur.value, base.value
                );
            }
        }
    }
    println!(
        "check_bench_drift: {compared} rows compared, {regressions} regression(s) beyond \
         {:.0}% (warn-only{})",
        threshold * 100.0,
        if strict { ", strict" } else { "" }
    );
    if strict && regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
