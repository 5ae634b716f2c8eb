//! The repo's gating benchmark: a training step and a served request, end to
//! end and layer by layer. See `README.md` for the metric glossary and
//! `../BENCHMARK.json` for the contract the pipeline holds it to.
//!
//! ```text
//! mlkv-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mlkv-benchmark run --all --seed <n> [--seconds <s>]
//! mlkv-benchmark compare <set-a> <set-b>
//! mlkv-benchmark selftest
//! ```

mod compare;
mod inputs;
mod model;
mod probe;
mod report;
mod selftest;
mod serve;
mod trace;
mod traced;
mod train;

use std::process::ExitCode;

use mlkv::{BackendKind, DurabilityMode, StorageResult};
use mlkv_storage::DEFAULT_GROUP_COMMIT_WINDOW;

use probe::TableSpec;
use report::{detail_line, driver_line, value_of, RunResult};
use train::TrainSpec;

/// Memory budget of the larger-than-memory tables (the table is ≈ 9x this).
const COLD_BUDGET: usize = 2 << 20;
/// Memory budget under which the whole table stays memory-resident.
const WARM_BUDGET: usize = 64 << 20;
/// Measured seconds per run when none are given (`BENCHMARK.json` `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

const GROUP_COMMIT: DurabilityMode = DurabilityMode::GroupCommit {
    window: DEFAULT_GROUP_COMMIT_WINDOW,
};

fn mlkv_training(name: &'static str, memory_budget: usize) -> TrainSpec {
    TrainSpec {
        name,
        table: TableSpec {
            backend: BackendKind::Mlkv,
            memory_budget,
            staleness_bound: Some(10),
            durability: DurabilityMode::None,
        },
        async_updates: true,
        lookahead_steps: 4,
        exact: false,
    }
}

/// The table `serve-mixed` serves: the `train-cold` table, made durable.
const SERVED_TABLE: TableSpec = TableSpec {
    backend: BackendKind::Mlkv,
    memory_budget: COLD_BUDGET,
    // Served gathers are not paired with updates, so there is no staleness
    // to bound.
    staleness_bound: Some(u32::MAX),
    durability: GROUP_COMMIT,
};

const WORKLOADS: [&str; 4] = ["train-cold", "train-warm", "offload-lsm", "serve-mixed"];

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> StorageResult<RunResult> {
    match name {
        "train-cold" => train::run(
            &mlkv_training("train-cold", COLD_BUDGET),
            seed,
            seconds,
            traced,
        ),
        "train-warm" => train::run(
            &mlkv_training("train-warm", WARM_BUDGET),
            seed,
            seconds,
            traced,
        ),
        "offload-lsm" => train::run(
            &TrainSpec {
                name: "offload-lsm",
                table: TableSpec {
                    backend: BackendKind::RocksDbLike,
                    memory_budget: COLD_BUDGET,
                    staleness_bound: None,
                    durability: GROUP_COMMIT,
                },
                async_updates: false,
                lookahead_steps: 0,
                exact: true,
            },
            seed,
            seconds,
            traced,
        ),
        "serve-mixed" => serve::run(&SERVED_TABLE, seed, seconds, traced),
        other => Err(mlkv::StorageError::InvalidArgument(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        ))),
    }
}

/// Where and on what a result was measured, as a JSON object.
fn stamp() -> String {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"nproc\": {}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \
         \"device_model\": {{\"read_latency_us\": {}, \"read_bytes_per_s\": {}, \"sync_cost_us\": {}, \
         \"sleep_25us_costs_us\": {}, \
         \"note\": \"RAM-backed files priced as an SSD; latencies are this sandbox model's, not a device's\"}}, \
         \"sizes\": {{\"keys\": {}, \"dim\": {}, \"zipf_theta\": {}, \"lookups_per_step\": {}, \
         \"compute_us\": {}, \"cold_budget_bytes\": {}, \"warm_budget_bytes\": {}, \
         \"serve_keys_per_request\": {}, \"serve_connections\": {}, \"serve_rate_rps\": {}}}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command("git", &["rev-parse", "HEAD"]),
        command("rustc", &["-V"]),
        model::READ_LATENCY.as_micros(),
        model::READ_BYTES_PER_SEC,
        model::SYNC_COST.as_micros(),
        sleep_cost_us(),
        inputs::KEY_SPACE,
        inputs::DIM,
        inputs::ZIPF_THETA,
        train::LOOKUPS_PER_STEP,
        train::COMPUTE.as_micros(),
        COLD_BUDGET,
        WARM_BUDGET,
        serve::KEYS_PER_REQUEST,
        serve::CONNECTIONS,
        serve::FLOOR_RATE_RPS,
    )
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| v.parse().map_err(|_| format!("{name}: cannot read {v:?}")))
        .transpose()
}

/// The pipeline's mode: one run of one workload, result on the last line.
fn driver(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or("--workload <name> is required")?;
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let traced = parsed::<u8>(args, "--trace")?.unwrap_or(0) != 0;
    let result = run_workload(workload, seed, seconds, traced).map_err(|e| e.to_string())?;
    println!("{}", detail_line(&result, &stamp()));
    println!("{}", driver_line(&result));
    Ok(if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced at a quarter of the length, each as
/// one JSON object naming every metric with its unit.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    if !args.iter().any(|a| a == "--all") {
        return Err("usage: run --all --seed <n> [--seconds <s>]".into());
    }
    let seed: u64 = parsed(args, "--seed")?.unwrap_or(1);
    let seconds: f64 = parsed(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let stamp = stamp();
    let mut ok = true;
    for name in WORKLOADS {
        let plain = run_workload(name, seed, seconds, false).map_err(|e| e.to_string())?;
        let traced = run_workload(name, seed, seconds / 4.0, true).map_err(|e| e.to_string())?;
        // A single-caller workload's device counts after a fixed number of
        // steps must not depend on whether the trace was on (`null` where
        // the workload has no such counts or a run was too short for them).
        let counts_agree = (!plain.exact_counts.is_empty() && !traced.exact_counts.is_empty())
            .then(|| plain.exact_counts == traced.exact_counts);
        let overhead = value_of(&traced.per_layer, "trace.ops_per_s")
            / value_of(&plain.end_to_end, "ops_per_s");
        ok &= plain.correct() && traced.correct() && counts_agree != Some(false);
        let counts_agree = counts_agree.map_or("null".to_string(), |agree| agree.to_string());
        // The rate ladder is too long for the gated run; it is printed here.
        let ladder = if name == "serve-mixed" {
            serve::ladder(&SERVED_TABLE, seed).map_err(|e| e.to_string())?
        } else {
            "null".into()
        };
        println!(
            "{{\"workload\": \"{name}\", \"untraced\": {}, \"traced\": {}, \"trace_overhead\": {overhead}, \
             \"exact_counts_agree\": {counts_agree}, \"ladder\": {ladder}, \"claim\": null}}",
            detail_line(&plain, &stamp),
            detail_line(&traced, &stamp),
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Let a sleep cost what it says. The device model is made of sleeps, and
/// Linux rounds a thread's sleeps up by its timer slack (50 µs by default, so
/// a 25 µs read would cost ~95 µs); with 1 ns of slack it costs ~40 µs.
/// Threads inherit the setting, so it is made before any thread is spawned.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, ns) takes an integer and only changes
    // a scheduling attribute of the calling thread; it reads no memory.
    // A failure (ignored) leaves the default slack, which the stamp's
    // `sleep_25us_costs_us` then shows.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Mean cost of sleeping one modelled read latency, in microseconds.
fn sleep_cost_us() -> f64 {
    let n = 200;
    let start = std::time::Instant::now();
    for _ in 0..n {
        std::thread::sleep(model::READ_LATENCY);
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn main() -> ExitCode {
    tighten_timer_slack();
    // A stray CI knob must not change what is measured: the benchmark never
    // applies environment overrides, and refuses to run beside any.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("MLKV_"))
    {
        eprintln!(
            "refusing to run with {} set: unset every MLKV_* variable",
            name.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("selftest") => selftest::main(),
        _ => driver(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mlkv-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
