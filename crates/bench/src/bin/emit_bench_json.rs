//! Measure the shard-parallel batch executor and the coalesced cold-path I/O
//! planner, recording the results as `BENCH_*.json`, so the repository carries
//! its performance trajectory alongside the code.
//!
//! The recordings of one run:
//!
//! * `BENCH_batch_parallel.json` (`mlkv_bench::batch_parallel`, shared with
//!   the criterion bench of the same name): one `EmbeddingTable::gather` at
//!   parallelism 1 / 2 / 4 / 8 on the in-memory and FASTER engines (warm,
//!   RAM-resident) plus a cold FASTER configuration with simulated SSD read
//!   latency; and the write half of the matrix — one `apply_gradients` batch
//!   at the same parallelism levels on every sharded-write-path engine, warm
//!   plus a cold FASTER configuration.
//! * `BENCH_durability.json` (`mlkv_storage::wal` group commit): `write_batch`
//!   throughput on each disk engine with `durability = None` vs
//!   `GroupCommit`, across group sizes — the group-commit sync cost is paid
//!   once per acknowledged batch, so its per-record price melts as the group
//!   grows.
//! * `BENCH_fault_recovery.json` (`mlkv_bench::fault`): the serving tier
//!   under faults — gather latency while `Serving` vs `Degraded` (read-only
//!   after an injected device write fault, probes failing), the time from
//!   healing the device to the probe flipping back to `Serving`, and the
//!   retry amplification of a retrying client behind a seeded chaos proxy.
//! * `BENCH_replication.json` (`mlkv_bench::replication`): the replicated
//!   serving tier — the time for an `Async` replica to drain the lag left by
//!   a burst of acknowledged applies, the client-observed failover gap from
//!   killing a `SemiSync{1}` primary to the promoted replica acknowledging a
//!   mutation, and the replica's gather throughput relative to the primary
//!   while it applies the stream.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mlkv-bench --bin emit_bench_json \
//!     [-- --out PATH] \
//!     [--durability-out PATH] [--fault-out PATH] [--replication-out PATH] \
//!     [--batch-only] [--fault-only] [--replication-only] [--quick]
//! ```
//!
//! `--batch-only` stops after `BENCH_batch_parallel.json` (regenerating just
//! the executor matrix without the I/O, fault and replication sweeps).
//!
//! `--quick` runs one measurement iteration per cell (CI smoke); the default
//! run is sized for stable means on an idle machine. Interpreting the
//! numbers: only batches that give every worker `MIN_KEYS_PER_WORKER` keys
//! fan out (`mlkv_storage::exec`), so the batch matrix's rows below twice
//! that run inline at every level (expect ~1.0x); the one fanned-out warm
//! gather is pure CPU work, its speedup bounded by `host_parallelism`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use mlkv::{BackendKind, EmbeddingTable};
use mlkv_bench::batch_parallel::{
    cold_faster_table, gradient_rows, rotating_keys, warm_table, APPLY_BATCH_SIZE, COLD_KEY_SPACE,
    GATHER_BATCH_SIZES, PARALLELISM_LEVELS, WARM_KEY_SPACE, WRITE_BACKENDS,
};
use mlkv_bench::io_coalesce;
use mlkv_storage::exec::{available_parallelism, MIN_KEYS_PER_WORKER};

/// Write the shared `BENCH_*.json` prologue (provenance, host, mode, time)
/// and open the `results` array. Every writer funnels through this so the
/// schema `check_bench_drift` keys on cannot silently diverge.
fn json_prologue(json: &mut String, bench: &str, quick: bool, note: &str) {
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"{bench}\",");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p mlkv-bench --bin emit_bench_json\","
    );
    let _ = writeln!(json, "  \"host_parallelism\": {},", available_parallelism());
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"unix_time\": {},",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    );
    let _ = writeln!(json, "  \"note\": \"{note}\",");
    json.push_str("  \"results\": [\n");
}

struct Cell {
    engine: &'static str,
    workload: &'static str,
    batch: usize,
    parallelism: usize,
    mean_ns: u128,
    speedup_vs_serial: f64,
}

/// Mean wall-clock nanoseconds of one `gather` over `iters` measured calls
/// (after `warmup` unmeasured ones), rotating the key pattern per call.
fn measure_gather(
    table: &EmbeddingTable,
    n: usize,
    key_space: u64,
    warmup: u32,
    iters: u32,
) -> u128 {
    let mut base = 0u64;
    for _ in 0..warmup {
        base = base.wrapping_add(31);
        let _ = table.gather(&rotating_keys(base, n, key_space)).unwrap();
    }
    let start = Instant::now();
    for _ in 0..iters {
        base = base.wrapping_add(31);
        let _ = table.gather(&rotating_keys(base, n, key_space)).unwrap();
    }
    start.elapsed().as_nanos() / u128::from(iters.max(1))
}

/// Mean wall-clock nanoseconds of one `apply_gradients` batch over `iters`
/// measured calls (after `warmup` unmeasured ones), rotating the key pattern
/// per call the same way [`measure_gather`] does.
fn measure_apply(
    table: &EmbeddingTable,
    n: usize,
    key_space: u64,
    warmup: u32,
    iters: u32,
) -> u128 {
    let grads = gradient_rows(n, 16);
    let apply = |base: u64| {
        let keys = rotating_keys(base, n, key_space);
        let updates: Vec<(u64, &[f32])> = keys
            .iter()
            .copied()
            .zip(grads.iter().map(|g| g.as_slice()))
            .collect();
        table.apply_gradients(&updates, 0.01).unwrap();
    };
    let mut base = 0u64;
    for _ in 0..warmup {
        base = base.wrapping_add(31);
        apply(base);
    }
    let start = Instant::now();
    for _ in 0..iters {
        base = base.wrapping_add(31);
        apply(base);
    }
    start.elapsed().as_nanos() / u128::from(iters.max(1))
}

/// What one cell times: [`measure_gather`] or [`measure_apply`].
type Measure = fn(&EmbeddingTable, usize, u64, u32, u32) -> u128;

/// One benchmark group: an engine/workload pair swept over parallelism levels
/// and batch sizes.
struct GroupSpec<'a> {
    engine: &'static str,
    workload: &'static str,
    batches: &'a [usize],
    key_space: u64,
    warmup: u32,
    iters: u32,
}

fn push_group(
    cells: &mut Vec<Cell>,
    spec: &GroupSpec<'_>,
    quick: bool,
    measure: Measure,
    build: impl Fn(usize) -> Arc<EmbeddingTable>,
) {
    let (warmup, iters) = if quick {
        (1, 1)
    } else {
        (spec.warmup, spec.iters)
    };
    for &batch in spec.batches {
        let mut serial_ns = 0u128;
        for &parallelism in &PARALLELISM_LEVELS {
            let table = build(parallelism);
            let mean_ns = measure(&table, batch, spec.key_space, warmup, iters);
            if parallelism == 1 {
                serial_ns = mean_ns;
            }
            let speedup = serial_ns as f64 / mean_ns.max(1) as f64;
            eprintln!(
                "{:>10} {:<14} batch {batch:>5} p{parallelism}: \
                 {:>10.3} ms ({speedup:.2}x vs p1)",
                spec.engine,
                spec.workload,
                mean_ns as f64 / 1e6
            );
            cells.push(Cell {
                engine: spec.engine,
                workload: spec.workload,
                batch,
                parallelism,
                mean_ns,
                speedup_vs_serial: speedup,
            });
        }
    }
}

/// One `BENCH_durability.json` row: `write_batch` throughput on a disk engine
/// under one durability mode at one group size.
struct DurabilityCell {
    engine: &'static str,
    durability: &'static str,
    group: usize,
    mean_ns: u128,
    records_per_sec: f64,
    /// Batch-latency multiplier vs `DurabilityMode::None` at the same group
    /// size — the price of the group-commit fsync.
    cost_vs_none: f64,
}

/// Mean wall-clock nanoseconds of one acknowledged `write_batch` of `group`
/// records, cycling keys through a bounded space so later batches overwrite.
fn measure_write_batches(
    store: &Arc<dyn mlkv_storage::KvStore>,
    group: usize,
    iters: u32,
    next_key: &mut u64,
) -> u128 {
    const KEY_SPACE: u64 = 100_000;
    let value = vec![0xABu8; 32];
    let start = Instant::now();
    for _ in 0..iters {
        let mut batch = mlkv_storage::WriteBatch::new();
        for _ in 0..group {
            batch.put(*next_key % KEY_SPACE, value.clone());
            *next_key += 1;
        }
        store.write_batch(&batch).unwrap();
    }
    start.elapsed().as_nanos() / u128::from(iters.max(1))
}

/// Measure the `None` / `GroupCommit` pair on every disk engine across group
/// sizes, over real files (the comparison *is* the fsync cost).
fn run_durability(quick: bool) -> Vec<DurabilityCell> {
    use mlkv_storage::DurabilityMode;
    let groups: &[usize] = if quick { &[64] } else { &[1, 16, 128, 1024] };
    let (warmup, iters) = if quick { (1, 1) } else { (2, 16) };
    let mut cells = Vec::new();
    for backend in io_coalesce::BACKENDS {
        for &group in groups {
            let mut none_ns = 0u128;
            for (label, mode) in [
                ("none", DurabilityMode::None),
                (
                    "group_commit",
                    DurabilityMode::GroupCommit { window: 1 << 20 },
                ),
            ] {
                let dir = std::env::temp_dir().join(format!(
                    "mlkv-bench-durability-{}-{label}-{group}-{}",
                    backend.name(),
                    std::process::id()
                ));
                std::fs::remove_dir_all(&dir).ok();
                let store = mlkv::open_store(
                    backend,
                    mlkv_storage::StoreConfig::on_disk(&dir)
                        .with_memory_budget(8 << 20)
                        .with_page_size(16 << 10)
                        .with_index_buckets(1 << 14)
                        .with_durability(mode),
                )
                .unwrap();
                let mut next_key = 0u64;
                measure_write_batches(&store, group, warmup, &mut next_key);
                let mean_ns = measure_write_batches(&store, group, iters, &mut next_key);
                drop(store);
                std::fs::remove_dir_all(&dir).ok();

                if label == "none" {
                    none_ns = mean_ns;
                }
                let cost = mean_ns as f64 / none_ns.max(1) as f64;
                let records_per_sec = group as f64 * 1e9 / mean_ns.max(1) as f64;
                eprintln!(
                    "{:>10} write-batch group {group:>5} durability={label:<12}: \
                     {:>10.3} ms/batch ({records_per_sec:>12.0} rec/s, {cost:.2}x vs none)",
                    backend.name(),
                    mean_ns as f64 / 1e6
                );
                cells.push(DurabilityCell {
                    engine: backend.name(),
                    durability: label,
                    group,
                    mean_ns,
                    records_per_sec,
                    cost_vs_none: cost,
                });
            }
        }
    }
    cells
}

fn write_durability_json(cells: &[DurabilityCell], quick: bool, out_path: &str) {
    let mut json = String::new();
    let note = "acknowledged write_batch over real files: durability=none never syncs, \
                durability=group_commit fsyncs the shared WAL (or page journal) once per \
                acknowledged batch, so its per-record cost shrinks as the group grows; \
                crash safety of the group_commit rows is proven by tests/crash_recovery.rs";
    json_prologue(&mut json, "durability", quick, note);
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"engine\": \"{}\", \"workload\": \"write-batch\", \"group\": {}, \
             \"durability\": \"{}\", \"mean_ns\": {}, \"records_per_sec\": {:.0}, \
             \"cost_vs_none\": {:.3}}}",
            c.engine, c.group, c.durability, c.mean_ns, c.records_per_sec, c.cost_vs_none
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).unwrap();
    println!("wrote {out_path}");
}

/// One `BENCH_fault_recovery.json` row group for one engine: degraded-mode
/// read retention, probe-driven recovery time, and retry amplification under
/// seeded connection churn.
struct FaultCell {
    engine: &'static str,
    degraded: mlkv_bench::fault::DegradedMeasurement,
    churn: mlkv_bench::fault::ChurnMeasurement,
}

/// Measure the fault sweep on every serving backend.
fn run_fault(quick: bool) -> Vec<FaultCell> {
    use mlkv_bench::fault;
    let iters = if quick { 8 } else { 64 };
    // Constant across quick/full: `ops` is part of the row identity, so the
    // CI smoke must produce the same rows as the committed full baseline.
    let churn_ops = 96;
    let mut cells = Vec::new();
    for (i, backend) in fault::BACKENDS.iter().enumerate() {
        let degraded = fault::run_degraded(*backend, iters);
        let churn = fault::run_churn(*backend, churn_ops, 0xFA_17 + i as u64);
        eprintln!(
            "{:>10} fault: degraded gather {:>8.3} ms vs serving {:>8.3} ms \
             ({:.2}x retained), recovery {:>8.3} ms, churn amplification {:.2}x \
             ({} attempts / {} ops, {} severed)",
            backend.name(),
            degraded.degraded_ns as f64 / 1e6,
            degraded.serving_ns as f64 / 1e6,
            degraded.throughput_retained,
            degraded.recovery_ns as f64 / 1e6,
            churn.retry_amplification,
            churn.attempts,
            churn.ops,
            churn.severed,
        );
        cells.push(FaultCell {
            engine: backend.name(),
            degraded,
            churn,
        });
    }
    cells
}

fn write_fault_json(cells: &[FaultCell], quick: bool, out_path: &str) {
    use mlkv_bench::fault;
    let mut json = String::new();
    let note = format!(
        "serving tier under injected faults: gather-degraded compares mean gather latency \
         while Serving vs Degraded (device write fault flips the server read-only; the \
         still-failing {}ms probes are part of the degraded cost), write-recovery is the \
         time from healing the device to a gather-driven probe restoring Serving (floor = \
         probe interval), apply-churn drives a retrying client through a seeded chaos \
         proxy severing connections — retry_amplification is wire attempts per completed \
         op and every op must still succeed (tests/chaos_serving.rs proves byte-equality)",
        fault::PROBE_INTERVAL.as_millis(),
    );
    json_prologue(&mut json, "fault_recovery", quick, &note);
    let mut rows: Vec<String> = Vec::new();
    for c in cells {
        for (state, mean_ns) in [
            ("serving", c.degraded.serving_ns),
            ("degraded", c.degraded.degraded_ns),
        ] {
            let retained = if state == "serving" {
                1.0
            } else {
                c.degraded.throughput_retained
            };
            rows.push(format!(
                "    {{\"engine\": \"{}\", \"workload\": \"gather-degraded\", \"batch\": {}, \
                 \"state\": \"{state}\", \"mean_ns\": {}, \
                 \"throughput_retained_vs_serving\": {retained:.3}}}",
                c.engine,
                fault::GATHER_KEYS,
                mean_ns,
            ));
        }
        rows.push(format!(
            "    {{\"engine\": \"{}\", \"workload\": \"write-recovery\", \
             \"probe_interval_ms\": {}, \"recovery_ns\": {}}}",
            c.engine,
            fault::PROBE_INTERVAL.as_millis(),
            c.degraded.recovery_ns,
        ));
        rows.push(format!(
            "    {{\"engine\": \"{}\", \"workload\": \"apply-churn\", \"ops\": {}, \
             \"attempts\": {}, \"reconnects\": {}, \"severed\": {}, \
             \"retry_amplification\": {:.3}}}",
            c.engine,
            c.churn.ops,
            c.churn.attempts,
            c.churn.reconnects,
            c.churn.severed,
            c.churn.retry_amplification,
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        json.push_str(row);
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).unwrap();
    println!("wrote {out_path}");
}

/// One `BENCH_replication.json` row group for one engine: async lag drain +
/// replica read throughput, and the semi-sync failover gap.
struct ReplicationCell {
    engine: &'static str,
    lag: mlkv_bench::replication::LagMeasurement,
    failover: mlkv_bench::replication::FailoverMeasurement,
}

/// Measure the replication sweep on every replicated serving backend.
fn run_replication(quick: bool) -> Vec<ReplicationCell> {
    use mlkv_bench::replication;
    let gather_iters = if quick { 8 } else { 64 };
    let failover_rounds = if quick { 1 } else { 5 };
    // Constant across quick/full: burst and warmup ops are part of the row
    // identity, so the CI smoke must produce the same rows as the committed
    // full baseline.
    let burst = 64;
    let warmup_ops = 16;
    let mut cells = Vec::new();
    for backend in replication::BACKENDS {
        let lag = replication::run_lag(backend, burst, gather_iters);
        let failover = replication::run_failover(backend, warmup_ops, failover_rounds);
        eprintln!(
            "{:>10} replication: lag drain {:>8.3} ms after {} applies, \
             failover {:>8.3} ms, replica reads {:>8.3} ms vs primary {:>8.3} ms \
             ({:.2}x retained)",
            backend.name(),
            lag.catchup_ns as f64 / 1e6,
            lag.burst,
            failover.failover_ns as f64 / 1e6,
            lag.replica_gather_ns as f64 / 1e6,
            lag.primary_gather_ns as f64 / 1e6,
            lag.read_throughput_vs_primary,
        );
        cells.push(ReplicationCell {
            engine: backend.name(),
            lag,
            failover,
        });
    }
    cells
}

fn write_replication_json(cells: &[ReplicationCell], quick: bool, out_path: &str) {
    use mlkv_bench::replication;
    let mut json = String::new();
    let note = format!(
        "replicated serving tier over loopback WAL shipping: replication-lag bursts \
         acknowledged applies at an Async primary and times the drain until the primary's \
         repl_lag gauge returns to zero (every shipped group applied and acknowledged by \
         the replica), failover kills a SemiSync{{acks:1}} primary and times the \
         client-observed gap until the promoted replica acknowledges a mutation (promotion \
         + endpoint rotation + retry), replica-read compares mean {}-key gather latency on \
         the replica (while it applies the stream) against the primary — zero acked loss \
         across the kill is proven by tests/chaos_replication.rs",
        replication::GATHER_KEYS,
    );
    json_prologue(&mut json, "replication", quick, &note);
    let mut rows: Vec<String> = Vec::new();
    for c in cells {
        rows.push(format!(
            "    {{\"engine\": \"{}\", \"workload\": \"replication-lag\", \"mode\": \"async\", \
             \"burst\": {}, \"catchup_ns\": {}}}",
            c.engine, c.lag.burst, c.lag.catchup_ns,
        ));
        rows.push(format!(
            "    {{\"engine\": \"{}\", \"workload\": \"failover\", \"mode\": \"semisync:1\", \
             \"warmup_ops\": {}, \"failover_ns\": {}}}",
            c.engine, c.failover.warmup_ops, c.failover.failover_ns,
        ));
        rows.push(format!(
            "    {{\"engine\": \"{}\", \"workload\": \"replica-read\", \"batch\": {}, \
             \"primary_gather_ns\": {}, \"replica_gather_ns\": {}, \
             \"read_throughput_vs_primary\": {:.3}}}",
            c.engine,
            replication::GATHER_KEYS,
            c.lag.primary_gather_ns,
            c.lag.replica_gather_ns,
            c.lag.read_throughput_vs_primary,
        ));
    }
    for (i, row) in rows.iter().enumerate() {
        json.push_str(row);
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(out_path, &json).unwrap();
    println!("wrote {out_path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let batch_only = args.iter().any(|a| a == "--batch-only");
    let fault_only = args.iter().any(|a| a == "--fault-only");
    let replication_only = args.iter().any(|a| a == "--replication-only");
    let fault_out_path = mlkv_bench::arg_value(&args, "--fault-out")
        .unwrap_or_else(|| "BENCH_fault_recovery.json".to_string());
    let replication_out_path = mlkv_bench::arg_value(&args, "--replication-out")
        .unwrap_or_else(|| "BENCH_replication.json".to_string());
    if fault_only {
        let fault_cells = run_fault(quick);
        write_fault_json(&fault_cells, quick, &fault_out_path);
        return;
    }
    if replication_only {
        let replication_cells = run_replication(quick);
        write_replication_json(&replication_cells, quick, &replication_out_path);
        return;
    }
    let out_path = mlkv_bench::arg_value(&args, "--out")
        .unwrap_or_else(|| "BENCH_batch_parallel.json".to_string());
    let durability_out_path = mlkv_bench::arg_value(&args, "--durability-out")
        .unwrap_or_else(|| "BENCH_durability.json".to_string());

    let mut cells = Vec::new();
    let warm = |engine| GroupSpec {
        engine,
        workload: "gather-warm",
        batches: &GATHER_BATCH_SIZES,
        key_space: WARM_KEY_SPACE,
        warmup: 5,
        iters: 40,
    };
    push_group(&mut cells, &warm("InMemory"), quick, measure_gather, |p| {
        warm_table(BackendKind::InMemory, p)
    });
    push_group(&mut cells, &warm("FASTER"), quick, measure_gather, |p| {
        warm_table(BackendKind::Faster, p)
    });
    // Cold hybrid log + simulated SSD reads: the planner folds this dense
    // key space into a few merged reads, and a 1024-key batch runs inline.
    push_group(
        &mut cells,
        &GroupSpec {
            engine: "FASTER",
            workload: "gather-cold-ssd",
            batches: &[1024],
            key_space: COLD_KEY_SPACE,
            warmup: 1,
            iters: 8,
        },
        quick,
        measure_gather,
        cold_faster_table,
    );

    // Write half of the matrix: `apply_gradients` over the same parallelism
    // levels, on every sharded-write-path engine.
    for backend in WRITE_BACKENDS {
        push_group(
            &mut cells,
            &GroupSpec {
                engine: backend.name(),
                workload: "apply-warm",
                batches: &[APPLY_BATCH_SIZE],
                key_space: WARM_KEY_SPACE,
                warmup: 3,
                iters: 20,
            },
            quick,
            measure_apply,
            move |p| warm_table(backend, p),
        );
    }
    // Cold apply: the RMW batch resolves through the same batched chain walk
    // as the gather — one submission per chain depth — then folds the
    // gradients in and appends, so it costs like gather-cold-ssd.
    push_group(
        &mut cells,
        &GroupSpec {
            engine: "FASTER",
            workload: "apply-cold-ssd",
            batches: &[1024],
            key_space: COLD_KEY_SPACE,
            warmup: 1,
            iters: 8,
        },
        quick,
        measure_apply,
        cold_faster_table,
    );

    let mut json = String::new();
    let note = format!(
        "gather and apply_gradients latency by parallelism, the one worker knob (executor \
         workers = memtable shards = buffer-pool shards = leaf-latch lanes / 8, reads and \
         writes alike); a batch fans out only when every worker gets {min} keys \
         (MIN_KEYS_PER_WORKER), so every batch below {fan} keys runs inline at every level \
         and its speedup_vs_serial is ~1.0 plus whatever the level's shard and lane counts \
         change; only the 16384-key warm gathers fan out (min(parallelism, 4) workers), and \
         their speedup needs that many idle cores; the cold-ssd rows add 25us simulated SSD \
         reads, submitted to the simulated device's virtual clock, and resolve through FASTER's one \
         batched chain walk (one coalesced submission per chain depth, never one read per \
         key)",
        min = MIN_KEYS_PER_WORKER,
        fan = 2 * MIN_KEYS_PER_WORKER,
    );
    json_prologue(&mut json, "batch_parallel", quick, &note);
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"engine\": \"{}\", \"workload\": \"{}\", \"batch\": {}, \
             \"parallelism\": {}, \"mean_ns\": {}, \"speedup_vs_serial\": {:.3}}}",
            c.engine, c.workload, c.batch, c.parallelism, c.mean_ns, c.speedup_vs_serial
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
    if batch_only {
        return;
    }

    let durability_cells = run_durability(quick);
    write_durability_json(&durability_cells, quick, &durability_out_path);

    let fault_cells = run_fault(quick);
    write_fault_json(&fault_cells, quick, &fault_out_path);

    let replication_cells = run_replication(quick);
    write_replication_json(&replication_cells, quick, &replication_out_path);
}
