//! The training-step workloads: `gather` → model → `apply_gradients`, closed
//! loop, one trainer thread.
//!
//! `train-cold`, `train-warm` and `offload-lsm` share this loop and differ
//! only in their [`TrainSpec`].

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mlkv::{EmbeddingTable, StorageResult};
use mlkv_trainer::harness::{issue_prefetch, simulate_compute};
use mlkv_trainer::PrefetchMode;

use crate::inputs::{gradient, mix3, unique, KeySampler, Shadow, LR};
use crate::probe::{set_up_median, Probe, TableSpec, POPULATE_CHUNK};
use crate::report::{metric, ms, percentile, us, Metric, RunResult};
use crate::trace::{Layer, Trace};

/// Lookups per step (≈ 420 unique keys under the Zipf draw, above the batch
/// executor's 256-key fan-out cutoff).
pub const LOOKUPS_PER_STEP: usize = 512;
/// The model stage of a step, as in the `fig7` harness.
pub const COMPUTE: Duration = Duration::from_micros(300);
/// Steps run before the measured interval so caches and the look-ahead
/// window are in their steady state.
pub const WARMUP_STEPS: u64 = 100;
/// Measured steps after which [`RunResult::exact_counts`] are read.
pub const EXACT_COUNT_STEPS: u64 = 200;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS_PER_RUN: usize = 3;

/// What distinguishes one training workload from another.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    pub name: &'static str,
    pub table: TableSpec,
    /// Apply updates on a background thread (bounded by the table's
    /// staleness bound) instead of inline.
    pub async_updates: bool,
    /// Steps ahead that keys are announced through look-ahead (0 = never).
    pub lookahead_steps: u64,
    /// One caller, inline updates: device counts repeat exactly per seed.
    pub exact: bool,
}

/// One step's gradient updates: one `(key, gradient)` per unique key.
type Updates = Vec<(u64, Vec<f32>)>;

/// Applies updates inline or on one background thread in FIFO order — the
/// shape of `mlkv_trainer::harness::UpdateDispatcher`, which this stands in
/// for because that type cannot report how long each apply took or whether
/// it failed.
struct Applier {
    table: Arc<EmbeddingTable>,
    trace: Arc<Trace>,
    sender: Option<Sender<(u64, Updates)>>,
    worker: Option<JoinHandle<ApplyLog>>,
    inline: ApplyLog,
}

/// `(step, nanoseconds)` of every apply call, and how many failed.
#[derive(Default)]
struct ApplyLog {
    calls: Vec<(u64, u64)>,
    failed: u64,
}

fn apply_once(
    table: &EmbeddingTable,
    trace: &Trace,
    step: u64,
    updates: &Updates,
    log: &mut ApplyLog,
) {
    let refs: Vec<(u64, &[f32])> = updates.iter().map(|(k, g)| (*k, g.as_slice())).collect();
    let start = Instant::now();
    let result = table.apply_gradients(&refs, LR);
    log.calls.push((step, start.elapsed().as_nanos() as u64));
    if trace.enabled() {
        trace.record(
            Layer::Core,
            "apply_gradients",
            trace.ns_of(start),
            refs.len() as u32,
            0,
        );
    }
    if result.is_err() {
        log.failed += 1;
    }
}

impl Applier {
    fn new(table: Arc<EmbeddingTable>, trace: Arc<Trace>, background: bool) -> Self {
        let (sender, worker) = if background {
            let (sender, receiver) = channel::<(u64, Updates)>();
            let (table, trace) = (Arc::clone(&table), Arc::clone(&trace));
            let worker = std::thread::spawn(move || {
                let mut log = ApplyLog::default();
                while let Ok((step, updates)) = receiver.recv() {
                    apply_once(&table, &trace, step, &updates, &mut log);
                }
                log
            });
            (Some(sender), Some(worker))
        } else {
            (None, None)
        };
        Self {
            table,
            trace,
            sender,
            worker,
            inline: ApplyLog::default(),
        }
    }

    fn dispatch(&mut self, step: u64, updates: Updates) {
        match &self.sender {
            Some(sender) => sender
                .send((step, updates))
                .expect("the applier thread outlives every dispatch"),
            None => apply_once(&self.table, &self.trace, step, &updates, &mut self.inline),
        }
    }

    /// Wait until every dispatched update is applied; return the log.
    fn finish(mut self) -> ApplyLog {
        self.sender.take();
        match self.worker.take() {
            Some(worker) => worker.join().expect("the applier thread does not panic"),
            None => std::mem::take(&mut self.inline),
        }
    }
}

/// The keys step `step` of run `seed` looks up.
fn step_keys(sampler: &KeySampler, seed: u64, step: u64) -> Vec<u64> {
    sampler.keys(mix3(seed, 0x57e9, step), LOOKUPS_PER_STEP)
}

/// Compare every touched row of `table` with `shadow`, bit for bit.
pub fn mismatched_rows(table: &EmbeddingTable, shadow: &Shadow) -> StorageResult<u64> {
    let mut bad = 0;
    for chunk in shadow.touched_keys().chunks(POPULATE_CHUNK) {
        bad += shadow.mismatches(chunk, &table.gather(chunk)?);
    }
    Ok(bad)
}

/// Run one training workload for `seconds` of measured steps.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, traced: bool) -> StorageResult<RunResult> {
    let (probe, setup_s) = set_up_median(&spec.table, SETUPS_PER_RUN)?;
    let Probe { table, trace, .. } = &probe;
    let sampler = KeySampler::new(seed);
    let mut applier = Applier::new(Arc::clone(table), Arc::clone(trace), spec.async_updates);

    let mut step_ns: Vec<u64> = Vec::new();
    let mut gather_ns: Vec<u64> = Vec::new();
    let mut failed = 0u64;
    let mut exact_counts = Vec::new();
    let mut before = probe.mark();
    let mut started = Instant::now();
    let mut step = 0u64;
    loop {
        if step == WARMUP_STEPS {
            trace.set_enabled(traced);
            before = probe.mark();
            started = Instant::now();
        }
        let measured = step >= WARMUP_STEPS;
        if measured && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let keys = step_keys(&sampler, seed, step);
        let updates: Updates = unique(&keys)
            .into_iter()
            .map(|k| (k, gradient(seed, step, k)))
            .collect();
        let ahead = (spec.lookahead_steps > 0)
            .then(|| step_keys(&sampler, seed, step + spec.lookahead_steps));

        let step_start = Instant::now();
        if let Some(ahead) = &ahead {
            issue_prefetch(table, ahead, PrefetchMode::LookAhead);
        }
        let gather_start = Instant::now();
        let rows = table.gather(&keys);
        let gather_elapsed = gather_start.elapsed().as_nanos() as u64;
        if trace.enabled() {
            trace.record(
                Layer::Core,
                "gather",
                trace.ns_of(gather_start),
                keys.len() as u32,
                0,
            );
        }
        if !matches!(&rows, Ok(rows) if rows.len() == keys.len()) {
            failed += 1;
        }
        simulate_compute(COMPUTE);
        applier.dispatch(step, updates);
        if measured {
            step_ns.push(step_start.elapsed().as_nanos() as u64);
            gather_ns.push(gather_elapsed);
        }
        step += 1;
        if spec.exact && step == WARMUP_STEPS + EXACT_COUNT_STEPS {
            let dev = probe.device.snapshot().since(&before.device);
            exact_counts = vec![
                metric("exact.syncs", dev.syncs() as f64, "count"),
                metric("exact.wal_bytes", dev.wal.write_bytes as f64, "B"),
                metric("exact.data_write_bytes", dev.data.write_bytes as f64, "B"),
            ];
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let after = probe.mark();
    trace.set_enabled(false);
    let total_steps = step;
    let steps = total_steps - WARMUP_STEPS;

    let log = applier.finish();
    table.wait_for_lookahead();
    failed += log.failed;
    let apply_ns: Vec<u64> = log
        .calls
        .iter()
        .filter(|(s, _)| *s >= WARMUP_STEPS)
        .map(|(_, ns)| *ns)
        .collect();

    // Replay the run on the shadow table and compare every touched row.
    let mut shadow = Shadow::populated();
    for s in 0..total_steps {
        for k in unique(&step_keys(&sampler, seed, s)) {
            shadow.apply(k, &gradient(seed, s, k));
        }
    }
    let mismatched = mismatched_rows(table, &shadow)?;

    let steps_per_s = steps as f64 / wall;
    let end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", steps_per_s, "1/s"),
        metric("op_p95_ms", ms(percentile(&step_ns, 0.95)), "ms"),
        metric("gather_p50_us", us(percentile(&gather_ns, 0.50)), "us"),
        metric("apply_p50_us", us(percentile(&apply_ns, 0.50)), "us"),
    ];
    let printed: Vec<Metric> = vec![
        metric("steps", steps as f64, "count"),
        metric("op_p50_ms", ms(percentile(&step_ns, 0.50)), "ms"),
        metric("op_p99_ms", ms(percentile(&step_ns, 0.99)), "ms"),
        metric("gather_p95_us", us(percentile(&gather_ns, 0.95)), "us"),
        metric("gather_p99_us", us(percentile(&gather_ns, 0.99)), "us"),
        metric("apply_calls", apply_ns.len() as f64, "count"),
        metric("apply_p95_us", us(percentile(&apply_ns, 0.95)), "us"),
        metric("apply_p99_us", us(percentile(&apply_ns, 0.99)), "us"),
        metric("touched_keys", shadow.touched_keys().len() as f64, "count"),
    ];
    let per_layer = if traced {
        probe.traced_table(spec.name, &before, &after, None, steps_per_s)?
    } else {
        Vec::new()
    };
    Ok(RunResult {
        workload: spec.name,
        seed,
        seconds,
        traced,
        attempted: 2 * total_steps,
        failed,
        mismatched_rows: mismatched,
        end_to_end,
        printed,
        per_layer,
        exact_counts,
    })
}
