//! `serve-mixed`: `mlkv-server` on loopback over the larger-than-memory
//! FASTER table, two blocking client connections, 80% gathers / 20% applies.
//!
//! Phase A is an **open loop** at a fixed rate below capacity: each request
//! is timed from when it was *due*, which gives the latency floor (where a
//! fixed batching window shows). Phase B is a **closed loop**, each caller
//! thinking 0–400 µs between reply and next request, which gives the rate the
//! server sustains with two callers (where cross-request fusion shows). The fixed-rate ladder of
//! [`ladder`] is part of `run --all`, not of the gated run.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mlkv::StorageResult;
use mlkv_server::{Client, ClientOptions, ServerBuilder};

use crate::inputs::{gradient, mix3, unique, KeySampler, Shadow, DIM, LR};
use crate::probe::{set_up_median, Mark, Probe, ServerSide, TableSpec};
use crate::report::{metric, ms, percentile, us, Metric, RunResult};
use crate::trace::{Layer, Span, Trace};
use crate::train::{mismatched_rows, SETUPS_PER_RUN};

/// Client connections, one generator thread each (never more than `nproc`).
pub const CONNECTIONS: usize = 2;
/// Keys per gather and per apply.
pub const KEYS_PER_REQUEST: usize = 16;
/// Total offered rate of phase A, requests per second.
pub const FLOOR_RATE_RPS: u64 = 400;
/// Rates of the ladder, requests per second.
pub const LADDER_RPS: [u64; 5] = [800, 1200, 1600, 2000, 2400];
/// Seconds per ladder rung.
pub const LADDER_RUNG_SECONDS: f64 = 4.0;
/// Latency limit (p99 from due time) a ladder rung must meet.
pub const LADDER_LIMIT_MS: f64 = 5.0;
/// One request in five is an apply.
const APPLY_PER_MILLE: u64 = 200;
/// Share of the measured seconds spent in phase A; the rest is phase B.
const FLOOR_SHARE: f64 = 0.75;
/// Unmeasured open-loop seconds before phase A.
const WARMUP_SECONDS: f64 = 1.0;
/// Longest think time of a closed-loop caller (twice the batcher's window).
const MAX_THINK_TIME: Duration = Duration::from_micros(400);
/// How long before a request is due its generator stops sleeping and spins.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// Retries a client may make; with a session they stay exactly-once.
const MAX_RETRIES: u32 = 3;

/// One part of a connection's timeline.
#[derive(Debug, Clone, Copy)]
struct Phase {
    /// Total offered rate across connections; `None` is a closed loop.
    rate_rps: Option<u64>,
    seconds: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Gather,
    Apply,
}

/// What the generator saw of one request. Times are `Instant`s converted
/// with the trace's clock, so they line up with the engine spans.
#[derive(Debug, Clone, Copy)]
struct Sample {
    phase: usize,
    kind: Kind,
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    ok: bool,
}

/// Request `index` of connection `conn`: a gather over the whole key space,
/// or an apply inside the connection's own partition (keys ≡ conn mod
/// [`CONNECTIONS`]), so no two connections ever update the same row and the
/// shadow table does not depend on how their requests interleave.
fn request(sampler: &KeySampler, seed: u64, conn: u64, index: u64) -> (Kind, Vec<u64>) {
    let stream = mix3(seed, 0x5e7e + conn, index);
    let keys = sampler.keys(stream, KEYS_PER_REQUEST);
    if stream % 1000 < APPLY_PER_MILLE {
        let own = keys
            .iter()
            .map(|k| k - k % CONNECTIONS as u64 + conn)
            .collect::<Vec<_>>();
        (Kind::Apply, unique(&own))
    } else {
        (Kind::Gather, keys)
    }
}

/// What a closed-loop caller waits between a reply and its next request:
/// uniform in 0..[`MAX_THINK_TIME`]. Without it the two callers lock into
/// step with the batcher's window — every tick fused or every tick waiting
/// the whole window out — and which of the two a run falls into turns on a
/// few tens of microseconds of host noise.
fn think_time(seed: u64, conn: u64, index: u64) -> Duration {
    MAX_THINK_TIME * (mix3(seed, 0x7417 + conn, index) % 1024) as u32 / 1024
}

/// The gradient request `(conn, index)` applies to `key`.
fn request_gradient(seed: u64, conn: u64, index: u64, key: u64) -> Vec<f32> {
    gradient(seed, mix3(0xa991, conn, index), key)
}

/// Drive one connection through `phases`; all connections and the
/// coordinator meet at `barrier` before and after every phase.
fn drive(
    mut client: Client,
    clock: Arc<Trace>,
    seed: u64,
    conn: u64,
    phases: Vec<Phase>,
    barrier: Arc<Barrier>,
) -> (Vec<Sample>, u64, u64) {
    let sampler = KeySampler::new(seed);
    let mut samples = Vec::new();
    let mut index = 0u64;
    for (phase_no, phase) in phases.iter().enumerate() {
        barrier.wait();
        let start = Instant::now();
        let length = Duration::from_secs_f64(phase.seconds);
        let gap = phase
            .rate_rps
            .map(|rate| Duration::from_secs_f64(CONNECTIONS as f64 / rate as f64));
        let mut sent_in_phase = 0u32;
        loop {
            let due = match gap {
                // Connections take turns: together they offer one evenly
                // spaced stream, as independent users would, instead of
                // sending in pairs that the batcher would always fuse.
                Some(gap) => start + gap * sent_in_phase + gap * conn as u32 / CONNECTIONS as u32,
                None => Instant::now() + think_time(seed, conn, index),
            };
            if due.duration_since(start) >= length {
                break;
            }
            // An open-loop request is sent when it is due: sleep to just
            // before, then spin (a sleep alone overshoots by ~90 µs, a tenth
            // of the latency). A closed-loop caller just sleeps its think time.
            let spin = if gap.is_some() {
                SPIN_BEFORE_DUE
            } else {
                Duration::ZERO
            };
            if let Some(wait) = due.checked_duration_since(Instant::now() + spin) {
                std::thread::sleep(wait);
            }
            while gap.is_some() && Instant::now() < due {
                std::hint::spin_loop();
            }
            let (kind, keys) = request(&sampler, seed, conn, index);
            let updates: Vec<(u64, Vec<f32>)> = match kind {
                Kind::Gather => Vec::new(),
                Kind::Apply => keys
                    .iter()
                    .map(|&k| (k, request_gradient(seed, conn, index, k)))
                    .collect(),
            };
            let sent = Instant::now();
            let ok = match kind {
                Kind::Gather => matches!(
                    client.gather(&keys, None),
                    Ok(rows) if rows.len() == keys.len() && rows.iter().all(|r| r.len() == DIM)
                ),
                Kind::Apply => client.apply_gradients(&updates, LR, None).is_ok(),
            };
            samples.push(Sample {
                phase: phase_no,
                kind,
                due_ns: clock.ns_of(due),
                sent_ns: clock.ns_of(sent),
                done_ns: clock.now_ns(),
                ok,
            });
            if clock.enabled() {
                let op = if kind == Kind::Gather {
                    "client.gather"
                } else {
                    "client.apply"
                };
                clock.record(Layer::Client, op, clock.ns_of(sent), keys.len() as u32, 0);
            }
            index += 1;
            sent_in_phase += 1;
        }
        barrier.wait();
    }
    (samples, index, client.stats().retries)
}

/// For each request of `requests`, the engine span that served it: the last
/// span of `op` that started after the request was sent and ended before its
/// reply arrived. Returns `(self_ns, span_ns)` per matched request — the
/// client-observed time outside and inside the engine.
fn serving_spans(requests: &[&Sample], spans: &[Span], op: &str) -> (Vec<u64>, Vec<u64>) {
    let mut serving: Vec<&Span> = spans
        .iter()
        .filter(|s| s.layer == Layer::Engine && s.op == op)
        .collect();
    serving.sort_by_key(|s| s.end_ns);
    let (mut self_ns, mut span_ns) = (Vec::new(), Vec::new());
    for r in requests {
        let upto = serving.partition_point(|s| s.end_ns <= r.done_ns);
        if let Some(span) = serving[..upto].last().filter(|s| s.start_ns >= r.sent_ns) {
            span_ns.push(span.dur_ns());
            self_ns.push((r.done_ns - r.sent_ns).saturating_sub(span.dur_ns()));
        }
    }
    (self_ns, span_ns)
}

struct Outcome {
    samples: Vec<Sample>,
    /// Requests each connection issued, for the shadow replay.
    issued: Vec<u64>,
    retries: u64,
    /// Counter readings before the first and after the last measured phase.
    marks: (Mark, Mark),
}

/// Start a server over `probe`'s table, run `phases` (the first is the
/// unmeasured warm-up) on every connection, and shut the server down.
fn serve_phases(
    probe: &Probe,
    seed: u64,
    phases: &[Phase],
    traced: bool,
) -> StorageResult<Outcome> {
    let server = ServerBuilder::new(mlkv::BackendKind::Mlkv, DIM)
        .table(Arc::clone(&probe.table))
        .env_overrides(false)
        .serve("127.0.0.1:0")?;
    // Connect before any generator starts: a thread that failed to connect
    // would leave the others waiting at the barrier.
    let clients = (0..CONNECTIONS as u64)
        .map(|conn| {
            let session = ClientOptions::retrying(conn + 1, MAX_RETRIES);
            Client::connect_with(server.local_addr(), session)
        })
        .collect::<StorageResult<Vec<Client>>>()?;
    let barrier = Arc::new(Barrier::new(CONNECTIONS + 1));
    let drivers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(conn, client)| {
            let (clock, phases, barrier) = (
                Arc::clone(&probe.trace),
                phases.to_vec(),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || drive(client, clock, seed, conn as u64, phases, barrier))
        })
        .collect();
    let mut before = probe.mark();
    for phase_no in 0..phases.len() {
        if phase_no == 1 {
            probe.trace.set_enabled(traced);
            before = probe.mark();
        }
        barrier.wait();
        barrier.wait();
    }
    let after = probe.mark();
    probe.trace.set_enabled(false);
    let mut outcome = Outcome {
        samples: Vec::new(),
        issued: Vec::new(),
        retries: 0,
        marks: (before, after),
    };
    for driver in drivers {
        let (samples, issued, retries) = driver.join().expect("a generator thread does not panic");
        outcome.samples.extend(samples);
        outcome.issued.push(issued);
        outcome.retries += retries;
    }
    server.shutdown()?;
    Ok(outcome)
}

/// Replay every apply of the run on a fresh shadow table.
fn shadow_of(seed: u64, issued: &[u64]) -> Shadow {
    let sampler = KeySampler::new(seed);
    let mut shadow = Shadow::populated();
    for (conn, &count) in issued.iter().enumerate() {
        for index in 0..count {
            let (kind, keys) = request(&sampler, seed, conn as u64, index);
            for key in keys {
                match kind {
                    Kind::Gather => shadow.touch(key),
                    Kind::Apply => {
                        shadow.apply(key, &request_gradient(seed, conn as u64, index, key))
                    }
                }
            }
        }
    }
    shadow
}

/// Latencies from due time, in nanoseconds, of the samples `keep` selects.
fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.done_ns - s.due_ns)
        .collect()
}

/// Run the gated serving workload for `seconds` measured seconds.
pub fn run(spec: &TableSpec, seed: u64, seconds: f64, traced: bool) -> StorageResult<RunResult> {
    let (probe, setup_s) = set_up_median(spec, SETUPS_PER_RUN)?;
    let floor_seconds = seconds * FLOOR_SHARE;
    let phases = [
        Phase {
            rate_rps: Some(FLOOR_RATE_RPS),
            seconds: WARMUP_SECONDS,
        },
        Phase {
            rate_rps: Some(FLOOR_RATE_RPS),
            seconds: floor_seconds,
        },
        Phase {
            rate_rps: None,
            seconds: seconds - floor_seconds,
        },
    ];
    let outcome = serve_phases(&probe, seed, &phases, traced)?;
    let samples = &outcome.samples;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let shadow = shadow_of(seed, &outcome.issued);
    let mismatched = mismatched_rows(&probe.table, &shadow)?;

    let floor = |kind: Kind| latencies(samples, |s| s.phase == 1 && s.kind == kind);
    let (gathers, applies) = (floor(Kind::Gather), floor(Kind::Apply));
    let floor_all = latencies(samples, |s| s.phase == 1);
    let lateness: Vec<u64> = samples
        .iter()
        .filter(|s| s.phase == 1)
        .map(|s| s.sent_ns - s.due_ns)
        .collect();
    // Phase B's rate over the time it really took, first send to last reply.
    let closed: Vec<&Sample> = samples.iter().filter(|s| s.phase == 2).collect();
    let closed_ns = closed.iter().map(|s| s.done_ns).max().unwrap_or(0)
        - closed.iter().map(|s| s.sent_ns).min().unwrap_or(0);
    let closed_rps = closed.len() as f64 / (closed_ns as f64 / 1e9);

    let end_to_end = vec![
        metric("setup_s", setup_s, "s"),
        metric("ops_per_s", closed_rps, "1/s"),
        metric("op_p95_ms", ms(percentile(&floor_all, 0.95)), "ms"),
        metric("gather_p50_us", us(percentile(&gathers, 0.50)), "us"),
        metric("apply_p50_us", us(percentile(&applies, 0.50)), "us"),
    ];
    let printed: Vec<Metric> = vec![
        metric("floor_requests", floor_all.len() as f64, "count"),
        metric("op_p50_ms", ms(percentile(&floor_all, 0.50)), "ms"),
        metric("op_p99_ms", ms(percentile(&floor_all, 0.99)), "ms"),
        metric("floor_gathers", gathers.len() as f64, "count"),
        metric("gather_p95_us", us(percentile(&gathers, 0.95)), "us"),
        metric("gather_p99_us", us(percentile(&gathers, 0.99)), "us"),
        metric("floor_applies", applies.len() as f64, "count"),
        metric("apply_p95_us", us(percentile(&applies, 0.95)), "us"),
        metric("apply_p99_us", us(percentile(&applies, 0.99)), "us"),
        metric("closed_requests", closed.len() as f64, "count"),
        metric("lateness_p50_us", us(percentile(&lateness, 0.50)), "us"),
        metric("lateness_p99_us", us(percentile(&lateness, 0.99)), "us"),
        metric("client_retries", outcome.retries as f64, "count"),
        metric("touched_keys", shadow.touched_keys().len() as f64, "count"),
    ];

    let per_layer = if traced {
        let (before, after) = &outcome.marks;
        // Where a phase-A gather's time went: the engine span that served it
        // and everything else (wire, admission, batcher window, core).
        let server_side = |spans: &[Span]| {
            let floor_gathers: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.phase == 1 && s.kind == Kind::Gather)
                .collect();
            let (self_ns, span_ns) = serving_spans(&floor_gathers, spans, "multi_get");
            let sent_to_done: Vec<u64> = floor_gathers
                .iter()
                .map(|s| s.done_ns - s.sent_ns)
                .collect();
            let (self_us, engine_span_us) = (
                us(percentile(&self_ns, 0.50)),
                us(percentile(&span_ns, 0.50)),
            );
            ServerSide {
                requests: samples.iter().filter(|s| s.phase >= 1).count() as u64,
                self_us,
                engine_span_us,
                // Medians do not add exactly; what is left over is shown.
                unattributed_us: us(percentile(&sent_to_done, 0.50)) - self_us - engine_span_us,
                rejected: after.storage.serve_rejected - before.storage.serve_rejected,
                retries: outcome.retries,
            }
        };
        probe.traced_table("serve-mixed", before, after, Some(&server_side), closed_rps)?
    } else {
        Vec::new()
    };
    Ok(RunResult {
        workload: "serve-mixed",
        seed,
        seconds,
        traced,
        attempted: samples.len() as u64,
        failed,
        mismatched_rows: mismatched,
        end_to_end,
        printed,
        per_layer,
        exact_counts: Vec::new(),
    })
}

/// One rung of the ladder, as a JSON object.
fn rung_json(rate: u64, samples: &[Sample], phase: usize) -> (bool, String) {
    let in_rung: Vec<&Sample> = samples.iter().filter(|s| s.phase == phase).collect();
    let all = latencies(samples, |s| s.phase == phase);
    let failed = in_rung.iter().filter(|s| !s.ok).count();
    // A backlog shows as the generator running later and later: compare how
    // late it was over the first and the second half of the rung.
    let late = |half: &[&Sample]| {
        percentile(
            &half
                .iter()
                .map(|s| s.sent_ns - s.due_ns)
                .collect::<Vec<_>>(),
            0.50,
        )
    };
    let mut by_due = in_rung.clone();
    by_due.sort_by_key(|s| s.due_ns);
    let (first, second) = by_due.split_at(by_due.len() / 2);
    let (late_first, late_second) = (late(first), late(second));
    let growing = late_second > 2 * late_first.max(100_000);
    let p99_ms = percentile(&all, 0.99) as f64 / 1e6;
    let pass = failed == 0 && !growing && p99_ms <= LADDER_LIMIT_MS && !all.is_empty();
    (
        pass,
        format!(
            "{{\"rate_rps\": {rate}, \"n\": {}, \"p50_ms\": {}, \"p99_ms\": {p99_ms}, \"failed\": {failed}, \
             \"lateness_p50_us\": [{}, {}], \"pass\": {pass}}}",
            all.len(),
            percentile(&all, 0.50) as f64 / 1e6,
            us(late_first),
            us(late_second),
        ),
    )
}

/// The fixed-rate ladder: open loop at each of [`LADDER_RPS`] for
/// [`LADDER_RUNG_SECONDS`]; `max_rate_rps` is the highest rung up to which
/// every rung keeps its p99 from due time within [`LADDER_LIMIT_MS`] with no
/// failure and no growing lateness. Printed by `run --all`; not gated, because a rung either
/// passes or does not and so cannot show a spread.
pub fn ladder(spec: &TableSpec, seed: u64) -> StorageResult<String> {
    let (probe, _) = Probe::set_up(spec)?;
    let mut phases = vec![Phase {
        rate_rps: Some(FLOOR_RATE_RPS),
        seconds: WARMUP_SECONDS,
    }];
    phases.extend(LADDER_RPS.iter().map(|&rate| Phase {
        rate_rps: Some(rate),
        seconds: LADDER_RUNG_SECONDS,
    }));
    let outcome = serve_phases(&probe, seed, &phases, false)?;
    let mismatched = mismatched_rows(&probe.table, &shadow_of(seed, &outcome.issued))?;
    // The highest rate met with every lower rate met too: past the first
    // failing rung the server is saturated and a later pass is luck.
    let (mut max_rate, mut saturated) = (0, false);
    let mut rungs = Vec::new();
    for (i, &rate) in LADDER_RPS.iter().enumerate() {
        let (pass, json) = rung_json(rate, &outcome.samples, i + 1);
        saturated |= !pass;
        if !saturated {
            max_rate = rate;
        }
        rungs.push(json);
    }
    Ok(format!(
        "{{\"limit_p99_ms\": {LADDER_LIMIT_MS}, \"rung_seconds\": {LADDER_RUNG_SECONDS}, \"max_rate_rps\": {max_rate}, \
         \"mismatched_rows\": {mismatched}, \"rungs\": [{}]}}",
        rungs.join(", ")
    ))
}
