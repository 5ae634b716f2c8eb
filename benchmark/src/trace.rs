//! The span log the benchmark's own wrappers write into.
//!
//! Spans are recorded from outside the product, at the two seams it exposes
//! (`KvStore` and `Device`) and around the benchmark's own calls. They are
//! kept in memory and written out once, after the measured interval; the log
//! is off (one relaxed load per call) on every untraced run.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which boundary a span was taken at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A client request, timed by the load generator.
    Client,
    /// A call into `EmbeddingTable`, timed by the benchmark.
    Core,
    /// A `KvStore` method, timed by `TracedStore`.
    Engine,
    /// A `Device` method, timed by `CountingDevice`.
    Device,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Core => "core",
            Layer::Engine => "engine",
            Layer::Device => "device",
        }
    }
}

/// One timed call. Times are nanoseconds since the log was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: Layer,
    pub op: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Keys (engine, core, client) or requests (device) the call carried.
    pub items: u32,
    /// Device spans only: what the device model charged for the call before
    /// it reached the wrapper (the simulated read latency sleeps above it).
    pub model_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

const SHARDS: usize = 8;

/// Process-wide span log.
pub struct Trace {
    epoch: Instant,
    on: AtomicBool,
    shards: [Mutex<Vec<Span>>; SHARDS],
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Small dense id of the calling thread (spans of one thread share it).
fn thread_id() -> u32 {
    THREAD_ID.with(|id| *id)
}

impl Trace {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            shards: Default::default(),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Append a finished span (callers check [`Trace::enabled`] first).
    pub fn record(&self, layer: Layer, op: &'static str, start_ns: u64, items: u32, model_ns: u64) {
        let thread = thread_id();
        let span = Span {
            layer,
            op,
            thread,
            start_ns,
            end_ns: self.now_ns(),
            items,
            model_ns,
        };
        self.shards[thread as usize % SHARDS]
            .lock()
            .expect("span log poisoned by a panicking recorder")
            .push(span);
    }

    /// Remove and return every span recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(
                &mut shard
                    .lock()
                    .expect("span log poisoned by a panicking recorder"),
            );
        }
        all.sort_by_key(|s| (s.start_ns, s.end_ns));
        all
    }
}

/// What the span log says about who caused what.
pub struct Attribution {
    /// For each span, the index of the span that caused it: a device call's
    /// engine span, an engine call's core span (same thread). `None` where
    /// the benchmark has no span above it.
    pub parent: Vec<Option<usize>>,
    /// `(engine span index, self ns)`: the span's duration minus the part of
    /// it its device calls cover.
    pub engine_self: Vec<(usize, u64)>,
    /// Share of device time whose engine span had to be guessed.
    pub guessed_device_share: f64,
}

/// Link spans to their causes and compute engine self time.
///
/// A device call belongs to the engine span that contains it in time — on
/// the same thread if there is one (serial batches), otherwise the most
/// recently started one (the executor's workers are fresh threads the
/// wrapper cannot tag). When several engine spans of other threads contain a
/// device call, the choice is a guess, and the share of device time assigned
/// that way is reported so the reader can judge the table. A device call's
/// interval starts `model_ns` before the wrapper saw it, because the
/// simulated read latency is slept above the wrapper.
pub fn attribute(spans: &[Span]) -> Attribution {
    let of_layer = |layer: Layer| -> Vec<usize> {
        (0..spans.len())
            .filter(|&i| spans[i].layer == layer)
            .collect()
    };
    let engine = of_layer(Layer::Engine);
    let mut parent = vec![None; spans.len()];

    // Engine calls made by a table call the benchmark timed itself.
    let core = of_layer(Layer::Core);
    for &e in &engine {
        let upto = core.partition_point(|&c| spans[c].start_ns <= spans[e].start_ns);
        parent[e] =
            core[..upto].iter().rev().take(8).copied().find(|&c| {
                spans[c].thread == spans[e].thread && spans[c].end_ns >= spans[e].end_ns
            });
    }

    let mut device: Vec<(u64, u64, usize)> = of_layer(Layer::Device)
        .into_iter()
        .map(|d| {
            (
                spans[d].start_ns.saturating_sub(spans[d].model_ns),
                spans[d].end_ns,
                d,
            )
        })
        .collect();
    device.sort_unstable();
    let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); engine.len()];
    let (mut total_ns, mut guessed_ns) = (0u64, 0u64);
    let mut active: Vec<usize> = Vec::new();
    let mut next = 0;
    for &(start, end, d) in &device {
        while next < engine.len() && spans[engine[next]].start_ns <= start {
            active.push(next);
            next += 1;
        }
        active.retain(|&e| spans[engine[e]].end_ns >= start);
        let holders: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&e| spans[engine[e]].end_ns >= end)
            .collect();
        let Some(&latest) = holders.last() else {
            continue;
        };
        total_ns += end - start;
        let same_thread = holders
            .iter()
            .copied()
            .find(|&e| spans[engine[e]].thread == spans[d].thread);
        if same_thread.is_none() && holders.len() > 1 {
            guessed_ns += end - start;
        }
        let owner = same_thread.unwrap_or(latest);
        parent[d] = Some(engine[owner]);
        covered[owner].push((start, end));
    }
    let engine_self = covered
        .into_iter()
        .enumerate()
        .map(|(e, mut intervals)| {
            intervals.sort_unstable();
            let (mut union, mut reach) = (0u64, 0u64);
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            (engine[e], spans[engine[e]].dur_ns().saturating_sub(union))
        })
        .collect();
    Attribution {
        parent,
        engine_self,
        guessed_device_share: if total_ns == 0 {
            0.0
        } else {
            guessed_ns as f64 / total_ns as f64
        },
    }
}

/// Spans written to a trace file; a longer log is cut there (the per-layer
/// table is always computed from the whole log).
pub const MAX_SPANS_WRITTEN: usize = 250_000;

/// Write the first [`MAX_SPANS_WRITTEN`] spans as one JSON array, one object
/// per span; `id` is the span's position and `parent` the `id` that caused it.
pub fn write_json(
    spans: &[Span],
    parent: &[Option<usize>],
    path: &std::path::Path,
) -> std::io::Result<()> {
    let spans = &spans[..spans.len().min(MAX_SPANS_WRITTEN)];
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"op\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{},\"model_ns\":{}}}{}",
            i,
            parent[i].map_or("null".to_string(), |p| p.to_string()),
            s.layer.name(),
            s.op,
            s.thread,
            s.start_ns,
            s.end_ns,
            s.items,
            s.model_ns,
            comma
        )?;
    }
    writeln!(out, "]")?;
    out.flush()
}
