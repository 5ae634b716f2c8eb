//! Larger-than-memory embedding storage: a table whose key space far exceeds
//! the configured memory buffer, comparing plain offloading against MLKV's
//! look-ahead prefetching — the core scenario of the paper's Figure 7/9.
//!
//! ```bash
//! cargo run --release --example larger_than_memory
//! ```

use std::time::Instant;

use mlkv::{BackendKind, Mlkv};

const NUM_EMBEDDINGS: u64 = 50_000;
const DIM: usize = 32;
const BUFFER_BYTES: usize = 1 << 20; // ~1/6 of the table fits in memory.

fn main() -> mlkv::StorageResult<()> {
    let table = Mlkv::builder("larger-than-memory")
        .dim(DIM)
        .staleness_bound(u32::MAX)
        .backend(BackendKind::Mlkv)
        .memory_budget(BUFFER_BYTES)
        .page_size(16 << 10)
        .lookahead_workers(2)
        .build()?
        .table();

    println!(
        "loading {NUM_EMBEDDINGS} embeddings of dim {DIM} (~{} MB) into a {} MB buffer...",
        (NUM_EMBEDDINGS as usize * DIM * 4) >> 20,
        BUFFER_BYTES >> 20
    );
    for key in 0..NUM_EMBEDDINGS {
        table.put_one(key, &[key as f32 / NUM_EMBEDDINGS as f32; DIM])?;
    }
    let metrics = table.store_metrics();
    println!(
        "loaded; engine wrote {} MB to the device so far",
        metrics.disk_write_bytes >> 20
    );

    // Access a cold range without prefetching (one batched gather per
    // training-step-sized chunk, like the trainers do).
    let cold_keys: Vec<u64> = (0..4_000).collect();
    let start = Instant::now();
    for chunk in cold_keys.chunks(256) {
        table.gather(chunk)?;
    }
    let without = start.elapsed();

    // Access another cold range, but announce it via Lookahead first.
    let prefetched_keys: Vec<u64> = (4_000..8_000).collect();
    table.lookahead(&prefetched_keys);
    table.wait_for_lookahead();
    let start = Instant::now();
    for chunk in prefetched_keys.chunks(256) {
        table.gather(chunk)?;
    }
    let with = start.elapsed();

    let prefetch = table.prefetch_stats();
    println!(
        "cold reads without prefetch: {without:?}\n\
         cold reads after look-ahead prefetch: {with:?}\n\
         ({} records promoted into the memory buffer, {} skipped)",
        prefetch.promoted, prefetch.skipped
    );
    println!(
        "storage metrics: {} disk reads, {} memory hits",
        table.store_metrics().disk_reads,
        table.store_metrics().mem_hits
    );
    Ok(())
}
