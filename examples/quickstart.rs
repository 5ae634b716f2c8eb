//! Quickstart: the paper's Figure 3 usage pattern in ~40 lines.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use mlkv::{BackendKind, Mlkv};

fn main() -> mlkv::StorageResult<()> {
    // nn_model, emb_tables = MLKV.Open(model_id, dim, staleness_bound)
    let model = Mlkv::builder("quickstart")
        .dim(16)
        .staleness_bound(4)
        .backend(BackendKind::Mlkv)
        .build()?;
    println!(
        "opened model '{}' on backend {} with {} consistency",
        model.model_id(),
        model.backend().name(),
        model.mode().name()
    );

    // A tiny "training loop": Get embeddings, pretend to run the NN, Put updates.
    for step in 0..5 {
        let keys: Vec<u64> = (step * 10..step * 10 + 8).collect();

        // Tell MLKV what the *next* iteration will need (look-ahead prefetching).
        let next_keys: Vec<u64> = ((step + 1) * 10..(step + 1) * 10 + 8).collect();
        model.lookahead(&next_keys);

        // Forward: one batched gather fetches every embedding of the step.
        let emb_values = model.gather(&keys)?;

        // "Backward": scatter one small gradient per key in a single batch.
        let grads: Vec<Vec<f32>> = emb_values.iter().map(|v| vec![0.01; v.len()]).collect();
        let updates: Vec<(u64, &[f32])> = keys
            .iter()
            .zip(&grads)
            .map(|(k, g)| (*k, g.as_slice()))
            .collect();
        model.apply_gradients(&updates, 0.1)?;

        println!(
            "step {step}: fetched {} embeddings, staleness of key {} is {}",
            emb_values.len(),
            keys[0],
            model.staleness_of(keys[0])
        );
    }

    let stats = model.stats();
    println!(
        "done: {} gets, {} puts, {} lazily initialised embeddings",
        stats.gets, stats.puts, stats.initialised
    );
    Ok(())
}
