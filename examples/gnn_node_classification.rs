//! GNN node classification (GraphSAGE) on a synthetic power-law graph with
//! planted communities — the Papers100M-style workload of the paper.
//!
//! ```bash
//! cargo run --release --example gnn_node_classification
//! ```

use mlkv::BackendKind;
use mlkv_trainer::{GnnModelKind, GnnTrainer, GnnTrainerConfig, TrainerOptions};
use mlkv_workloads::graph::GnnGraphConfig;

fn main() -> mlkv::StorageResult<()> {
    let table = mlkv::Mlkv::builder("gnn-example")
        .dim(16)
        .staleness_bound(10)
        .backend(BackendKind::Mlkv)
        .memory_budget(32 << 20)
        .build()?
        .table();

    let config = GnnTrainerConfig {
        model: GnnModelKind::GraphSage,
        graph: GnnGraphConfig {
            num_nodes: 10_000,
            num_classes: 4,
            ..GnnGraphConfig::default()
        },
        hidden_dim: 32,
        options: TrainerOptions {
            batch_size: 64,
            eval_every_batches: 40,
            eval_samples: 300,
            ..TrainerOptions::default()
        },
    };
    let mut trainer = GnnTrainer::new(table, config);
    println!(
        "training GraphSAGE over {} node embeddings",
        trainer.graph().num_nodes()
    );
    let report = trainer.run(160)?;

    println!("{}", report.summary());
    println!("convergence (elapsed seconds, accuracy):");
    for row in report.convergence_rows() {
        println!("  {row}");
    }
    Ok(())
}
