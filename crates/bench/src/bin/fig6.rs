//! Figure 6 — End-to-end training convergence.
//!
//! Compares the specialized in-memory frameworks (PERSIA / DGL-KE / DGL,
//! represented by the in-memory backend) against the same application logic
//! running over MLKV, for all three tasks, and prints convergence-over-time
//! series. All models fit in memory, as in the paper's setup.

use mlkv::BackendKind;
use mlkv_bench::{default_compute, header, open_table, scale_from_args};
use mlkv_trainer::report::TrainingReport;
use mlkv_trainer::{
    DlrmModelKind, DlrmTrainer, DlrmTrainerConfig, GnnModelKind, GnnTrainer, GnnTrainerConfig,
    KgeModelKind, KgeTrainer, KgeTrainerConfig, TrainerOptions,
};
use mlkv_workloads::criteo::CriteoConfig;
use mlkv_workloads::graph::GnnGraphConfig;
use mlkv_workloads::kg::KgConfig;

fn options(scale: f64) -> TrainerOptions {
    let _ = scale;
    TrainerOptions {
        batch_size: 64,
        simulated_compute: default_compute(),
        eval_every_batches: 25,
        eval_samples: 256,
        ..TrainerOptions::default()
    }
}

fn print_series(framework: &str, report: &TrainingReport) {
    println!("  {framework:<24} final metric {:.4}", report.final_metric);
    for row in report.convergence_rows() {
        println!("    {row}");
    }
}

fn main() {
    let scale = scale_from_args();
    let batches = (120.0 * scale) as usize;
    let big_buffer = 256 << 20; // everything fits in memory, as in Fig. 6.

    header("Figure 6(a): DLRM on Criteo-Ad-like (PERSIA vs PERSIA-MLKV)");
    for (framework, backend) in [
        ("PERSIA (in-memory)", BackendKind::InMemory),
        ("PERSIA-MLKV", BackendKind::Mlkv),
    ] {
        for (model, dim) in [(DlrmModelKind::Ffnn, 8usize), (DlrmModelKind::Dcn, 16)] {
            let table = open_table("fig6-dlrm", backend, big_buffer, dim, 10).unwrap();
            let mut trainer = DlrmTrainer::new(
                table,
                DlrmTrainerConfig {
                    model,
                    criteo: CriteoConfig::criteo_ad(2e-4 * scale, 7),
                    hidden: vec![32, 16],
                    options: options(scale),
                },
            );
            let report = trainer.run(batches).unwrap();
            print_series(&format!("{framework} {}-{dim}", model.name()), &report);
        }
    }

    header("Figure 6(b): KGE on WikiKG2-like (DGL-KE vs DGL-KE-MLKV)");
    for (framework, backend) in [
        ("DGL-KE (in-memory)", BackendKind::InMemory),
        ("DGL-KE-MLKV", BackendKind::Mlkv),
    ] {
        for (model, dim) in [
            (KgeModelKind::DistMult, 16usize),
            (KgeModelKind::ComplEx, 32),
        ] {
            let table = open_table("fig6-kge", backend, big_buffer, dim, 10).unwrap();
            let mut trainer = KgeTrainer::new(
                table,
                KgeTrainerConfig {
                    model,
                    kg: KgConfig {
                        num_entities: (4_000.0 * scale) as u64,
                        num_relations: 20,
                        num_clusters: 10,
                        num_triples: (20_000.0 * scale) as usize,
                        structure_prob: 0.95,
                        skew: 0.6,
                        seed: 11,
                    },
                    negatives: 4,
                    beta_ordering: false,
                    num_partitions: 16,
                    options: TrainerOptions {
                        learning_rate: 0.5,
                        ..options(scale)
                    },
                },
            );
            let report = trainer.run(batches * 2).unwrap();
            print_series(&format!("{framework} {}-{dim}", model.name()), &report);
        }
    }

    header("Figure 6(c): GNN on Papers100M-like (DGL vs DGL-MLKV)");
    for (framework, backend) in [
        ("DGL (in-memory)", BackendKind::InMemory),
        ("DGL-MLKV", BackendKind::Mlkv),
    ] {
        for (model, dim) in [(GnnModelKind::GraphSage, 16usize), (GnnModelKind::Gat, 32)] {
            let table = open_table("fig6-gnn", backend, big_buffer, dim, 10).unwrap();
            let mut trainer = GnnTrainer::new(
                table,
                GnnTrainerConfig {
                    model,
                    graph: GnnGraphConfig {
                        num_nodes: (6_000.0 * scale) as u64,
                        num_classes: 4,
                        ..GnnGraphConfig::default()
                    },
                    hidden_dim: 32,
                    options: options(scale),
                },
            );
            let report = trainer.run(batches).unwrap();
            print_series(&format!("{framework} {}-{dim}", model.name()), &report);
        }
    }

    println!();
    println!(
        "Expected shape (paper): the MLKV variants reach the same convergence level in a\n\
         comparable time, within a few percent of the specialized in-memory frameworks."
    );
}
