//! Figure 11 — Case studies: eBay payment-transaction risk detection
//! (eBay-Trisk) and seller payout risk detection (eBay-Payout), reproduced on
//! synthetic graphs with the same shape.
//!
//! (a) Trisk: GNN training throughput vs buffer size for MLKV and FASTER
//!     offloading on one instance, against a simulated two-instance DGL-DDP
//!     baseline that holds the whole model in memory but pays a per-batch
//!     gradient-synchronisation latency.
//! (b) Payout: model quality over time for MLKV vs FASTER at two buffer sizes.

use std::time::Duration;

use mlkv::BackendKind;
use mlkv_bench::{buffer_label, default_compute, header, open_table, scale_from_args};
use mlkv_trainer::{GnnModelKind, GnnTrainer, GnnTrainerConfig, PrefetchMode, TrainerOptions};
use mlkv_workloads::graph::GnnGraphConfig;

fn trisk_run(
    scale: f64,
    backend: BackendKind,
    buffer: usize,
    extra_compute: Duration,
    batches: usize,
) -> f64 {
    let table = open_table("fig11-trisk", backend, buffer, 32, 10).unwrap();
    let mut trainer = GnnTrainer::new(
        table,
        GnnTrainerConfig {
            model: GnnModelKind::GraphSage,
            graph: GnnGraphConfig::ebay_trisk(5e-5 * scale, 23),
            hidden_dim: 32,
            options: TrainerOptions {
                batch_size: 64,
                simulated_compute: default_compute() + extra_compute,
                prefetch: if backend.is_mlkv() {
                    PrefetchMode::LookAhead
                } else {
                    PrefetchMode::None
                },
                eval_every_batches: 0,
                eval_samples: 64,
                ..TrainerOptions::default()
            },
        },
    );
    trainer.run(batches).unwrap().throughput
}

fn main() {
    let scale = scale_from_args();
    let batches = (50.0 * scale) as usize;

    header("Figure 11(a): eBay-Trisk-like — throughput vs buffer size (176GB model in the paper)");
    println!("{:>10} {:>14} {:>14}", "buffer", "backend", "samples/s");
    for buffer in [1 << 20, 2 << 20, 4 << 20, 8 << 20] {
        for backend in [BackendKind::Mlkv, BackendKind::Faster] {
            let throughput = trisk_run(scale, backend, buffer, Duration::ZERO, batches);
            println!(
                "{:>10} {:>14} {:>14.0}",
                buffer_label(buffer),
                backend.name(),
                throughput
            );
        }
    }
    // Simulated DGL-DDP: two instances hold the whole model in memory but every
    // batch pays an all-reduce latency over the network.
    let ddp = trisk_run(
        scale,
        BackendKind::InMemory,
        usize::MAX >> 12,
        Duration::from_micros(400),
        batches,
    );
    println!(
        "{:>10} {:>14} {:>14.0}   (2 instances in the paper)",
        "distrib", "DGL-DDP", ddp
    );

    header("Figure 11(b): eBay-Payout-like — model quality over time (2.38TB model in the paper)");
    for buffer in [2 << 20, 8 << 20] {
        for backend in [BackendKind::Mlkv, BackendKind::Faster] {
            let table = open_table("fig11-payout", backend, buffer, 32, 10).unwrap();
            let mut trainer = GnnTrainer::new(
                table,
                GnnTrainerConfig {
                    model: GnnModelKind::GraphSage,
                    graph: GnnGraphConfig::ebay_payout(5e-6 * scale, 29),
                    hidden_dim: 32,
                    options: TrainerOptions {
                        batch_size: 64,
                        simulated_compute: default_compute(),
                        prefetch: if backend.is_mlkv() {
                            PrefetchMode::LookAhead
                        } else {
                            PrefetchMode::None
                        },
                        eval_every_batches: 20,
                        eval_samples: 128,
                        ..TrainerOptions::default()
                    },
                },
            );
            let report = trainer.run(batches).unwrap();
            println!("  {}-{}:", backend.name(), buffer_label(buffer));
            for row in report.convergence_rows() {
                println!("    {row}");
            }
        }
    }

    println!();
    println!(
        "Expected shape (paper): one-instance MLKV reaches ~70% of the two-instance DDP\n\
         throughput (more cost-effective per instance), beats FASTER offloading at every\n\
         buffer size, and converges faster than FASTER at equal buffer sizes."
    );
}
