//! Figure 7 — Larger-than-memory workloads: training throughput (top) and
//! approximate energy per batch (bottom) as the memory buffer size varies, for
//! MLKV against FASTER / RocksDB / WiredTiger offloading (figure labels match
//! `BackendKind::name()`).

use mlkv::BackendKind;
use mlkv_bench::{buffer_label, default_compute, header, open_table, scale_from_args};
use mlkv_trainer::{
    DlrmModelKind, DlrmTrainer, DlrmTrainerConfig, GnnModelKind, GnnTrainer, GnnTrainerConfig,
    KgeModelKind, KgeTrainer, KgeTrainerConfig, PrefetchMode, TrainerOptions,
};
use mlkv_workloads::criteo::CriteoConfig;
use mlkv_workloads::graph::GnnGraphConfig;
use mlkv_workloads::kg::KgConfig;

const BACKENDS: [BackendKind; 4] = [
    BackendKind::Mlkv,
    BackendKind::Faster,
    BackendKind::RocksDbLike,
    BackendKind::WiredTigerLike,
];

fn options(backend: BackendKind) -> TrainerOptions {
    TrainerOptions {
        batch_size: 64,
        simulated_compute: default_compute(),
        eval_every_batches: 0,
        eval_samples: 128,
        // Only MLKV has the Lookahead interface; the offloading baselines run bare.
        prefetch: if backend.is_mlkv() {
            PrefetchMode::LookAhead
        } else {
            PrefetchMode::None
        },
        ..TrainerOptions::default()
    }
}

fn print_row(buffer: usize, results: &[(BackendKind, f64, f64)]) {
    print!("{:>8}", buffer_label(buffer));
    for (_, throughput, _) in results {
        print!(" {throughput:>12.0}");
    }
    print!("   |");
    for (_, _, joules) in results {
        print!(" {joules:>8.2}");
    }
    println!();
}

fn print_table_header() {
    print!("{:>8}", "buffer");
    for b in BACKENDS {
        print!(" {:>12}", b.name());
    }
    print!("   |");
    for b in BACKENDS {
        print!(" {:>8}", b.name());
    }
    println!();
    println!(
        "{:>8} {:>53} | {:>35}",
        "", "throughput (samples/s)", "energy (J/batch)"
    );
}

fn main() {
    let scale = scale_from_args();
    let batches = (60.0 * scale) as usize;
    let buffers: Vec<usize> = vec![1 << 20, 2 << 20, 4 << 20, 8 << 20];

    header("Figure 7(a): DLRM on Criteo-Terabyte-like");
    print_table_header();
    for &buffer in &buffers {
        let mut results = Vec::new();
        for backend in BACKENDS {
            let table = open_table("fig7-dlrm", backend, buffer, 16, 10).unwrap();
            let mut trainer = DlrmTrainer::new(
                table,
                DlrmTrainerConfig {
                    model: DlrmModelKind::Ffnn,
                    criteo: CriteoConfig::criteo_terabyte(2e-5 * scale, 7),
                    hidden: vec![32, 16],
                    options: options(backend),
                },
            );
            let report = trainer.run(batches).unwrap();
            results.push((backend, report.throughput, report.joules_per_batch));
        }
        print_row(buffer, &results);
    }

    header("Figure 7(b): KGE on Freebase86M-like");
    print_table_header();
    for &buffer in &buffers {
        let mut results = Vec::new();
        for backend in BACKENDS {
            let table = open_table("fig7-kge", backend, buffer, 16, 10).unwrap();
            let mut trainer = KgeTrainer::new(
                table,
                KgeTrainerConfig {
                    model: KgeModelKind::DistMult,
                    kg: KgConfig::freebase86m(2e-4 * scale, 13),
                    negatives: 4,
                    beta_ordering: false,
                    num_partitions: 16,
                    options: options(backend),
                },
            );
            let report = trainer.run(batches).unwrap();
            results.push((backend, report.throughput, report.joules_per_batch));
        }
        print_row(buffer, &results);
    }

    header("Figure 7(c): GNN on Papers100M-like");
    print_table_header();
    for &buffer in &buffers {
        let mut results = Vec::new();
        for backend in BACKENDS {
            let table = open_table("fig7-gnn", backend, buffer, 32, 10).unwrap();
            let mut trainer = GnnTrainer::new(
                table,
                GnnTrainerConfig {
                    model: GnnModelKind::GraphSage,
                    graph: GnnGraphConfig::papers100m(2e-4 * scale, 19),
                    hidden_dim: 32,
                    options: options(backend),
                },
            );
            let report = trainer.run(batches).unwrap();
            results.push((backend, report.throughput, report.joules_per_batch));
        }
        print_row(buffer, &results);
    }

    println!();
    println!(
        "Expected shape (paper): MLKV outperforms the offloading baselines by 1.08-2.44x\n\
         (DLRM), 1.36-4.89x (KGE) and 1.53-12.57x (GNN), and uses less energy per batch;\n\
         the gap shrinks as the buffer grows."
    );
}
