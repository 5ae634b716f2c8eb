//! DLRM / CTR training loop (Criteo-style workloads, FFNN and DCN models).

use std::sync::Arc;

use mlkv::{EmbeddingTable, StorageResult};
use mlkv_embedding::metrics::auc;
use mlkv_embedding::nn::{DeepCross, Mlp};
use mlkv_workloads::criteo::{CriteoConfig, CriteoGenerator, CtrSample};

use crate::harness::{read_rows, train, Gradients, Rows, Task, TrainerOptions};
use crate::report::TrainingReport;

/// Which CTR model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DlrmModelKind {
    /// Fully-connected feed-forward network (the paper's "FFNN").
    Ffnn,
    /// Deep & Cross network ("DCN").
    Dcn,
}

impl DlrmModelKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DlrmModelKind::Ffnn => "FFNN",
            DlrmModelKind::Dcn => "DCN",
        }
    }
}

enum CtrModel {
    Ffnn(Mlp),
    Dcn(DeepCross),
}

impl CtrModel {
    fn train_step(&mut self, input: &[f32], label: f32, lr: f32) -> (f32, Vec<f32>) {
        match self {
            CtrModel::Ffnn(m) => m.train_step(input, label, lr),
            CtrModel::Dcn(m) => m.train_step(input, label, lr),
        }
    }

    fn predict(&self, input: &[f32]) -> f32 {
        match self {
            CtrModel::Ffnn(m) => m.predict(input),
            CtrModel::Dcn(m) => m.predict(input),
        }
    }

    /// Predicted click probability of `sample`, its rows read through
    /// [`read_rows`].
    fn predict_sample(&self, table: &EmbeddingTable, sample: &CtrSample) -> StorageResult<f32> {
        let rows = read_rows(table, &sample.sparse_keys)?;
        Ok(self.predict(&build_input(rows.iter().map(Vec::as_slice), &sample.dense)))
    }

    /// AUC over `samples`.
    fn auc(&self, table: &EmbeddingTable, samples: &[CtrSample]) -> StorageResult<f64> {
        let scores = samples
            .iter()
            .map(|s| self.predict_sample(table, s))
            .collect::<StorageResult<Vec<f32>>>()?;
        let labels: Vec<f32> = samples.iter().map(|s| s.label).collect();
        Ok(auc(&scores, &labels))
    }
}

/// Configuration of a DLRM training run.
#[derive(Debug, Clone)]
pub struct DlrmTrainerConfig {
    /// Model architecture.
    pub model: DlrmModelKind,
    /// Workload shape.
    pub criteo: CriteoConfig,
    /// Hidden layer sizes of the dense network.
    pub hidden: Vec<usize>,
    /// Shared harness options.
    pub options: TrainerOptions,
}

impl Default for DlrmTrainerConfig {
    fn default() -> Self {
        Self {
            model: DlrmModelKind::Ffnn,
            criteo: CriteoConfig::default(),
            hidden: vec![32, 16],
            options: TrainerOptions::default(),
        }
    }
}

/// The model's input: the sample's embedding rows, then its dense features.
fn build_input<'a>(rows: impl Iterator<Item = &'a [f32]>, dense: &[f32]) -> Vec<f32> {
    let mut input: Vec<f32> = rows.flatten().copied().collect();
    input.extend_from_slice(dense);
    input
}

/// CTR training loop over an MLKV embedding table.
pub struct DlrmTrainer {
    table: Arc<EmbeddingTable>,
    config: DlrmTrainerConfig,
    model: CtrModel,
}

impl DlrmTrainer {
    /// Create a trainer; the table's dimension is the per-feature embedding
    /// dimension.
    pub fn new(table: Arc<EmbeddingTable>, config: DlrmTrainerConfig) -> Self {
        let input_dim = config.criteo.num_fields * table.dim() + config.criteo.num_dense;
        let model = match config.model {
            DlrmModelKind::Ffnn => {
                CtrModel::Ffnn(Mlp::new(input_dim, &config.hidden, config.options.seed))
            }
            DlrmModelKind::Dcn => CtrModel::Dcn(DeepCross::new(
                input_dim,
                2,
                &config.hidden,
                config.options.seed,
            )),
        };
        Self {
            table,
            config,
            model,
        }
    }

    /// Run `num_batches` of training and return the report.
    pub fn run(&mut self, num_batches: usize) -> StorageResult<TrainingReport> {
        let mut generator = CriteoGenerator::new(self.config.criteo.clone());
        let eval_set = generator.next_batch(self.config.options.eval_samples);
        let mut task = CtrTask {
            model: &mut self.model,
            kind: self.config.model,
            generator,
            eval_set,
            batch_size: self.config.options.batch_size,
            dim: self.table.dim(),
        };
        train(&self.table, &self.config.options, &mut task, num_batches)
    }

    /// Predicted click probability for a sample (used by examples).
    pub fn predict(&self, sample: &CtrSample) -> StorageResult<f32> {
        self.model.predict_sample(&self.table, sample)
    }
}

/// One DLRM run: the model, the sample stream and the held-out samples.
struct CtrTask<'a> {
    model: &'a mut CtrModel,
    kind: DlrmModelKind,
    generator: CriteoGenerator,
    eval_set: Vec<CtrSample>,
    batch_size: usize,
    dim: usize,
}

impl Task for CtrTask<'_> {
    type Batch = Vec<CtrSample>;
    const FORWARD_SHARE: f64 = 0.4;

    fn next_batch(&mut self) -> Self::Batch {
        self.generator.next_batch(self.batch_size)
    }

    fn keys(&self, batch: &Self::Batch) -> Vec<u64> {
        batch
            .iter()
            .flat_map(|s| s.sparse_keys.iter().copied())
            .collect()
    }

    fn step(&mut self, batch: &Self::Batch, rows: &Rows, grads: &mut Gradients, lr: f32) {
        for sample in batch {
            let input = build_input(sample.sparse_keys.iter().map(|k| rows[k]), &sample.dense);
            let (_, d_input) = self.model.train_step(&input, sample.label, lr);
            // Split the input gradient back into per-feature embedding gradients.
            for (key, grad) in sample.sparse_keys.iter().zip(d_input.chunks(self.dim)) {
                grads.add(*key, grad);
            }
        }
    }

    fn evaluate(&self, table: &EmbeddingTable) -> StorageResult<f64> {
        self.model.auc(table, &self.eval_set)
    }

    fn label(&self, dim: usize) -> String {
        format!("{}-{dim}", self.kind.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv::{BackendKind, Mlkv};

    fn small_table(bound: u32) -> Arc<EmbeddingTable> {
        Mlkv::builder("dlrm-test")
            .dim(8)
            .staleness_bound(bound)
            .backend(BackendKind::Mlkv)
            .memory_budget(4 << 20)
            .build()
            .unwrap()
            .table()
    }

    fn small_config() -> DlrmTrainerConfig {
        DlrmTrainerConfig {
            model: DlrmModelKind::Ffnn,
            criteo: CriteoConfig {
                num_fields: 4,
                field_cardinalities: vec![500, 200, 100, 50],
                num_dense: 2,
                skew: 0.8,
                seed: 3,
            },
            hidden: vec![16],
            options: TrainerOptions {
                batch_size: 32,
                eval_every_batches: 0,
                eval_samples: 256,
                // Deterministic convergence regardless of scheduler behaviour.
                update_mode: crate::harness::UpdateMode::Synchronous,
                ..TrainerOptions::default()
            },
        }
    }

    #[test]
    fn training_improves_auc_over_initialisation() {
        let table = small_table(8);
        let mut trainer = DlrmTrainer::new(Arc::clone(&table), small_config());
        let before = {
            let mut generator = CriteoGenerator::new(small_config().criteo);
            let eval = generator.next_batch(256);
            trainer.model.auc(&table, &eval).unwrap()
        };
        let report = trainer.run(120).unwrap();
        assert!(report.final_metric > 0.6, "AUC {}", report.final_metric);
        assert!(report.final_metric > before - 0.05);
        assert!(report.throughput > 0.0);
        assert!(report.samples == 120 * 32);
        assert!(report.breakdown.total_s() > 0.0);
    }

    #[test]
    fn dcn_variant_also_trains() {
        let table = small_table(u32::MAX);
        let mut config = small_config();
        config.model = DlrmModelKind::Dcn;
        let mut trainer = DlrmTrainer::new(table, config);
        let report = trainer.run(60).unwrap();
        assert!(report.final_metric > 0.55, "AUC {}", report.final_metric);
        assert!(report.label.contains("DCN"));
    }

    #[test]
    fn synchronous_and_asynchronous_modes_both_complete() {
        for mode in [
            crate::harness::UpdateMode::Synchronous,
            crate::harness::UpdateMode::Asynchronous,
        ] {
            let table = small_table(4);
            let mut config = small_config();
            config.options.update_mode = mode;
            config.options.eval_every_batches = 20;
            let mut trainer = DlrmTrainer::new(table, config);
            let report = trainer.run(40).unwrap();
            assert!(!report.convergence.is_empty());
            assert!(report.joules_per_batch > 0.0);
        }
    }

    #[test]
    fn a_synchronous_run_repeats_bit_for_bit() {
        crate::harness::tests::assert_runs_repeat(8, 850, |table| {
            let mut config = small_config();
            config.options.update_mode = crate::harness::UpdateMode::Synchronous;
            config.options.prefetch = crate::harness::PrefetchMode::None;
            DlrmTrainer::new(table, config).run(60)
        });
    }
}
