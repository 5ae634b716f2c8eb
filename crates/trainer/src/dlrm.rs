//! DLRM / CTR training loop (Criteo-style workloads, FFNN and DCN models).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use mlkv::codec::decode_vector;
use mlkv::{EmbeddingTable, StorageResult};
use mlkv_embedding::metrics::auc;
use mlkv_embedding::nn::{DeepCross, Mlp};
use mlkv_workloads::criteo::{CriteoConfig, CriteoGenerator, CtrSample};

use crate::energy::EnergyModel;
use crate::harness::{
    issue_prefetch, simulate_compute, AdaptiveLookahead, PrefetchMode, TrainerOptions,
    UpdateDispatcher,
};
use crate::report::{LatencyBreakdown, TrainingReport};

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

/// CTR training loop over an MLKV embedding table.
pub struct DlrmTrainer {
    table: Arc<EmbeddingTable>,
    config: DlrmTrainerConfig,
    model: CtrModel,
    energy: EnergyModel,
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
            energy: EnergyModel::default(),
        }
    }

    /// Read a batch of embeddings for evaluation without touching the
    /// staleness clock: one `multi_get` straight at the store.
    fn eval_embeddings(&self, keys: &[u64]) -> StorageResult<Vec<Vec<f32>>> {
        let dim = self.table.dim();
        self.table
            .store()
            .multi_get(keys)
            .into_iter()
            .map(|result| match result {
                Ok(bytes) => decode_vector(&bytes, dim),
                Err(e) if e.is_not_found() => Ok(vec![0.0; dim]),
                Err(e) => Err(e),
            })
            .collect()
    }

    fn build_input(&self, embeddings: &[Vec<f32>], dense: &[f32]) -> Vec<f32> {
        let dim = self.table.dim();
        let mut input = Vec::with_capacity(embeddings.len() * dim + dense.len());
        for e in embeddings {
            input.extend_from_slice(e);
        }
        input.extend_from_slice(dense);
        input
    }

    /// Evaluate AUC on `samples`, reading embeddings directly from the store.
    fn evaluate(&self, samples: &[CtrSample]) -> StorageResult<f64> {
        let mut scores = Vec::with_capacity(samples.len());
        let mut labels = Vec::with_capacity(samples.len());
        for s in samples {
            let embeddings = self.eval_embeddings(&s.sparse_keys)?;
            let input = self.build_input(&embeddings, &s.dense);
            scores.push(self.model.predict(&input));
            labels.push(s.label);
        }
        Ok(auc(&scores, &labels))
    }

    /// Run `num_batches` of training and return the report.
    pub fn run(&mut self, num_batches: usize) -> StorageResult<TrainingReport> {
        let opts = self.config.options.clone();
        let mut generator = CriteoGenerator::new(self.config.criteo.clone());
        let eval_set = generator.next_batch(opts.eval_samples);
        let mut dispatcher = UpdateDispatcher::new(
            Arc::clone(&self.table),
            opts.update_mode,
            opts.learning_rate,
        );

        // Sliding window of upcoming batches so prefetches can run ahead; its
        // depth is tuned at runtime from the observed prefetch hit-rate.
        let mut lookahead = AdaptiveLookahead::new(
            opts.lookahead_batches,
            opts.adaptive_lookahead && opts.prefetch != PrefetchMode::None,
        );
        let mut window: VecDeque<Vec<CtrSample>> = VecDeque::new();
        for _ in 0..=lookahead.depth() {
            window.push_back(generator.next_batch(opts.batch_size));
        }

        let mut breakdown = LatencyBreakdown::default();
        let mut convergence = Vec::new();
        let mut samples_done = 0u64;
        let io_before = self.table.store_metrics().total_io_bytes();
        let stall_before = self.table.staleness_stats().stall_ns;
        let run_start = Instant::now();
        let dim = self.table.dim();

        for batch_idx in 0..num_batches {
            let batch = window.pop_front().expect("window is pre-filled");
            // Top the window up to the current look-ahead depth, announcing
            // the keys of every newly generated batch. At steady state this
            // announces one batch per step; after a depth change the window
            // drains or refills over the next few steps.
            while window.len() <= lookahead.depth() {
                let future = generator.next_batch(opts.batch_size);
                let future_keys: Vec<u64> = future
                    .iter()
                    .flat_map(|s| s.sparse_keys.iter().copied())
                    .collect();
                issue_prefetch(&self.table, &future_keys, opts.prefetch);
                window.push_back(future);
            }
            if (batch_idx + 1) % 8 == 0 {
                lookahead.observe(self.table.prefetch_stats());
            }

            // --- Embedding access (Get). ---
            // Keys are deduplicated per batch (as DLRM systems do), so each
            // unique embedding sees exactly one Get and one Put per batch and
            // staleness counts whole batches, not sample occurrences.
            let t0 = Instant::now();
            let mut unique_keys: Vec<u64> = batch
                .iter()
                .flat_map(|s| s.sparse_keys.iter().copied())
                .collect();
            unique_keys.sort_unstable();
            unique_keys.dedup();
            let fetched = self.table.gather(&unique_keys)?;
            let embedding_of: HashMap<u64, &Vec<f32>> =
                unique_keys.iter().copied().zip(fetched.iter()).collect();
            let emb_get_s = t0.elapsed().as_secs_f64();

            // --- Forward + backward. ---
            let t1 = Instant::now();
            let mut grad_accum: HashMap<u64, (Vec<f32>, u32)> = HashMap::new();
            for sample in &batch {
                let embeddings: Vec<Vec<f32>> = sample
                    .sparse_keys
                    .iter()
                    .map(|k| (*embedding_of[k]).clone())
                    .collect();
                let input = self.build_input(&embeddings, &sample.dense);
                let (_, d_input) = self
                    .model
                    .train_step(&input, sample.label, opts.learning_rate);
                // Split the input gradient back into per-feature embedding gradients.
                for (field, key) in sample.sparse_keys.iter().enumerate() {
                    let grad = &d_input[field * dim..(field + 1) * dim];
                    let entry = grad_accum
                        .entry(*key)
                        .or_insert_with(|| (vec![0.0; dim], 0));
                    for (a, g) in entry.0.iter_mut().zip(grad) {
                        *a += g;
                    }
                    entry.1 += 1;
                }
            }
            let compute_s = t1.elapsed().as_secs_f64();
            simulate_compute(opts.simulated_compute);

            // --- Embedding update (one batched scatter). ---
            // Mean gradient per key, so popular keys do not receive outsized steps.
            let updates: Vec<(u64, Vec<f32>)> = grad_accum
                .into_iter()
                .map(|(key, (sum, count))| (key, sum.iter().map(|g| g / count as f32).collect()))
                .collect();
            let put_time = dispatcher.dispatch(updates)?;

            breakdown.emb_access_s += emb_get_s + put_time.as_secs_f64();
            breakdown.forward_s += compute_s * 0.4;
            breakdown.backward_s += compute_s * 0.6 + opts.simulated_compute.as_secs_f64();
            samples_done += batch.len() as u64;

            if opts.eval_every_batches > 0 && (batch_idx + 1) % opts.eval_every_batches == 0 {
                let metric = self.evaluate(&eval_set)?;
                convergence.push((run_start.elapsed().as_secs_f64(), metric));
            }
        }

        dispatcher.drain()?;
        let duration = run_start.elapsed();
        let final_metric = self.evaluate(&eval_set)?;
        convergence.push((duration.as_secs_f64(), final_metric));
        let io_bytes = self.table.store_metrics().total_io_bytes() - io_before;
        let stall_s = (self.table.staleness_stats().stall_ns - stall_before) as f64 / 1e9;
        let busy_s = breakdown.forward_s + breakdown.backward_s;
        Ok(TrainingReport {
            label: format!(
                "{}-{} ({})",
                self.config.model.name(),
                self.table.dim(),
                self.table.store().name()
            ),
            throughput: samples_done as f64 / duration.as_secs_f64().max(1e-9),
            samples: samples_done,
            duration,
            final_metric,
            convergence,
            breakdown,
            joules_per_batch: self.energy.joules_per_batch(
                busy_s,
                breakdown.emb_access_s + stall_s,
                io_bytes,
                num_batches as u64,
            ),
            stall_s,
            io_bytes,
        })
    }

    /// Predicted click probability for a sample (used by examples).
    pub fn predict(&self, sample: &CtrSample) -> StorageResult<f32> {
        let embeddings = self.eval_embeddings(&sample.sparse_keys)?;
        let input = self.build_input(&embeddings, &sample.dense);
        Ok(self.model.predict(&input))
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
            trainer.evaluate(&eval).unwrap()
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
}
