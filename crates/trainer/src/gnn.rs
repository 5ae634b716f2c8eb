//! GNN node-classification training loop (GraphSAGE / GAT over sampled
//! neighbourhoods), used for the Papers100M-like workload and the eBay case
//! studies (Figures 6, 7, 11).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use mlkv::codec::{decode_vector, encode_vector};
use mlkv::{EmbeddingTable, StorageResult, WriteBatch};
use mlkv_embedding::gnn::{Gat, GraphSage, NeighborhoodGrads};
use mlkv_embedding::metrics::accuracy;
use mlkv_workloads::graph::{GnnGraph, GnnGraphConfig};

use crate::energy::EnergyModel;
use crate::harness::{
    issue_prefetch, simulate_compute, AdaptiveLookahead, PrefetchMode, TrainerOptions,
    UpdateDispatcher,
};
use crate::report::{LatencyBreakdown, TrainingReport};

/// Which GNN architecture to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnModelKind {
    /// GraphSAGE with mean aggregation.
    GraphSage,
    /// Simplified graph attention network.
    Gat,
}

impl GnnModelKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            GnnModelKind::GraphSage => "GraphSage",
            GnnModelKind::Gat => "GAT",
        }
    }
}

enum GnnModel {
    Sage(GraphSage),
    Gat(Gat),
}

impl GnnModel {
    fn train_step(
        &mut self,
        center: &[f32],
        neighbors: &[Vec<f32>],
        label: usize,
        lr: f32,
    ) -> (f32, NeighborhoodGrads) {
        match self {
            GnnModel::Sage(m) => m.train_step(center, neighbors, label, lr),
            GnnModel::Gat(m) => m.train_step(center, neighbors, label, lr),
        }
    }

    fn predict(&self, center: &[f32], neighbors: &[Vec<f32>]) -> usize {
        match self {
            GnnModel::Sage(m) => m.predict(center, neighbors),
            GnnModel::Gat(m) => m.predict(center, neighbors),
        }
    }
}

/// Configuration of a GNN training run.
#[derive(Debug, Clone)]
pub struct GnnTrainerConfig {
    /// GNN architecture.
    pub model: GnnModelKind,
    /// Graph shape.
    pub graph: GnnGraphConfig,
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Bulk-load all node seed features before training (the "load node
    /// features" phase; also what makes the store larger than memory in the
    /// eBay-scale runs).
    pub preload_features: bool,
    /// Shared harness options.
    pub options: TrainerOptions,
}

impl Default for GnnTrainerConfig {
    fn default() -> Self {
        Self {
            model: GnnModelKind::GraphSage,
            graph: GnnGraphConfig::default(),
            hidden_dim: 32,
            preload_features: true,
            options: TrainerOptions::default(),
        }
    }
}

/// Node-classification training loop over an MLKV embedding table.
pub struct GnnTrainer {
    table: Arc<EmbeddingTable>,
    config: GnnTrainerConfig,
    model: GnnModel,
    graph: GnnGraph,
    energy: EnergyModel,
}

impl GnnTrainer {
    /// Create a trainer; node embeddings live in the table keyed by node id.
    pub fn new(table: Arc<EmbeddingTable>, config: GnnTrainerConfig) -> Self {
        let graph = GnnGraph::generate(config.graph.clone());
        let model = match config.model {
            GnnModelKind::GraphSage => GnnModel::Sage(GraphSage::new(
                table.dim(),
                config.hidden_dim,
                graph.num_classes(),
                config.options.seed,
            )),
            GnnModelKind::Gat => GnnModel::Gat(Gat::new(
                table.dim(),
                config.hidden_dim,
                graph.num_classes(),
                config.options.seed,
            )),
        };
        Self {
            table,
            config,
            model,
            graph,
            energy: EnergyModel::default(),
        }
    }

    /// The generated graph.
    pub fn graph(&self) -> &GnnGraph {
        &self.graph
    }

    /// Bulk-load every node's seed feature vector into the store in grouped
    /// write batches. Returns the number of nodes loaded.
    pub fn preload_features(&self) -> StorageResult<u64> {
        const CHUNK: u64 = 1024;
        let dim = self.table.dim();
        let mut node = 0u64;
        while node < self.graph.num_nodes() {
            let mut batch = WriteBatch::new();
            for n in node..(node + CHUNK).min(self.graph.num_nodes()) {
                batch.put(n, encode_vector(&self.graph.seed_feature(n, dim)));
            }
            self.table.store().write_batch(&batch)?;
            node += CHUNK;
        }
        Ok(self.graph.num_nodes())
    }

    /// Read a batch of embeddings for evaluation without touching the
    /// staleness clock: one `multi_get` straight at the store, with absent
    /// nodes falling back to their seed feature.
    fn eval_embeddings(&self, keys: &[u64]) -> StorageResult<Vec<Vec<f32>>> {
        let dim = self.table.dim();
        keys.iter()
            .zip(self.table.store().multi_get(keys))
            .map(|(key, result)| match result {
                Ok(bytes) => decode_vector(&bytes, dim),
                Err(e) if e.is_not_found() => Ok(self.graph.seed_feature(*key, dim)),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// Node-classification accuracy over `eval_nodes`.
    fn evaluate(&self, eval_nodes: &[u64]) -> StorageResult<f64> {
        let mut predicted = Vec::with_capacity(eval_nodes.len());
        let mut truth = Vec::with_capacity(eval_nodes.len());
        for node in eval_nodes {
            let neighbors = self.graph.sample_neighbors(*node, u64::MAX);
            let keys: Vec<u64> = std::iter::once(*node).chain(neighbors).collect();
            let mut rows = self.eval_embeddings(&keys)?;
            let center = rows.remove(0);
            predicted.push(self.model.predict(&center, &rows));
            truth.push(self.graph.label_of(*node));
        }
        Ok(accuracy(&predicted, &truth))
    }

    /// Run `num_batches` of training and return the report.
    pub fn run(&mut self, num_batches: usize) -> StorageResult<TrainingReport> {
        let opts = self.config.options.clone();
        if self.config.preload_features {
            self.preload_features()?;
        }
        let eval_nodes = self.graph.training_nodes(opts.eval_samples, 0xE7A1);
        let mut dispatcher = UpdateDispatcher::new(
            Arc::clone(&self.table),
            opts.update_mode,
            opts.learning_rate,
        );

        // Pre-sample training nodes and their neighbourhoods for the whole run.
        let all_nodes = self
            .graph
            .training_nodes(num_batches * opts.batch_size, opts.seed);
        let mut window: VecDeque<Vec<(u64, Vec<u64>)>> = VecDeque::new();
        let mut cursor = 0usize;
        let make_batch = |cursor: &mut usize| {
            let mut batch = Vec::with_capacity(opts.batch_size);
            for _ in 0..opts.batch_size {
                let node = all_nodes[*cursor % all_nodes.len()];
                let visit = (*cursor / all_nodes.len()) as u64;
                *cursor += 1;
                batch.push((node, self.graph.sample_neighbors(node, visit)));
            }
            batch
        };
        let mut lookahead = AdaptiveLookahead::new(
            opts.lookahead_batches,
            opts.adaptive_lookahead && opts.prefetch != PrefetchMode::None,
        );
        for _ in 0..=lookahead.depth() {
            window.push_back(make_batch(&mut cursor));
        }

        let mut breakdown = LatencyBreakdown::default();
        let mut convergence = Vec::new();
        let io_before = self.table.store_metrics().total_io_bytes();
        let stall_before = self.table.staleness_stats().stall_ns;
        let run_start = Instant::now();

        for batch_idx in 0..num_batches {
            let batch = window.pop_front().expect("window pre-filled");
            // Refill to the adaptively tuned depth, announcing each new batch.
            while window.len() <= lookahead.depth() {
                let future = make_batch(&mut cursor);
                let keys: Vec<u64> = future
                    .iter()
                    .flat_map(|(node, neighbors)| {
                        std::iter::once(*node).chain(neighbors.iter().copied())
                    })
                    .collect();
                issue_prefetch(&self.table, &keys, opts.prefetch);
                window.push_back(future);
            }
            if (batch_idx + 1) % 8 == 0 {
                lookahead.observe(self.table.prefetch_stats());
            }

            // --- Embedding access (deduplicated per batch). ---
            let t0 = Instant::now();
            let mut unique_keys: Vec<u64> = batch
                .iter()
                .flat_map(|(node, neighbors)| {
                    std::iter::once(*node).chain(neighbors.iter().copied())
                })
                .collect();
            unique_keys.sort_unstable();
            unique_keys.dedup();
            let fetched = self.table.gather(&unique_keys)?;
            let embedding_of: HashMap<u64, &Vec<f32>> =
                unique_keys.iter().copied().zip(fetched.iter()).collect();
            let emb_get_s = t0.elapsed().as_secs_f64();

            // --- Forward + backward. ---
            let t1 = Instant::now();
            let dim = self.table.dim();
            let mut grad_accum: HashMap<u64, (Vec<f32>, u32)> = HashMap::new();
            for (node, neighbors) in &batch {
                let label = self.graph.label_of(*node);
                let center = (*embedding_of[node]).clone();
                let neigh_vecs: Vec<Vec<f32>> = neighbors
                    .iter()
                    .map(|n| (*embedding_of[n]).clone())
                    .collect();
                let (_, grads) =
                    self.model
                        .train_step(&center, &neigh_vecs, label, opts.learning_rate);
                let mut add = |key: u64, grad: &[f32]| {
                    let entry = grad_accum.entry(key).or_insert_with(|| (vec![0.0; dim], 0));
                    for (a, g) in entry.0.iter_mut().zip(grad) {
                        *a += g;
                    }
                    entry.1 += 1;
                };
                add(*node, &grads.d_center);
                for (neighbor, grad) in neighbors.iter().zip(&grads.d_neighbors) {
                    add(*neighbor, grad);
                }
            }
            let compute_s = t1.elapsed().as_secs_f64();
            simulate_compute(opts.simulated_compute);

            // --- Embedding update (one batched scatter, mean gradient per key). ---
            let updates: Vec<(u64, Vec<f32>)> = grad_accum
                .into_iter()
                .map(|(key, (sum, count))| (key, sum.iter().map(|g| g / count as f32).collect()))
                .collect();
            let put_time = dispatcher.dispatch(updates)?;

            breakdown.emb_access_s += emb_get_s + put_time.as_secs_f64();
            breakdown.forward_s += compute_s * 0.5;
            breakdown.backward_s += compute_s * 0.5 + opts.simulated_compute.as_secs_f64();

            if opts.eval_every_batches > 0 && (batch_idx + 1) % opts.eval_every_batches == 0 {
                let metric = self.evaluate(&eval_nodes)?;
                convergence.push((run_start.elapsed().as_secs_f64(), metric));
            }
        }

        dispatcher.drain()?;
        let duration = run_start.elapsed();
        let final_metric = self.evaluate(&eval_nodes)?;
        convergence.push((duration.as_secs_f64(), final_metric));
        let samples = (num_batches * opts.batch_size) as u64;
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
            throughput: samples as f64 / duration.as_secs_f64().max(1e-9),
            samples,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv::{BackendKind, Mlkv};

    fn small_table() -> Arc<EmbeddingTable> {
        Mlkv::builder("gnn-test")
            .dim(16)
            .staleness_bound(u32::MAX)
            .backend(BackendKind::Mlkv)
            .memory_budget(8 << 20)
            .build()
            .unwrap()
            .table()
    }

    fn small_config(model: GnnModelKind) -> GnnTrainerConfig {
        GnnTrainerConfig {
            model,
            graph: GnnGraphConfig {
                num_nodes: 3_000,
                avg_degree: 6,
                num_classes: 3,
                homophily: 0.9,
                skew: 0.7,
                seed: 9,
                ..GnnGraphConfig::default()
            },
            hidden_dim: 24,
            preload_features: true,
            options: TrainerOptions {
                batch_size: 32,
                eval_every_batches: 0,
                eval_samples: 200,
                learning_rate: 0.05,
                ..TrainerOptions::default()
            },
        }
    }

    #[test]
    fn graphsage_training_beats_random_guessing() {
        let table = small_table();
        let mut trainer =
            GnnTrainer::new(Arc::clone(&table), small_config(GnnModelKind::GraphSage));
        let report = trainer.run(100).unwrap();
        let random_baseline = 1.0 / 3.0;
        assert!(
            report.final_metric > random_baseline + 0.15,
            "accuracy {} vs random {random_baseline}",
            report.final_metric
        );
        assert_eq!(table.len() as u64, trainer.graph().num_nodes());
    }

    #[test]
    fn gat_variant_trains() {
        let table = small_table();
        let mut trainer = GnnTrainer::new(table, small_config(GnnModelKind::Gat));
        let report = trainer.run(60).unwrap();
        assert!(
            report.final_metric > 0.35,
            "accuracy {}",
            report.final_metric
        );
        assert!(report.label.contains("GAT"));
    }

    #[test]
    fn preload_writes_every_node() {
        let table = small_table();
        let mut config = small_config(GnnModelKind::GraphSage);
        config.graph.num_nodes = 500;
        let trainer = GnnTrainer::new(Arc::clone(&table), config);
        let loaded = trainer.preload_features().unwrap();
        assert_eq!(loaded, 500);
        assert_eq!(table.len(), 500);
    }
}
