//! GNN node-classification training loop (GraphSAGE / GAT over sampled
//! neighbourhoods), used for the Papers100M-like workload and the eBay case
//! studies (Figures 6, 7, 11).

use std::sync::Arc;

use mlkv::codec::encode_vector;
use mlkv::{EmbeddingTable, StorageResult, WriteBatch};
use mlkv_embedding::gnn::{Gat, GraphSage, NeighborhoodGrads};
use mlkv_embedding::metrics::accuracy;
use mlkv_workloads::graph::{GnnGraph, GnnGraphConfig};

use crate::harness::{read_rows, train, Gradients, Rows, Task, TrainerOptions};
use crate::report::TrainingReport;

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
    /// Shared harness options.
    pub options: TrainerOptions,
}

impl Default for GnnTrainerConfig {
    fn default() -> Self {
        Self {
            model: GnnModelKind::GraphSage,
            graph: GnnGraphConfig::default(),
            hidden_dim: 32,
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
        }
    }

    /// The generated graph.
    pub fn graph(&self) -> &GnnGraph {
        &self.graph
    }

    /// Bulk-load every node's seed feature vector into the store in grouped
    /// write batches (the "load node features" phase every run starts with;
    /// also what makes the store larger than memory in the eBay-scale runs).
    /// Returns the number of nodes loaded.
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

    /// Run `num_batches` of training and return the report.
    pub fn run(&mut self, num_batches: usize) -> StorageResult<TrainingReport> {
        let opts = &self.config.options;
        self.preload_features()?;
        let mut task = GnnTask {
            model: &mut self.model,
            kind: self.config.model,
            graph: &self.graph,
            // Pre-sample the training nodes for the whole run.
            nodes: self
                .graph
                .training_nodes(num_batches * opts.batch_size, opts.seed),
            cursor: 0,
            batch_size: opts.batch_size,
            eval_nodes: self.graph.training_nodes(opts.eval_samples, 0xE7A1),
        };
        train(&self.table, opts, &mut task, num_batches)
    }
}

/// One GNN run: the model, the graph, the sampled training nodes and the
/// held-out nodes.
struct GnnTask<'a> {
    model: &'a mut GnnModel,
    kind: GnnModelKind,
    graph: &'a GnnGraph,
    nodes: Vec<u64>,
    cursor: usize,
    batch_size: usize,
    eval_nodes: Vec<u64>,
}

impl Task for GnnTask<'_> {
    /// Each training node with its sampled neighbourhood.
    type Batch = Vec<(u64, Vec<u64>)>;
    const FORWARD_SHARE: f64 = 0.5;

    fn next_batch(&mut self) -> Self::Batch {
        (0..self.batch_size)
            .map(|_| {
                let node = self.nodes[self.cursor % self.nodes.len()];
                let visit = (self.cursor / self.nodes.len()) as u64;
                self.cursor += 1;
                (node, self.graph.sample_neighbors(node, visit))
            })
            .collect()
    }

    fn keys(&self, batch: &Self::Batch) -> Vec<u64> {
        batch
            .iter()
            .flat_map(|(node, neighbors)| std::iter::once(*node).chain(neighbors.iter().copied()))
            .collect()
    }

    fn step(&mut self, batch: &Self::Batch, rows: &Rows, grads: &mut Gradients, lr: f32) {
        for (node, neighbors) in batch {
            let neigh_vecs: Vec<Vec<f32>> = neighbors.iter().map(|n| rows[n].to_vec()).collect();
            let label = self.graph.label_of(*node);
            let (_, g) = self.model.train_step(rows[node], &neigh_vecs, label, lr);
            grads.add(*node, &g.d_center);
            for (neighbor, grad) in neighbors.iter().zip(&g.d_neighbors) {
                grads.add(*neighbor, grad);
            }
        }
    }

    /// Node-classification accuracy over the held-out nodes.
    fn evaluate(&self, table: &EmbeddingTable) -> StorageResult<f64> {
        let mut predicted = Vec::with_capacity(self.eval_nodes.len());
        let mut truth = Vec::with_capacity(self.eval_nodes.len());
        for node in &self.eval_nodes {
            let neighbors = self.graph.sample_neighbors(*node, u64::MAX);
            let keys: Vec<u64> = std::iter::once(*node).chain(neighbors).collect();
            let mut rows = read_rows(table, &keys)?;
            let center = rows.remove(0);
            predicted.push(self.model.predict(&center, &rows));
            truth.push(self.graph.label_of(*node));
        }
        Ok(accuracy(&predicted, &truth))
    }

    fn label(&self, dim: usize) -> String {
        format!("{}-{dim}", self.kind.name())
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

    #[test]
    fn a_run_of_zero_batches_samples_no_node() {
        let mut trainer = GnnTrainer::new(small_table(), small_config(GnnModelKind::GraphSage));
        assert_eq!(trainer.run(0).unwrap().samples, 0);
    }

    #[test]
    fn a_synchronous_run_repeats_bit_for_bit() {
        crate::harness::tests::assert_runs_repeat(16, 3_000, |table| {
            let mut config = small_config(GnnModelKind::GraphSage);
            config.options.update_mode = crate::harness::UpdateMode::Synchronous;
            config.options.prefetch = crate::harness::PrefetchMode::None;
            GnnTrainer::new(table, config).run(40)
        });
    }
}
