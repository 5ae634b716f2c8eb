//! Knowledge-graph embedding training loop (link prediction with DistMult /
//! ComplEx, Hits@10 evaluation), including BETA-style partition ordering.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mlkv::{EmbeddingTable, StorageResult};
use mlkv_embedding::kge::{ComplEx, DistMult, KgeModel};
use mlkv_embedding::metrics::hits_at_k;
use mlkv_workloads::kg::{KgConfig, KnowledgeGraph, Triple};
use mlkv_workloads::partition::partition_order;

use crate::harness::{read_rows, train, Gradients, Rows, Task, TrainerOptions};
use crate::report::TrainingReport;

/// Sampled corruptions each held-out triple is ranked against.
const EVAL_NEGATIVES: usize = 32;

/// Which KGE scoring model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KgeModelKind {
    /// DistMult.
    DistMult,
    /// ComplEx.
    ComplEx,
}

impl KgeModelKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            KgeModelKind::DistMult => "DistMult",
            KgeModelKind::ComplEx => "ComplEx",
        }
    }

    fn build(&self, dim: usize) -> Box<dyn KgeModel> {
        match self {
            KgeModelKind::DistMult => Box::new(DistMult::new(dim)),
            KgeModelKind::ComplEx => Box::new(ComplEx::new(dim)),
        }
    }
}

/// Configuration of a KGE training run.
#[derive(Debug, Clone)]
pub struct KgeTrainerConfig {
    /// Scoring model.
    pub model: KgeModelKind,
    /// Knowledge-graph shape.
    pub kg: KgConfig,
    /// Negative samples per positive triple.
    pub negatives: usize,
    /// Use BETA-style partition ordering of the training triples (Figure 9(b)).
    pub beta_ordering: bool,
    /// Number of partitions when `beta_ordering` is set.
    pub num_partitions: u64,
    /// Shared harness options.
    pub options: TrainerOptions,
}

impl Default for KgeTrainerConfig {
    fn default() -> Self {
        Self {
            model: KgeModelKind::DistMult,
            kg: KgConfig::default(),
            negatives: 4,
            beta_ordering: false,
            num_partitions: 16,
            options: TrainerOptions::default(),
        }
    }
}

/// Link-prediction training loop over an MLKV embedding table.
pub struct KgeTrainer {
    table: Arc<EmbeddingTable>,
    config: KgeTrainerConfig,
    model: Box<dyn KgeModel>,
    graph: KnowledgeGraph,
}

impl KgeTrainer {
    /// Create a trainer; entity and relation embeddings share the table.
    pub fn new(table: Arc<EmbeddingTable>, config: KgeTrainerConfig) -> Self {
        let model = config.model.build(table.dim());
        let graph = KnowledgeGraph::generate(config.kg.clone());
        Self {
            table,
            config,
            model,
            graph,
        }
    }

    /// The generated knowledge graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Hits@10 over `eval` triples against sampled corruptions.
    fn evaluate(&self, table: &EmbeddingTable, eval: &[Triple]) -> StorageResult<f64> {
        let mut rng = SmallRng::seed_from_u64(self.config.options.seed ^ 0xEEE);
        let mut true_scores = Vec::with_capacity(eval.len());
        let mut neg_scores = Vec::with_capacity(eval.len());
        for t in eval {
            let negs = self.graph.negative_tails(t, EVAL_NEGATIVES, &mut rng);
            // One batched read per triple: head, relation, tail, then negatives.
            let mut rows = read_rows(table, &self.triple_keys(t, &negs))?;
            let negatives_rows = rows.split_off(3);
            let (h, r, tail) = (&rows[0], &rows[1], &rows[2]);
            true_scores.push(self.model.score(h, r, tail));
            neg_scores.push(
                negatives_rows
                    .iter()
                    .map(|ne| self.model.score(h, r, ne))
                    .collect(),
            );
        }
        Ok(hits_at_k(&true_scores, &neg_scores, 10))
    }

    /// Keys touched by one triple and its negatives.
    fn triple_keys(&self, triple: &Triple, negatives: &[u64]) -> Vec<u64> {
        let mut keys = vec![
            self.graph.entity_key(triple.head),
            self.graph.relation_key(triple.relation),
            self.graph.entity_key(triple.tail),
        ];
        keys.extend(negatives.iter().map(|n| self.graph.entity_key(*n)));
        keys
    }

    /// Run `num_batches` of training and return the report.
    pub fn run(&mut self, num_batches: usize) -> StorageResult<TrainingReport> {
        let opts = &self.config.options;
        let (mut train_set, eval) = self.graph.split(0.05);
        if self.config.beta_ordering {
            train_set = partition_order(
                &train_set,
                self.graph.config().num_entities,
                self.config.num_partitions,
            );
        }
        let mut task = KgeTask {
            trainer: self,
            train: train_set,
            eval: eval.into_iter().take(opts.eval_samples).collect(),
            cursor: 0,
            rng: SmallRng::seed_from_u64(opts.seed),
        };
        train(&self.table, opts, &mut task, num_batches)
    }
}

/// One KGE run: the training triples (cycled through) and the held-out ones.
struct KgeTask<'a> {
    trainer: &'a KgeTrainer,
    train: Vec<Triple>,
    eval: Vec<Triple>,
    cursor: usize,
    /// Draws each training triple's negative tails.
    rng: SmallRng,
}

impl Task for KgeTask<'_> {
    /// Each training triple with its negative tails.
    type Batch = Vec<(Triple, Vec<u64>)>;
    const FORWARD_SHARE: f64 = 0.5;

    fn next_batch(&mut self) -> Self::Batch {
        let KgeTrainer { graph, config, .. } = self.trainer;
        (0..config.options.batch_size)
            .map(|_| {
                let t = self.train[self.cursor % self.train.len()];
                self.cursor += 1;
                (t, graph.negative_tails(&t, config.negatives, &mut self.rng))
            })
            .collect()
    }

    fn keys(&self, batch: &Self::Batch) -> Vec<u64> {
        batch
            .iter()
            .flat_map(|(t, negs)| self.trainer.triple_keys(t, negs))
            .collect()
    }

    fn step(&mut self, batch: &Self::Batch, rows: &Rows, grads: &mut Gradients, _lr: f32) {
        let KgeTrainer { graph, model, .. } = self.trainer;
        for (triple, negs) in batch {
            let head = graph.entity_key(triple.head);
            let relation = graph.relation_key(triple.relation);
            let (h, r) = (rows[&head], rows[&relation]);
            let tail = graph.entity_key(triple.tail);
            let (_, gh, gr, gt) = model.loss_and_grad(h, r, rows[&tail], 1.0);
            grads.add(head, &gh);
            grads.add(relation, &gr);
            grads.add(tail, &gt);
            for neg in negs {
                let neg = graph.entity_key(*neg);
                let (_, gh, gr, gt) = model.loss_and_grad(h, r, rows[&neg], -1.0);
                grads.add(head, &gh);
                grads.add(relation, &gr);
                grads.add(neg, &gt);
            }
        }
    }

    fn evaluate(&self, table: &EmbeddingTable) -> StorageResult<f64> {
        self.trainer.evaluate(table, &self.eval)
    }

    fn label(&self, dim: usize) -> String {
        let beta = if self.trainer.config.beta_ordering {
            "+BETA"
        } else {
            ""
        };
        format!("{}-{dim}{beta}", self.trainer.config.model.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv::{BackendKind, Mlkv};

    fn small_table(dim: usize) -> Arc<EmbeddingTable> {
        Mlkv::builder("kge-test")
            .dim(dim)
            .staleness_bound(u32::MAX)
            .backend(BackendKind::Mlkv)
            .memory_budget(4 << 20)
            // KGE embeddings are the whole model: start them at a magnitude that
            // gives the scoring function usable gradients from the first epoch.
            .init_scale(0.5)
            .build()
            .unwrap()
            .table()
    }

    fn small_config(model: KgeModelKind) -> KgeTrainerConfig {
        KgeTrainerConfig {
            model,
            kg: KgConfig {
                num_entities: 500,
                num_relations: 10,
                num_clusters: 5,
                num_triples: 6_000,
                structure_prob: 0.95,
                skew: 0.5,
                seed: 5,
            },
            negatives: 4,
            beta_ordering: false,
            num_partitions: 8,
            options: TrainerOptions {
                batch_size: 64,
                eval_every_batches: 0,
                eval_samples: 150,
                learning_rate: 0.5,
                // Synchronous updates keep the convergence test deterministic:
                // with async updates the updater thread's progress (and therefore
                // how stale the read embeddings are) depends on scheduling.
                update_mode: crate::harness::UpdateMode::Synchronous,
                ..TrainerOptions::default()
            },
        }
    }

    #[test]
    fn distmult_training_improves_hits_at_10() {
        let table = small_table(16);
        let mut trainer = KgeTrainer::new(Arc::clone(&table), small_config(KgeModelKind::DistMult));
        let (_, eval) = trainer.graph.split(0.05);
        let eval: Vec<Triple> = eval.into_iter().take(150).collect();
        let before = trainer.evaluate(&table, &eval).unwrap();
        let report = trainer.run(600).unwrap();
        assert!(
            report.final_metric > before + 0.05,
            "Hits@10 did not improve: {before} -> {}",
            report.final_metric
        );
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn complex_variant_trains() {
        let table = small_table(16);
        let mut trainer = KgeTrainer::new(table, small_config(KgeModelKind::ComplEx));
        let report = trainer.run(200).unwrap();
        assert!(report.final_metric > 0.2, "Hits@10 {}", report.final_metric);
        assert!(report.label.contains("ComplEx"));
    }

    #[test]
    fn beta_ordering_produces_a_valid_run() {
        let table = small_table(8);
        let mut config = small_config(KgeModelKind::DistMult);
        config.beta_ordering = true;
        let mut trainer = KgeTrainer::new(table, config);
        let report = trainer.run(30).unwrap();
        assert!(report.label.contains("+BETA"));
        assert!(report.samples == 30 * 64);
    }

    #[test]
    fn a_synchronous_run_repeats_bit_for_bit() {
        crate::harness::tests::assert_runs_repeat(16, 510, |table| {
            let mut config = small_config(KgeModelKind::DistMult);
            config.options.update_mode = crate::harness::UpdateMode::Synchronous;
            config.options.prefetch = crate::harness::PrefetchMode::None;
            KgeTrainer::new(table, config).run(40)
        });
    }
}
