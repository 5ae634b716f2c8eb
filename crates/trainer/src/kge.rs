//! Knowledge-graph embedding training loop (link prediction with DistMult /
//! ComplEx, Hits@10 evaluation), including BETA-style partition ordering.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use mlkv::codec::decode_vector;
use mlkv::{EmbeddingTable, StorageResult};
use mlkv_embedding::kge::{ComplEx, DistMult, KgeModel};
use mlkv_embedding::metrics::hits_at_k;
use mlkv_workloads::kg::{KgConfig, KnowledgeGraph, Triple};
use mlkv_workloads::partition::partition_order;

use crate::energy::EnergyModel;
use crate::harness::{
    issue_prefetch, simulate_compute, AdaptiveLookahead, PrefetchMode, TrainerOptions,
    UpdateDispatcher,
};
use crate::report::{LatencyBreakdown, TrainingReport};

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
    energy: EnergyModel,
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
            energy: EnergyModel::default(),
        }
    }

    /// The generated knowledge graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Read a batch of embeddings for evaluation without touching the
    /// staleness clock: one `multi_get` straight at the store, with unseen
    /// keys falling back to the deterministic initialiser.
    fn eval_embeddings(&self, keys: &[u64]) -> StorageResult<Vec<Vec<f32>>> {
        let dim = self.table.dim();
        let (scale, seed) = (self.table.options().init_scale, self.table.options().seed);
        keys.iter()
            .zip(self.table.store().multi_get(keys))
            .map(|(key, result)| match result {
                Ok(bytes) => decode_vector(&bytes, dim),
                Err(e) if e.is_not_found() => Ok(mlkv::codec::init_vector(*key, dim, scale, seed)),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// Hits@10 over `eval` triples against `negatives` sampled corruptions.
    fn evaluate(&self, eval: &[Triple], negatives: usize) -> StorageResult<f64> {
        let mut rng = SmallRng::seed_from_u64(self.config.options.seed ^ 0xEEE);
        let mut true_scores = Vec::with_capacity(eval.len());
        let mut neg_scores = Vec::with_capacity(eval.len());
        for t in eval {
            let negs = self.graph.negative_tails(t, negatives, &mut rng);
            // One batched read per triple: head, relation, tail, then negatives.
            let mut keys = vec![
                self.graph.entity_key(t.head),
                self.graph.relation_key(t.relation),
                self.graph.entity_key(t.tail),
            ];
            keys.extend(negs.iter().map(|n| self.graph.entity_key(*n)));
            let mut rows = self.eval_embeddings(&keys)?;
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
        let opts = self.config.options.clone();
        let (mut train, eval) = self.graph.split(0.05);
        if self.config.beta_ordering {
            train = partition_order(
                &train,
                self.graph.config().num_entities,
                self.config.num_partitions,
            );
        }
        let eval: Vec<Triple> = eval.into_iter().take(opts.eval_samples).collect();
        let mut rng = SmallRng::seed_from_u64(opts.seed);
        let mut dispatcher = UpdateDispatcher::new(
            Arc::clone(&self.table),
            opts.update_mode,
            opts.learning_rate,
        );

        // Pre-compute batches (cycling through the training triples).
        let total_triples = num_batches * opts.batch_size;
        let mut batches: VecDeque<Vec<(Triple, Vec<u64>)>> = VecDeque::new();
        let mut cursor = 0usize;
        let make_batch = |cursor: &mut usize, rng: &mut SmallRng| {
            let mut batch = Vec::with_capacity(opts.batch_size);
            for _ in 0..opts.batch_size {
                let t = train[*cursor % train.len()];
                *cursor += 1;
                let negs = self.graph.negative_tails(&t, self.config.negatives, rng);
                batch.push((t, negs));
            }
            batch
        };
        let mut lookahead = AdaptiveLookahead::new(
            opts.lookahead_batches,
            opts.adaptive_lookahead && opts.prefetch != PrefetchMode::None,
        );
        for _ in 0..=lookahead.depth() {
            batches.push_back(make_batch(&mut cursor, &mut rng));
        }

        let mut breakdown = LatencyBreakdown::default();
        let mut convergence = Vec::new();
        let io_before = self.table.store_metrics().total_io_bytes();
        let stall_before = self.table.staleness_stats().stall_ns;
        let run_start = Instant::now();

        for batch_idx in 0..num_batches {
            let batch = batches.pop_front().expect("window pre-filled");
            // Refill to the adaptively tuned depth (bounded so the run never
            // generates more than `depth` batches past the end), announcing
            // each newly generated batch.
            while batches.len() <= lookahead.depth()
                && cursor < total_triples + lookahead.depth() * opts.batch_size
            {
                let future = make_batch(&mut cursor, &mut rng);
                let keys: Vec<u64> = future
                    .iter()
                    .flat_map(|(t, negs)| self.triple_keys(t, negs))
                    .collect();
                issue_prefetch(&self.table, &keys, opts.prefetch);
                batches.push_back(future);
            }
            if (batch_idx + 1) % 8 == 0 {
                lookahead.observe(self.table.prefetch_stats());
            }

            // --- Embedding access (deduplicated per batch). ---
            let t0 = Instant::now();
            let mut unique_keys: Vec<u64> = batch
                .iter()
                .flat_map(|(t, negs)| self.triple_keys(t, negs))
                .collect();
            unique_keys.sort_unstable();
            unique_keys.dedup();
            let fetched = self.table.gather(&unique_keys)?;
            let embedding_of: HashMap<u64, &Vec<f32>> =
                unique_keys.iter().copied().zip(fetched.iter()).collect();
            let emb_get_s = t0.elapsed().as_secs_f64();

            // --- Score + gradients. ---
            let t1 = Instant::now();
            let dim = self.table.dim();
            let mut grad_accum: HashMap<u64, (Vec<f32>, u32)> = HashMap::new();
            let add_grad = |key: u64, grad: &[f32], accum: &mut HashMap<u64, (Vec<f32>, u32)>| {
                let entry = accum.entry(key).or_insert_with(|| (vec![0.0; dim], 0));
                for (a, g) in entry.0.iter_mut().zip(grad) {
                    *a += g;
                }
                entry.1 += 1;
            };
            for (triple, negs) in &batch {
                let h: &[f32] = embedding_of[&self.graph.entity_key(triple.head)];
                let r: &[f32] = embedding_of[&self.graph.relation_key(triple.relation)];
                let tail: &[f32] = embedding_of[&self.graph.entity_key(triple.tail)];
                let (_, gh, gr, gt) = self.model.loss_and_grad(h, r, tail, 1.0);
                add_grad(self.graph.entity_key(triple.head), &gh, &mut grad_accum);
                add_grad(
                    self.graph.relation_key(triple.relation),
                    &gr,
                    &mut grad_accum,
                );
                add_grad(self.graph.entity_key(triple.tail), &gt, &mut grad_accum);
                for neg in negs {
                    let ne: &[f32] = embedding_of[&self.graph.entity_key(*neg)];
                    let (_, gh_n, gr_n, gt_n) = self.model.loss_and_grad(h, r, ne, -1.0);
                    add_grad(self.graph.entity_key(triple.head), &gh_n, &mut grad_accum);
                    add_grad(
                        self.graph.relation_key(triple.relation),
                        &gr_n,
                        &mut grad_accum,
                    );
                    add_grad(self.graph.entity_key(*neg), &gt_n, &mut grad_accum);
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
                let metric = self.evaluate(&eval, 32)?;
                convergence.push((run_start.elapsed().as_secs_f64(), metric));
            }
        }

        dispatcher.drain()?;
        let duration = run_start.elapsed();
        let final_metric = self.evaluate(&eval, 32)?;
        convergence.push((duration.as_secs_f64(), final_metric));
        let samples = (num_batches * opts.batch_size) as u64;
        let io_bytes = self.table.store_metrics().total_io_bytes() - io_before;
        let stall_s = (self.table.staleness_stats().stall_ns - stall_before) as f64 / 1e9;
        let busy_s = breakdown.forward_s + breakdown.backward_s;
        Ok(TrainingReport {
            label: format!(
                "{}-{}{} ({})",
                self.config.model.name(),
                self.table.dim(),
                if self.config.beta_ordering {
                    "+BETA"
                } else {
                    ""
                },
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
        let before = trainer.evaluate(&eval, 32).unwrap();
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
}
