//! Shared training-harness machinery: execution options, the asynchronous
//! embedding-update dispatcher and the prefetch scheduler.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mlkv::{EmbeddingTable, PrefetchStats, StorageError, StorageResult};

/// How embedding updates are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMode {
    /// Updates are applied inline before the next batch starts (synchronous
    /// training: the paper's "Sync" configuration and the BSP end of Figure 8).
    Synchronous,
    /// Updates are handed to a background updater thread; the staleness bound of
    /// the embedding table decides how far Gets may run ahead of them (SSP /
    /// ASP).
    Asynchronous,
}

/// Which prefetching strategy the trainer uses for future batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchMode {
    /// No prefetching at all.
    None,
    /// Look-ahead prefetching (§III-C2): future keys are promoted into the
    /// storage engine's memory buffer, beyond the staleness window.
    LookAhead,
}

/// Options shared by all trainers.
#[derive(Debug, Clone)]
pub struct TrainerOptions {
    /// Mini-batch size.
    pub batch_size: usize,
    /// How embedding updates are applied.
    pub update_mode: UpdateMode,
    /// Prefetch strategy.
    pub prefetch: PrefetchMode,
    /// How many batches ahead prefetch requests are issued (the *initial*
    /// depth when [`TrainerOptions::adaptive_lookahead`] is on).
    pub lookahead_batches: usize,
    /// Adapt the look-ahead depth at runtime from the observed
    /// [`PrefetchStats`] hit-rate (see [`AdaptiveLookahead`]) instead of
    /// keeping `lookahead_batches` fixed for the whole run.
    pub adaptive_lookahead: bool,
    /// Simulated accelerator compute per batch (added to the backward phase).
    /// The paper's GPUs spend real time in the NN; this knob reproduces the
    /// compute/stall overlap without a GPU.
    pub simulated_compute: Duration,
    /// Learning rate for both dense parameters and embeddings.
    pub learning_rate: f32,
    /// Evaluate the quality metric every this many batches.
    pub eval_every_batches: usize,
    /// Number of evaluation samples.
    pub eval_samples: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        Self {
            batch_size: 64,
            update_mode: UpdateMode::Asynchronous,
            prefetch: PrefetchMode::LookAhead,
            lookahead_batches: 4,
            adaptive_lookahead: true,
            simulated_compute: Duration::from_micros(0),
            learning_rate: 0.05,
            eval_every_batches: 50,
            eval_samples: 512,
            seed: 17,
        }
    }
}

/// A batch of embedding gradient updates: one `(key, gradient)` pair per
/// unique key touched by the mini-batch, applied through the batch-first
/// [`EmbeddingTable::apply_gradients`].
pub type UpdateBatch = Vec<(u64, Vec<f32>)>;

/// Borrow an owned update batch into the slice-of-pairs shape
/// [`EmbeddingTable::apply_gradients`] takes.
fn as_gradient_refs(updates: &[(u64, Vec<f32>)]) -> Vec<(u64, &[f32])> {
    updates.iter().map(|(k, g)| (*k, g.as_slice())).collect()
}

/// Applies embedding updates either inline or on a background thread.
pub struct UpdateDispatcher {
    table: Arc<EmbeddingTable>,
    lr: f32,
    sender: Option<Sender<UpdateBatch>>,
    /// Returns the updates applied and the first apply error, if any.
    worker: Option<JoinHandle<(u64, Option<StorageError>)>>,
    dispatched: u64,
}

impl UpdateDispatcher {
    /// Create a dispatcher in the given mode.
    pub fn new(table: Arc<EmbeddingTable>, mode: UpdateMode, lr: f32) -> Self {
        match mode {
            UpdateMode::Synchronous => Self {
                table,
                lr,
                sender: None,
                worker: None,
                dispatched: 0,
            },
            UpdateMode::Asynchronous => {
                let (sender, receiver) = channel::<UpdateBatch>();
                let worker_table = Arc::clone(&table);
                let worker = std::thread::spawn(move || {
                    let mut applied = 0u64;
                    let mut first_error = None;
                    while let Ok(updates) = receiver.recv() {
                        match worker_table.apply_gradients(&as_gradient_refs(&updates), lr) {
                            Ok(()) => applied += updates.len() as u64,
                            Err(e) => {
                                first_error.get_or_insert(e);
                            }
                        }
                    }
                    (applied, first_error)
                });
                Self {
                    table,
                    lr,
                    sender: Some(sender),
                    worker: Some(worker),
                    dispatched: 0,
                }
            }
        }
    }

    /// Apply (or enqueue) one batch of embedding gradients. Returns the time the
    /// *training thread* spent on it, which is what shows up as a data stall.
    pub fn dispatch(&mut self, updates: UpdateBatch) -> StorageResult<Duration> {
        let start = std::time::Instant::now();
        self.dispatched += updates.len() as u64;
        match &self.sender {
            None => self
                .table
                .apply_gradients(&as_gradient_refs(&updates), self.lr)?,
            Some(sender) => {
                // The send itself is cheap; the updater thread pays the cost.
                let _ = sender.send(updates);
            }
        }
        Ok(start.elapsed())
    }

    /// Total number of embedding updates dispatched.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Wait for all outstanding asynchronous updates and return how many
    /// were applied, or the first error the background updater hit (batches
    /// that failed are not counted; later batches were still attempted).
    pub fn drain(&mut self) -> StorageResult<u64> {
        self.sender.take();
        let Some(worker) = self.worker.take() else {
            return Ok(self.dispatched);
        };
        match worker.join() {
            Ok((applied, None)) => Ok(applied),
            Ok((_, Some(err))) => Err(err),
            Err(_) => Err(StorageError::Io(std::io::Error::other(
                "async update worker panicked",
            ))),
        }
    }
}

impl Drop for UpdateDispatcher {
    fn drop(&mut self) {
        self.sender.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Runtime controller for the look-ahead depth (how many batches ahead the
/// trainers announce keys), replacing the fixed `lookahead_batches: 4`.
///
/// The controller watches the *useful fraction* of completed prefetch work in
/// [`PrefetchStats`]: keys that resulted in a storage-buffer copy are useful;
/// keys that were skipped (already memory-resident, or missing) are wasted
/// work. When most announced keys are
/// skipped, the look-ahead is running too deep — the rows it copies arrive
/// long before they are needed and only evict hot rows from the memory buffer
/// — so the depth shrinks. When nearly every announced key is cold, deeper
/// look-ahead still pays, so the depth grows. Adjustments are clamped to one
/// step per observation inside `[MIN_DEPTH, MAX_DEPTH]`, and observations on
/// windows smaller than a batch's worth of keys are ignored so the controller
/// never reacts to noise.
#[derive(Debug, Clone)]
pub struct AdaptiveLookahead {
    depth: usize,
    adaptive: bool,
    last: PrefetchStats,
}

impl AdaptiveLookahead {
    /// Smallest depth the controller will shrink to.
    pub const MIN_DEPTH: usize = 1;
    /// Largest depth the controller will grow to.
    pub const MAX_DEPTH: usize = 16;
    /// Minimum completed keys between observations before adjusting.
    const MIN_WINDOW: u64 = 64;
    /// Useful fraction below which the depth shrinks.
    const LOW_WATER: f64 = 0.25;
    /// Useful fraction above which the depth grows.
    const HIGH_WATER: f64 = 0.75;

    /// Create a controller starting at `initial_depth` (clamped). With
    /// `adaptive` false the depth never changes — the pre-adaptive fixed
    /// behaviour, kept for deterministic runs.
    pub fn new(initial_depth: usize, adaptive: bool) -> Self {
        Self {
            depth: initial_depth.clamp(Self::MIN_DEPTH, Self::MAX_DEPTH),
            adaptive,
            last: PrefetchStats::default(),
        }
    }

    /// The current look-ahead depth in batches.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Feed the table's cumulative prefetch statistics; returns the (possibly
    /// adjusted) depth. Call this periodically — every few batches — with
    /// `table.prefetch_stats()`.
    pub fn observe(&mut self, stats: PrefetchStats) -> usize {
        if !self.adaptive {
            return self.depth;
        }
        let completed = stats.completed.saturating_sub(self.last.completed);
        if completed < Self::MIN_WINDOW {
            return self.depth;
        }
        let useful = stats.promoted.saturating_sub(self.last.promoted);
        self.last = stats;
        let useful_fraction = useful as f64 / completed as f64;
        if useful_fraction < Self::LOW_WATER {
            self.depth = (self.depth - 1).max(Self::MIN_DEPTH);
        } else if useful_fraction > Self::HIGH_WATER {
            self.depth = (self.depth + 1).min(Self::MAX_DEPTH);
        }
        self.depth
    }
}

/// Issue prefetches for the keys of a future batch according to `mode`.
pub fn issue_prefetch(table: &EmbeddingTable, keys: &[u64], mode: PrefetchMode) {
    match mode {
        PrefetchMode::None => {}
        PrefetchMode::LookAhead => table.lookahead(keys),
    }
}

/// Busy-wait for the configured simulated accelerator compute time.
pub fn simulate_compute(duration: Duration) {
    if duration.is_zero() {
        return;
    }
    let start = std::time::Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlkv::{BackendKind, Mlkv};

    fn table(bound: u32) -> Arc<EmbeddingTable> {
        Mlkv::builder("harness-test")
            .dim(4)
            .staleness_bound(bound)
            .backend(BackendKind::Mlkv)
            .memory_budget(1 << 20)
            .build()
            .unwrap()
            .table()
    }

    #[test]
    fn synchronous_dispatch_applies_immediately() {
        let t = table(u32::MAX);
        t.put_one(1, &[1.0; 4]).unwrap();
        let mut d = UpdateDispatcher::new(Arc::clone(&t), UpdateMode::Synchronous, 0.5);
        d.dispatch(vec![(1, vec![1.0; 4])]).unwrap();
        assert_eq!(t.get_one(1).unwrap(), vec![0.5; 4]);
        assert_eq!(d.dispatched(), 1);
        assert_eq!(d.drain().unwrap(), 1);
    }

    #[test]
    fn asynchronous_dispatch_applies_after_drain() {
        let t = table(u32::MAX);
        t.put_one(2, &[1.0; 4]).unwrap();
        let mut d = UpdateDispatcher::new(Arc::clone(&t), UpdateMode::Asynchronous, 0.5);
        for _ in 0..10 {
            d.dispatch(vec![(2, vec![0.1; 4])]).unwrap();
        }
        let applied = d.drain().unwrap();
        assert_eq!(applied, 10);
        let v = t.get_one(2).unwrap();
        for x in v {
            assert!((x - 0.5).abs() < 1e-5, "{x}");
        }
    }

    /// A store that accepts every read and refuses every write.
    struct ReadOnlyStore(mlkv_storage::MemStore);

    fn refused<T>() -> StorageResult<T> {
        Err(StorageError::Io(std::io::Error::other("injected")))
    }

    impl mlkv_storage::KvStore for ReadOnlyStore {
        fn name(&self) -> &'static str {
            "ReadOnly"
        }
        fn get_traced(&self, key: u64) -> StorageResult<mlkv_storage::kv::ReadResult> {
            self.0.get_traced(key)
        }
        fn put(&self, _: u64, _: &[u8]) -> StorageResult<()> {
            refused()
        }
        fn rmw(&self, _: u64, _: &mlkv_storage::RmwFn) -> StorageResult<Vec<u8>> {
            refused()
        }
        fn delete(&self, _: u64) -> StorageResult<()> {
            refused()
        }
        fn approximate_len(&self) -> usize {
            self.0.approximate_len()
        }
        fn metrics(&self) -> Arc<mlkv_storage::StorageMetrics> {
            self.0.metrics()
        }
        fn flush(&self) -> StorageResult<()> {
            self.0.flush()
        }
    }

    #[test]
    fn asynchronous_apply_failure_surfaces_at_drain() {
        let store = Arc::new(ReadOnlyStore(mlkv_storage::MemStore::new()));
        let t = Arc::new(EmbeddingTable::builder(store).dim(4).build().unwrap());
        let mut d = UpdateDispatcher::new(t, UpdateMode::Asynchronous, 0.5);
        // Dispatch itself cannot see the failure: the updater thread pays it.
        d.dispatch(vec![(1, vec![1.0; 4])]).unwrap();
        d.dispatch(vec![(2, vec![1.0; 4])]).unwrap();
        assert!(matches!(d.drain(), Err(StorageError::Io(_))));
    }

    #[test]
    fn bounded_staleness_throttles_gets_against_async_updates() {
        // With bound 1, a Get of a key with two outstanding (unapplied) Gets must
        // wait for the async updater to catch up; the run must still complete.
        let t = table(1);
        t.put_one(3, &[0.0; 4]).unwrap();
        let mut d = UpdateDispatcher::new(Arc::clone(&t), UpdateMode::Asynchronous, 0.1);
        for _ in 0..20 {
            let _v = t.get_one(3).unwrap();
            d.dispatch(vec![(3, vec![0.01; 4])]).unwrap();
        }
        d.drain().unwrap();
        assert_eq!(t.staleness_of(3), 0);
    }

    #[test]
    fn prefetch_modes_route_to_the_right_destination() {
        let t = table(u32::MAX);
        for k in 0..20u64 {
            t.put_one(k, &[1.0; 4]).unwrap();
        }
        issue_prefetch(
            &t,
            &(10..20u64).collect::<Vec<_>>(),
            PrefetchMode::LookAhead,
        );
        issue_prefetch(&t, &[999], PrefetchMode::None);
        t.wait_for_lookahead();
        let stats = t.prefetch_stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
    }

    #[test]
    fn adaptive_lookahead_shrinks_on_wasted_prefetches_and_grows_on_cold_ones() {
        let mut ctl = AdaptiveLookahead::new(4, true);
        assert_eq!(ctl.depth(), 4);
        // Window too small: no adjustment.
        let mut stats = PrefetchStats {
            submitted: 10,
            completed: 10,
            promoted: 0,
            cached: 0,
            skipped: 10,
        };
        assert_eq!(ctl.observe(stats), 4);
        // Mostly skipped (rows already hot): shrink one step per observation,
        // clamped at MIN_DEPTH.
        for expected in [3, 2, 1, 1, 1] {
            stats.completed += 100;
            stats.skipped += 95;
            stats.promoted += 5;
            assert_eq!(ctl.observe(stats), expected);
        }
        // Mostly cold (every key promoted): grow, clamped at MAX_DEPTH.
        for _ in 0..AdaptiveLookahead::MAX_DEPTH + 2 {
            stats.completed += 100;
            stats.promoted += 100;
            ctl.observe(stats);
        }
        assert_eq!(ctl.depth(), AdaptiveLookahead::MAX_DEPTH);
        // Mid-range hit-rate: hold steady.
        stats.completed += 100;
        stats.promoted += 50;
        stats.skipped += 50;
        assert_eq!(ctl.observe(stats), AdaptiveLookahead::MAX_DEPTH);
    }

    #[test]
    fn non_adaptive_lookahead_keeps_fixed_depth() {
        let mut ctl = AdaptiveLookahead::new(4, false);
        let stats = PrefetchStats {
            submitted: 1000,
            completed: 1000,
            promoted: 0,
            cached: 0,
            skipped: 1000,
        };
        assert_eq!(ctl.observe(stats), 4);
        assert_eq!(AdaptiveLookahead::new(0, true).depth(), 1);
        assert_eq!(AdaptiveLookahead::new(100, true).depth(), 16);
    }

    #[test]
    fn simulated_compute_takes_roughly_the_requested_time() {
        let start = std::time::Instant::now();
        simulate_compute(Duration::from_millis(5));
        assert!(start.elapsed() >= Duration::from_millis(5));
        simulate_compute(Duration::ZERO);
    }
}
