//! Shard-parallel batch execution.
//!
//! Every engine's batched operation (`multi_get` / `multi_rmw` /
//! `write_batch`) decomposes into jobs that touch *disjoint* slices of the
//! store — hash-map shards in `MemStore`, contiguous sorted-key ranges in the
//! FASTER hybrid log, SSTable probe partitions in the LSM tree, leaf-disjoint
//! page groups in the B+tree. [`BatchExecutor`] runs those jobs on a pool of
//! scoped worker threads so a single large `gather` or `apply_gradients`
//! saturates every core instead of 1/Nth of the machine.
//!
//! **The one rule.** This module alone decides whether a batch runs inline or
//! fans out, and `parallelism` is the only worker knob (reads and writes share
//! one executor per engine). A batch of `n` keys fans out to `w` workers only
//! when every worker gets at least [`MIN_KEYS_PER_WORKER`] keys:
//! `w = min(parallelism, jobs, n / MIN_KEYS_PER_WORKER)`, and `w <= 1` runs
//! every job on the calling thread, in job order. So a batch needs at least
//! `2 × MIN_KEYS_PER_WORKER` keys before any thread is spawned. Engines never
//! branch on that themselves: they always build their disjoint jobs (sizing
//! range splits with [`BatchExecutor::planned_workers`], which is 1 for a batch
//! that will run inline, so [`split_sorted`] yields a single range) and call
//! [`BatchExecutor::execute`] once.
//!
//! **Where the constant comes from.** Measured on a 2-core x86-64 host:
//!
//! * a `std::thread::scope` spawn plus join costs 15–16 µs with the host idle
//!   and 35–43 µs while a training run's trainer, applier and look-ahead
//!   threads share it (a ~420-key warm FASTER batch took 118.5 µs for
//!   `multi_get` and 112.3 µs for `multi_rmw` at auto parallelism, against
//!   83.5 µs and 69.5 µs inline);
//! * a warm key costs 0.17 µs (`multi_rmw`) to 0.20 µs (`multi_get`) inline.
//!
//! Those two alone would put break-even near 200 keys per worker, but only if
//! the spawned worker found an idle core. On a loaded host it does not: with
//! the earlier 256-key total cutoff, fanning a 1024- or 4096-key gather or
//! apply out to 2–8 workers gained at most 1.02x, i.e. nothing at 2048 keys
//! per worker; and even on the idle host a warm 16384-key gather split over 2
//! workers (8192 keys each) ran at 0.95–1.05x of inline. Break-even therefore
//! sits above 4096 keys per worker there. At that value no batch of the
//! benchmark's training and serving workloads fans out (gathers and applies
//! there are ≤ 512 keys; populate chunks and fused serving ticks ≤ 4096):
//! fan-out is left to batches of 8192 keys and more, such as a WAL replay.
//! Persistent workers were not built for the same reason — no hot batch
//! would use them.
//!
//! Design points:
//!
//! * **`std::thread::scope` based** — jobs may borrow the caller's stack
//!   (keys, output buffers, the engine itself), so no `'static` bound and no
//!   `unsafe` is needed. Workers are spawned per batch, which the rule above
//!   only allows once a worker's share of the batch outweighs the spawn.
//! * **Work-stealing cursor** — jobs are claimed from a shared atomic cursor,
//!   so skewed job sizes (one hot shard, one huge leaf group) do not idle the
//!   other workers.
//! * **Caller participates** — the calling thread runs jobs too; `parallelism`
//!   worker threads means `parallelism - 1` spawns.
//! * **I/O-friendly workers** — a job's cold reads go through the engine's
//!   [`crate::IoPlanner`]: the job submits its scatter, overlaps whatever CPU
//!   work it has, and only then waits on the completion
//!   ([`crate::PendingRead::wait`]).
//!
//! Correctness contract for engines: jobs must own disjoint key sets (all
//! occurrences of one key go to exactly one job, in batch-occurrence order),
//! so for every batch that completes successfully the per-key observable
//! state is identical for every parallelism level. A mutating batch that
//! *fails* mid-way leaves partial state, and not the same partial state at
//! every level: a job stops at its own first error, but the batch's other
//! jobs still run to completion before the error surfaces, so the more jobs a
//! batch was split into, the more of its writes may have landed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fewest keys a worker must get before a batch fans out to it (see the
/// module docs for the measurements behind the value). A batch of fewer than
/// `2 × MIN_KEYS_PER_WORKER` keys always runs inline.
pub const MIN_KEYS_PER_WORKER: usize = 4096;

/// Number of worker threads the host can usefully run
/// ([`std::thread::available_parallelism`], 1 when unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A worker pool executing disjoint batch jobs across cores.
///
/// The executor itself is tiny (just the resolved parallelism); engines embed
/// one and route their batched operations through [`BatchExecutor::execute`].
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    parallelism: usize,
}

impl Default for BatchExecutor {
    /// An executor sized from [`available_parallelism`].
    fn default() -> Self {
        Self::new(0)
    }
}

impl BatchExecutor {
    /// Create an executor with `parallelism` workers. `0` means "auto": size
    /// from [`available_parallelism`]. `1` runs every batch inline on the
    /// caller, in job order.
    ///
    /// An explicit `parallelism` above the host's core count is honoured, not
    /// capped: for device-bound batches the workers overlap I/O waits, so
    /// more workers than cores still pays (CPU-bound batches, by contrast,
    /// need real cores — pinning a high level on a small host only adds
    /// overhead; leave the knob at `0` to track the host).
    pub fn new(parallelism: usize) -> Self {
        let parallelism = if parallelism == 0 {
            available_parallelism()
        } else {
            parallelism
        };
        Self { parallelism }
    }

    /// The configured worker count.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The one rule (see the module docs): the number of workers that run a
    /// batch of `jobs` jobs covering `total_keys` keys —
    /// `min(parallelism, jobs, total_keys / MIN_KEYS_PER_WORKER)`, at least 1
    /// (inline).
    fn workers_for(&self, jobs: usize, total_keys: usize) -> usize {
        self.parallelism
            .min(jobs)
            .min(total_keys / MIN_KEYS_PER_WORKER)
            .max(1)
    }

    /// Number of workers a batch of `total_keys` keys will get *before* its
    /// job decomposition is known — how many ranges an engine should split
    /// the batch into: 1 for a batch that runs inline, otherwise as many
    /// workers as get [`MIN_KEYS_PER_WORKER`] keys each, up to the configured
    /// parallelism. [`BatchExecutor::execute`] re-clamps to the actual job
    /// count.
    pub fn planned_workers(&self, total_keys: usize) -> usize {
        self.workers_for(self.parallelism, total_keys)
    }

    /// Run `jobs` (each owning a disjoint slice of the batch) and return their
    /// results in job order. `total_keys` is the number of keys the whole
    /// batch covers; a batch too small to give two workers
    /// [`MIN_KEYS_PER_WORKER`] keys each, a single job and `parallelism = 1`
    /// all run inline on the caller, in job order.
    ///
    /// Jobs may borrow from the caller's stack. A panicking job propagates to
    /// the caller once all workers have finished.
    pub fn execute<F, T>(&self, jobs: Vec<F>, total_keys: usize) -> Vec<T>
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let n = jobs.len();
        let workers = self.workers_for(n, total_keys);
        if workers <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let work = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let job = lock_clean(&slots[i]).take().expect("each job claimed once");
            let out = job();
            *lock_clean(&results[i]) = Some(out);
        };
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            work();
        });
        results
            .into_iter()
            .map(|slot| {
                lock_clean(&slot)
                    .take()
                    .expect("every job ran to completion")
            })
            .collect()
    }
}

/// Split a key-sorted position order into at most `parts` contiguous ranges,
/// never separating a run of equal keys: every occurrence of a key lands in
/// exactly one range, so range-parallel execution preserves per-key ordering.
///
/// `order` holds positions into `keys`, pre-sorted by `keys[position]`; this
/// is the partitioning primitive behind the FASTER and LSM range-parallel
/// batch paths.
pub fn split_sorted<'a>(order: &'a [usize], keys: &[u64], parts: usize) -> Vec<&'a [usize]> {
    let chunk = order.len().div_ceil(parts.max(1));
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    while start < order.len() {
        let mut end = (start + chunk).min(order.len());
        while end < order.len() && keys[order[end]] == keys[order[end - 1]] {
            end += 1;
        }
        ranges.push(&order[start..end]);
        start = end;
    }
    ranges
}

/// Lock a mutex, shrugging off poison (a poisoned job slot only arises after a
/// job panic, which `thread::scope` re-raises on the caller anyway).
fn lock_clean<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_when_parallelism_is_one() {
        let exec = BatchExecutor::new(1);
        assert_eq!(exec.workers_for(8, 1 << 20), 1);
        // Inline execution preserves job order side effects.
        let log = Mutex::new(Vec::new());
        let jobs: Vec<_> = (0..4)
            .map(|i| {
                let log = &log;
                move || {
                    lock_clean(log).push(i);
                    i * 10
                }
            })
            .collect();
        let out = exec.execute(jobs, 1 << 20);
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!(*lock_clean(&log), vec![0, 1, 2, 3]);
    }

    #[test]
    fn small_batches_run_inline_even_with_workers() {
        let exec = BatchExecutor::new(8);
        assert_eq!(exec.workers_for(8, 2 * MIN_KEYS_PER_WORKER - 1), 1);
        assert_eq!(exec.workers_for(1, 1 << 20), 1);
        // Every worker gets at least MIN_KEYS_PER_WORKER keys.
        assert_eq!(exec.workers_for(8, 2 * MIN_KEYS_PER_WORKER), 2);
        assert_eq!(exec.workers_for(8, 3 * MIN_KEYS_PER_WORKER - 1), 2);
        assert_eq!(exec.workers_for(8, 3 * MIN_KEYS_PER_WORKER), 3);
        assert_eq!(exec.workers_for(8, 100 * MIN_KEYS_PER_WORKER), 8);
        assert_eq!(exec.workers_for(3, 100 * MIN_KEYS_PER_WORKER), 3);
    }

    #[test]
    fn sub_cutoff_batch_runs_every_job_on_the_callers_thread() {
        let exec = BatchExecutor::new(8);
        let caller = std::thread::current().id();
        let jobs: Vec<_> = (0..16usize)
            .map(|i| move || (i, std::thread::current().id()))
            .collect();
        let out = exec.execute(jobs, 2 * MIN_KEYS_PER_WORKER - 1);
        assert_eq!(out.len(), 16);
        for (slot, (i, thread)) in out.into_iter().enumerate() {
            assert_eq!(i, slot, "inline jobs run in job order");
            assert_eq!(thread, caller, "job {i} left the caller's thread");
        }
        // At two workers' worth of keys the same batch does fan out (some job
        // runs elsewhere only if a spawned worker wins the cursor, so just pin
        // the plan).
        assert_eq!(exec.planned_workers(2 * MIN_KEYS_PER_WORKER - 1), 1);
        assert_eq!(exec.planned_workers(2 * MIN_KEYS_PER_WORKER), 2);
        assert_eq!(exec.planned_workers(8 * MIN_KEYS_PER_WORKER), 8);
        assert_eq!(BatchExecutor::new(2).planned_workers(1 << 20), 2);
    }

    #[test]
    fn a_fanned_out_batch_runs_on_more_than_one_thread() {
        // Each job waits (up to a deadline) for the other to start, which
        // only an inline run, one job after the other, cannot satisfy.
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let exec = BatchExecutor::new(2);
        let started = [AtomicBool::new(false), AtomicBool::new(false)];
        let jobs: Vec<_> = (0..2)
            .map(|i| {
                let started = &started;
                move || {
                    started[i].store(true, Ordering::SeqCst);
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while !started[1 - i].load(Ordering::SeqCst) && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    started[1 - i].load(Ordering::SeqCst)
                }
            })
            .collect();
        let overlapped = exec.execute(jobs, 2 * MIN_KEYS_PER_WORKER);
        assert_eq!(overlapped, vec![true, true]);
    }

    #[test]
    fn auto_sizing_uses_available_parallelism() {
        let exec = BatchExecutor::new(0);
        assert_eq!(exec.parallelism(), available_parallelism());
        assert!(BatchExecutor::default().parallelism() >= 1);
    }

    #[test]
    fn parallel_execution_returns_results_in_job_order() {
        let exec = BatchExecutor::new(4);
        let jobs: Vec<_> = (0..32usize).map(|i| move || i * i).collect();
        let out = exec.execute(jobs, 1 << 20);
        assert_eq!(out, (0..32usize).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let exec = BatchExecutor::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let chunks: Vec<&[u64]> = input.chunks(100).collect();
        let jobs: Vec<_> = chunks
            .iter()
            .map(|chunk| move || chunk.iter().sum::<u64>())
            .collect();
        let sums = exec.execute(jobs, input.len());
        assert_eq!(sums.iter().sum::<u64>(), input.iter().sum::<u64>());
    }

    #[test]
    fn split_sorted_keeps_duplicate_runs_together() {
        let keys = vec![5u64, 1, 1, 1, 9, 9, 2, 7];
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        for parts in 1..=8 {
            let ranges = split_sorted(&order, &keys, parts);
            assert!(ranges.len() <= parts);
            // Every position appears exactly once, in sorted-order sequence.
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.iter().copied()).collect();
            assert_eq!(flat, order, "parts={parts}");
            // No key spans two ranges.
            for pair in ranges.windows(2) {
                let last = keys[*pair[0].last().unwrap()];
                let first = keys[*pair[1].first().unwrap()];
                assert_ne!(last, first, "parts={parts}");
            }
        }
        assert!(split_sorted(&[], &keys, 4).is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let exec = BatchExecutor::new(8);
        let counter = AtomicU64::new(0);
        let jobs: Vec<_> = (0..257)
            .map(|_| {
                let counter = &counter;
                move || counter.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        let out = exec.execute(jobs, 1 << 20);
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }
}
