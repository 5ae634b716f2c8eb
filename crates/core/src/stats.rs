//! Table-level operation statistics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Point-in-time copy of [`TableStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableStatsSnapshot {
    /// Embedding vectors fetched through `Get`.
    pub gets: u64,
    /// Embedding vectors written through `Put`/`Rmw`.
    pub puts: u64,
    /// Always 0: every Get is served by the storage engine. Kept until the
    /// benchmark drops its application-cache hit-ratio metric.
    pub cache_hits: u64,
    /// Keys lazily initialised because they had never been written.
    pub initialised: u64,
    /// Nanoseconds spent inside `Get` calls (storage + staleness wait).
    pub get_ns: u64,
    /// Nanoseconds spent inside `Put`/`Rmw` calls.
    pub put_ns: u64,
}

/// Atomic operation counters kept by an [`crate::EmbeddingTable`].
#[derive(Debug, Default)]
pub struct TableStats {
    gets: AtomicU64,
    puts: AtomicU64,
    initialised: AtomicU64,
    get_ns: AtomicU64,
    put_ns: AtomicU64,
}

impl TableStats {
    /// Create zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_get(&self, n: u64, ns: u64) {
        self.gets.fetch_add(n, Ordering::Relaxed);
        self.get_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn record_put(&self, n: u64, ns: u64) {
        self.puts.fetch_add(n, Ordering::Relaxed);
        self.put_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn record_init(&self) {
        self.initialised.fetch_add(1, Ordering::Relaxed);
    }

    /// Take a snapshot of all counters.
    pub fn snapshot(&self) -> TableStatsSnapshot {
        TableStatsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            cache_hits: 0,
            initialised: self.initialised.load(Ordering::Relaxed),
            get_ns: self.get_ns.load(Ordering::Relaxed),
            put_ns: self.put_ns.load(Ordering::Relaxed),
        }
    }
}

impl TableStatsSnapshot {
    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn delta(&self, earlier: &TableStatsSnapshot) -> TableStatsSnapshot {
        TableStatsSnapshot {
            gets: self.gets - earlier.gets,
            puts: self.puts - earlier.puts,
            cache_hits: 0,
            initialised: self.initialised - earlier.initialised,
            get_ns: self.get_ns - earlier.get_ns,
            put_ns: self.put_ns - earlier.put_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_delta() {
        let stats = TableStats::new();
        stats.record_get(10, 1000);
        stats.record_put(5, 500);
        stats.record_init();
        let first = stats.snapshot();
        assert_eq!(first.gets, 10);
        assert_eq!(first.puts, 5);
        assert_eq!(first.initialised, 1);
        stats.record_get(2, 100);
        let second = stats.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.gets, 2);
        assert_eq!(d.get_ns, 100);
        assert_eq!(d.puts, 0);
    }
}
