//! Backend-wiring smoke test: every [`BackendKind`] must open through
//! [`open_store`] and serve reads/writes both at the raw key-value layer and
//! through an [`EmbeddingTable`] built on top of it. Catches factory or
//! re-export regressions fast, before the heavier integration suites run.

use mlkv::{open_store, BackendKind, Mlkv, StoreConfig};

#[test]
fn every_backend_opens_and_round_trips_raw_bytes() {
    for kind in BackendKind::ALL {
        let store = open_store(
            kind,
            StoreConfig::in_memory()
                .with_memory_budget(1 << 20)
                .with_page_size(4 << 10)
                .with_index_buckets(256),
        )
        .unwrap_or_else(|e| panic!("{}: open_store failed: {e:?}", kind.name()));

        store.put(7, &[1, 2, 3, 4]).unwrap();
        assert_eq!(store.get(7).unwrap(), vec![1, 2, 3, 4], "{}", kind.name());
        store.put(7, &[9, 9]).unwrap();
        assert_eq!(store.get(7).unwrap(), vec![9, 9], "{}", kind.name());
        assert!(
            store.get(8).unwrap_err().is_not_found(),
            "{}: missing key must report not-found",
            kind.name()
        );
        store.delete(7).unwrap();
        assert!(store.get(7).unwrap_err().is_not_found(), "{}", kind.name());
    }
}

#[test]
fn every_backend_serves_the_batch_interface() {
    for kind in BackendKind::ALL {
        let store = open_store(
            kind,
            StoreConfig::in_memory()
                .with_memory_budget(1 << 20)
                .with_page_size(4 << 10)
                .with_index_buckets(256),
        )
        .unwrap();

        let mut batch = mlkv::WriteBatch::new();
        for k in 0..32u64 {
            batch.put(k, vec![k as u8; 8]);
        }
        store.write_batch(&batch).unwrap();

        let keys: Vec<u64> = vec![31, 0, 500, 7, 7];
        let results = store.multi_get(&keys);
        assert_eq!(
            results[0].as_deref().unwrap(),
            &[31u8; 8],
            "{}",
            kind.name()
        );
        assert_eq!(results[1].as_deref().unwrap(), &[0u8; 8], "{}", kind.name());
        assert!(
            results[2].as_ref().unwrap_err().is_not_found(),
            "{}",
            kind.name()
        );
        assert_eq!(
            results[3].as_deref().unwrap(),
            results[4].as_deref().unwrap(),
            "{}",
            kind.name()
        );

        store
            .multi_rmw(&[1, 1], &|_, cur| {
                let mut v = cur.map(<[u8]>::to_vec).unwrap_or_default();
                v.push(9);
                v
            })
            .unwrap();
        assert_eq!(store.get(1).unwrap().len(), 10, "{}", kind.name());

        assert!(store.exists(0).unwrap(), "{}", kind.name());
        assert!(!store.exists(10_000).unwrap(), "{}", kind.name());
    }
}

#[test]
fn every_backend_round_trips_through_an_embedding_table() {
    for kind in BackendKind::ALL {
        let model = Mlkv::builder("smoke")
            .dim(8)
            .backend(kind)
            .staleness_bound(u32::MAX)
            .memory_budget(1 << 20)
            .build()
            .unwrap_or_else(|e| panic!("{}: build failed: {e:?}", kind.name()));
        let table = model.table();

        let value = [0.25f32; 8];
        table.put_one(42, &value).unwrap();
        assert_eq!(table.get_one(42).unwrap(), value, "{}", kind.name());

        // A never-written key is served from the deterministic initializer
        // (embedding tables are dense; see `TableOptions`).
        let initialized = table.get_one(1_000).unwrap();
        assert_eq!(initialized.len(), 8, "{}", kind.name());

        // Batch-first surface: gather + apply_gradients.
        let rows = table.gather(&[42, 42, 1_000]).unwrap();
        assert_eq!(rows[0], value, "{}", kind.name());
        assert_eq!(rows[1], value, "{}", kind.name());
        table.apply_gradients(&[(42, &[0.25; 8][..])], 1.0).unwrap();
        assert_eq!(table.get_one(42).unwrap(), [0.0; 8], "{}", kind.name());
    }
}

/// One `WriteBatch` mixing puts and deletes applies them in occurrence order
/// on every engine — key 1 is put then deleted, key 2 (live before the
/// batch) deleted then put — and the disk engines replay that order on
/// reopen, from their logs and again from their flushed files.
#[test]
fn every_backend_applies_a_mixed_write_batch_in_occurrence_order() {
    let check = |store: &dyn mlkv::KvStore, cell: &str| {
        let got = store.multi_get(&[1, 2, 3]);
        assert!(got[0].as_ref().unwrap_err().is_not_found(), "{cell}: key 1");
        assert_eq!(got[1].as_deref().unwrap(), &[2, 2], "{cell}: key 2");
        assert_eq!(got[2].as_deref().unwrap(), &[3], "{cell}: key 3");
        assert!(!store.exists(1).unwrap(), "{cell}: key 1");
        assert!(store.exists(2).unwrap(), "{cell}: key 2");
    };
    for kind in BackendKind::ALL {
        let dir = std::env::temp_dir().join(format!(
            "mlkv-smoke-mixed-{}-{}",
            kind.name(),
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let config = if kind == BackendKind::InMemory {
            StoreConfig::in_memory()
        } else {
            StoreConfig::on_disk(&dir)
                .with_durability(mlkv::DurabilityMode::GroupCommit { window: 1 << 20 })
        }
        .with_memory_budget(1 << 20)
        .with_page_size(4 << 10)
        .with_index_buckets(256);
        let store = open_store(kind, config.clone()).unwrap();
        store.put(2, &[2]).unwrap();

        let mut batch = mlkv::WriteBatch::new();
        batch.put(1, vec![1]);
        batch.delete(2);
        batch.delete(1);
        batch.put(2, vec![2, 2]);
        batch.put(3, vec![3]);
        store.write_batch(&batch).unwrap();
        check(&*store, kind.name());
        if kind == BackendKind::InMemory {
            continue;
        }

        drop(store);
        let store = open_store(kind, config.clone()).unwrap();
        check(&*store, &format!("{} after a reopen", kind.name()));
        store.flush().unwrap();
        drop(store);
        let store = open_store(kind, config).unwrap();
        check(
            &*store,
            &format!("{} after a flush and a reopen", kind.name()),
        );
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
