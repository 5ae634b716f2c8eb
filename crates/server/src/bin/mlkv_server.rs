//! `mlkv-server` — serve an embedding table over TCP.
//!
//! ```text
//! mlkv-server --addr 127.0.0.1:7878 --backend faster --dim 64 \
//!     --durability group:4096 --dir /tmp/mlkv-serve
//! ```
//!
//! The process runs until a client sends a `Shutdown` frame (see
//! `Client::shutdown_server`); it installs no signal handlers, so SIGINT or
//! SIGTERM end it without the drain. Shutdown drains admitted work and
//! flushes the table. The `MLKV_PARALLELISM`, `MLKV_DURABILITY`, and
//! `MLKV_REPLICATION_MODE` environment overrides apply on top of the flags; `--replicate-from` starts
//! the process as a replica of the given primary. Dispatch has no flags: the
//! batcher runs whatever is queued the moment its previous tick returns.

use std::process::ExitCode;
use std::time::Duration;

use mlkv::BackendKind;
use mlkv_server::{ReplicationMode, ServerBuilder};
use mlkv_storage::{DurabilityMode, StoreConfig};

fn usage() -> ! {
    eprintln!(
        "usage: mlkv-server [--addr HOST:PORT] [--backend NAME] [--dim N]\n\
         \x20                 [--memory-budget-mb N] [--parallelism N]\n\
         \x20                 [--durability none|buffered|group:<records>]\n\
         \x20                 [--dir PATH] [--staleness-bound N] [--seed N]\n\
         \x20                 [--queue-capacity N] [--dedup-slots N]\n\
         \x20                 [--probe-interval-ms N] [--retry-after-ms N]\n\
         \x20                 [--replicate-from HOST:PORT]\n\
         \x20                 [--replication-mode async|semisync[:acks]]\n\
         backends: {}",
        BackendKind::ALL
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_backend(name: &str) -> Option<BackendKind> {
    BackendKind::ALL
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut builder_backend = BackendKind::Mlkv;
    let mut dim = 64usize;
    let mut store_config = StoreConfig::in_memory();
    let mut staleness_bound = 0u32;
    let mut seed = 0x5eedu64;
    let mut queue_capacity: Option<usize> = None;
    let mut dedup_slots: Option<usize> = None;
    let mut probe_interval_ms: Option<u64> = None;
    let mut retry_after_ms: Option<u64> = None;
    let mut replicate_from: Option<String> = None;
    let mut replication_mode: Option<ReplicationMode> = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = value().to_string(),
            "--backend" => {
                let name = value();
                builder_backend = parse_backend(name).unwrap_or_else(|| {
                    eprintln!("unknown backend: {name}");
                    usage()
                });
            }
            "--dim" => dim = value().parse().unwrap_or_else(|_| usage()),
            "--memory-budget-mb" => {
                let mb: usize = value().parse().unwrap_or_else(|_| usage());
                store_config.memory_budget = mb << 20;
            }
            "--parallelism" => {
                store_config.parallelism = value().parse().unwrap_or_else(|_| usage())
            }
            "--durability" => {
                let spec = value();
                store_config.durability = DurabilityMode::parse(spec).unwrap_or_else(|| {
                    eprintln!("bad durability spec: {spec}");
                    usage()
                });
            }
            "--dir" => store_config.dir = Some(value().into()),
            "--staleness-bound" => staleness_bound = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            "--queue-capacity" => {
                queue_capacity = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--dedup-slots" => dedup_slots = Some(value().parse().unwrap_or_else(|_| usage())),
            "--probe-interval-ms" => {
                probe_interval_ms = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--retry-after-ms" => {
                retry_after_ms = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--replicate-from" => replicate_from = Some(value().to_string()),
            "--replication-mode" => {
                let spec = value();
                replication_mode = Some(ReplicationMode::parse(spec).unwrap_or_else(|| {
                    eprintln!("bad replication mode: {spec}");
                    usage()
                }));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    let mut builder = ServerBuilder::new(builder_backend, dim)
        .staleness_bound(staleness_bound)
        .seed(seed)
        .store_config(store_config);
    if let Some(c) = queue_capacity {
        builder = builder.queue_capacity(c);
    }
    if let Some(n) = dedup_slots {
        builder = builder.dedup_slots(n);
    }
    if let Some(ms) = probe_interval_ms {
        builder = builder.probe_interval(Duration::from_millis(ms));
    }
    if let Some(ms) = retry_after_ms {
        builder = builder.unavailable_retry_after_ms(ms);
    }
    if let Some(primary) = replicate_from {
        builder = builder.replicate_from(primary);
    }
    if let Some(mode) = replication_mode {
        builder = builder.replication_mode(mode);
    }

    let handle = match builder.serve(&addr) {
        Ok(h) => h,
        Err(err) => {
            eprintln!("mlkv-server: failed to start on {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "mlkv-server: serving {} (dim {dim}) on {}",
        builder_backend.name(),
        handle.local_addr()
    );
    match handle.join() {
        Ok(()) => {
            eprintln!("mlkv-server: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("mlkv-server: shutdown error: {err}");
            ExitCode::FAILURE
        }
    }
}
