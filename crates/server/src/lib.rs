//! Embedding-serving front end for the MLKV reproduction.
//!
//! MLKV's engine is batch-first: one `gather` over many keys amortises index
//! probes, cold-path I/O, and executor dispatch. A serving tier talking to it
//! one request at a time throws that away. This crate restores it across
//! clients:
//!
//! * [`protocol`] — a length-prefixed little-endian binary protocol over TCP
//!   carrying `gather` / `apply_gradients` / `ping` / `shutdown` frames, each
//!   request with an id and a microsecond deadline budget;
//! * [`queue::AdmissionQueue`] — a bounded queue where deadline-expired work
//!   is rejected with [`mlkv_storage::StorageError::DeadlineExceeded`] and
//!   overflow is shed with [`mlkv_storage::StorageError::Overloaded`];
//! * [`batcher::Batcher`] — one thread with one dispatch rule: the moment a
//!   tick returns it takes whatever is queued (it waits only on an empty
//!   queue, never on a timer) and issues a single fused `multi_get` /
//!   `multi_rmw`-backed table call per same-kind run, scattering rows back to
//!   the originating connections — a lone request pays per-request latency,
//!   and batches form from the arrivals during a busy engine, untuned;
//! * [`server::ServerBuilder`] / [`server::ServerHandle`] — the TCP listener
//!   over a store opened from one [`mlkv_storage::StoreConfig`], with
//!   graceful shutdown that drains admitted work and flushes through the WAL
//!   path;
//! * [`client::Client`] — a blocking client that surfaces server rejections
//!   as the same typed errors, with deadline-budgeted retries, automatic
//!   reconnect, and idempotent sessions ([`client::ClientOptions`]).
//!
//! The serving path is fault tolerant end to end:
//!
//! * [`dedup`] — exactly-once mutations: per-session dedup window plus
//!   durable markers riding the same fused batch as the gradients they
//!   acknowledge, recovered from the store on restart;
//! * [`health`] — `Serving → Degraded(read-only) → Serving` degradation on
//!   write-path faults, with probe-driven recovery and a `Draining` terminal
//!   state for shutdown;
//! * [`chaos`] — a deterministic chaos proxy severing and delaying
//!   connections at scripted chunk ordinals, for crash/retry sweeps;
//! * [`repl`] — a replicated tier on the shared WAL framing: a primary
//!   streams committed WAL groups to replicas over the same wire protocol
//!   (snapshot catch-up included), [`repl::ReplicationMode::SemiSync`] gates
//!   acknowledgements on replica acks, and
//!   [`server::ServerHandle::promote`] fails over to a replica with the
//!   dedup windows rebuilt from durable markers — zero acked loss, zero
//!   double-apply across the switch.

pub mod batcher;
pub mod chaos;
pub mod client;
pub mod dedup;
pub mod health;
pub mod protocol;
pub mod queue;
pub mod repl;
pub mod server;

pub use batcher::{Batcher, MAX_TICK_REQUESTS};
pub use chaos::{ChaosProxy, ChaosScript};
pub use client::{Client, ClientOptions, ClientStats};
pub use dedup::{DedupWindow, PROBE_KEY, RESERVED_KEY_BASE};
pub use health::{Health, HealthState, Role};
pub use protocol::{
    decode_error, encode_error, ErrorCode, FrameError, Request, Response, MAX_FRAME_BYTES,
};
pub use queue::{AdmissionQueue, Pending, Work};
pub use repl::{ReplicationClient, ReplicationHub, ReplicationMode};
pub use server::{ServerBuilder, ServerHandle, DEFAULT_QUEUE_CAPACITY};
