//! End-to-end training harness: drives the paper's three task families (DLRM
//! CTR prediction, KGE link prediction, GNN node classification) plus the YCSB
//! micro-workload over an MLKV [`mlkv::EmbeddingTable`] backed by any of the
//! workspace's storage engines.
//!
//! The harness reproduces the *execution structure* the paper measures:
//!
//! * synchronous (BSP), bounded-stale (SSP) and fully asynchronous (ASP)
//!   embedding updates, selected by the table's staleness bound and the
//!   [`harness::UpdateMode`];
//! * look-ahead prefetching of future batches' keys, or none;
//! * a latency breakdown into embedding access / forward / backward, throughput
//!   in samples per second, convergence-vs-time series and an approximate
//!   energy-per-batch estimate (Figures 2, 6, 7, 8, 9, 11).

pub mod dlrm;
pub mod energy;
pub mod gnn;
pub mod harness;
pub mod kge;
pub mod report;
pub mod ycsb;

pub use dlrm::{DlrmModelKind, DlrmTrainer, DlrmTrainerConfig};
pub use energy::EnergyModel;
pub use gnn::{GnnModelKind, GnnTrainer, GnnTrainerConfig};
pub use harness::{PrefetchMode, TrainerOptions, UpdateMode};
pub use kge::{KgeModelKind, KgeTrainer, KgeTrainerConfig};
pub use report::{LatencyBreakdown, TrainingReport};
pub use ycsb::{run_ycsb, YcsbResult, YcsbRunConfig};
