//! Embedding-model layer: the neural networks, losses and quality metrics the
//! paper's three task families need.
//!
//! The paper trains its models with PyTorch on GPUs; this crate provides CPU
//! implementations with manual backpropagation that exercise the same
//! *storage-facing* behaviour — dense-feature networks consuming embedding
//! vectors fetched from MLKV and producing gradients that flow back into the
//! embedding table:
//!
//! * CTR / DLRM models: [`nn::Mlp`] (the paper's FFNN) and [`nn::DeepCross`]
//!   (DCN).
//! * Knowledge-graph embedding models: [`kge::DistMult`] and [`kge::ComplEx`].
//! * Graph neural networks: [`gnn::GraphSage`] and [`gnn::Gat`].
//! * Metrics: [`metrics::auc`], [`metrics::accuracy`], [`metrics::hits_at_k`].

pub mod gnn;
pub mod kge;
pub mod loss;
pub mod metrics;
pub mod nn;
pub mod tensor;

pub use gnn::{Gat, GraphSage};
pub use kge::{ComplEx, DistMult, KgeModel};
pub use loss::{bce_with_logits, bce_with_logits_grad, softmax_cross_entropy};
pub use metrics::{accuracy, auc, hits_at_k};
pub use nn::{DeepCross, Mlp};
pub use tensor::Matrix;
