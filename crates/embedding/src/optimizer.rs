//! Optimizers for dense parameters (the neural network weights) and helpers for
//! sparse embedding updates.
//!
//! The embedding-side updates are deliberately simple functions over `&mut [f32]`
//! so that they can be applied inside `EmbeddingTable::rmw_one` closures (which
//! must be `Fn(&mut Vec<f32>) + Sync`: the engine may run them on a
//! batch-executor worker) — the storage framework does not need to know which
//! optimizer the application uses, matching the paper's
//! `Put(keys, values + emb_optimizer(gradients))` pattern.

use std::collections::HashMap;

/// A dense-parameter optimizer updating a flat `f32` parameter vector.
pub trait DenseOptimizer {
    /// Apply one update step given the gradient of the same shape.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);

    /// The optimizer's learning rate.
    fn learning_rate(&self) -> f32;
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Create an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }
}

impl DenseOptimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        for (p, g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adagrad with per-coordinate accumulators (the standard choice for sparse
/// embedding training).
#[derive(Debug, Clone)]
pub struct Adagrad {
    /// Learning rate.
    pub lr: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    accumulators: Vec<f32>,
}

impl Adagrad {
    /// Create an Adagrad optimizer for a parameter vector of length `len`.
    pub fn new(lr: f32, len: usize) -> Self {
        Self {
            lr,
            eps: 1e-8,
            accumulators: vec![0.0; len],
        }
    }
}

impl DenseOptimizer for Adagrad {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        assert_eq!(params.len(), self.accumulators.len());
        for ((p, g), acc) in params.iter_mut().zip(grads).zip(&mut self.accumulators) {
            *acc += g * g;
            *p -= self.lr * g / (acc.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam optimizer.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Create an Adam optimizer for a parameter vector of length `len`.
    pub fn new(lr: f32, len: usize) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }
}

impl DenseOptimizer for Adam {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len());
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grads[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grads[i] * grads[i];
            let m_hat = self.m[i] / bias1;
            let v_hat = self.v[i] / bias2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Per-key Adagrad state for sparse embedding updates. The trainer keeps one of
/// these next to the embedding table and applies updates inside RMW closures.
#[derive(Debug, Default)]
pub struct SparseAdagrad {
    /// Learning rate.
    pub lr: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    state: HashMap<u64, Vec<f32>>,
}

impl SparseAdagrad {
    /// Create a sparse Adagrad optimizer.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }

    /// Update the embedding of `key` in place given its gradient.
    pub fn update(&mut self, key: u64, embedding: &mut [f32], grad: &[f32]) {
        assert_eq!(embedding.len(), grad.len());
        let acc = self
            .state
            .entry(key)
            .or_insert_with(|| vec![0.0; embedding.len()]);
        for ((p, g), a) in embedding.iter_mut().zip(grad).zip(acc.iter_mut()) {
            *a += g * g;
            *p -= self.lr * g / (a.sqrt() + self.eps);
        }
    }

    /// Number of keys with optimizer state.
    pub fn tracked_keys(&self) -> usize {
        self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_converges(opt: &mut dyn DenseOptimizer, steps: usize) -> f32 {
        // Minimise f(x) = sum x_i^2 from x = 1.
        let mut params = vec![1.0f32; 4];
        for _ in 0..steps {
            let grads: Vec<f32> = params.iter().map(|x| 2.0 * x).collect();
            opt.step(&mut params, &grads);
        }
        params.iter().map(|x| x * x).sum()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1);
        assert!(quadratic_converges(&mut opt, 100) < 1e-6);
        assert_eq!(opt.learning_rate(), 0.1);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let mut opt = Adagrad::new(0.5, 4);
        assert!(quadratic_converges(&mut opt, 300) < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.05, 4);
        assert!(quadratic_converges(&mut opt, 500) < 1e-3);
    }

    #[test]
    fn sgd_step_is_exact() {
        let mut opt = Sgd::new(0.5);
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[0.2, -0.4]);
        assert_eq!(p, vec![0.9, 2.2]);
    }

    #[test]
    fn adagrad_scales_by_accumulated_gradient() {
        let mut opt = Adagrad::new(1.0, 1);
        let mut p = vec![0.0];
        opt.step(&mut p, &[1.0]);
        // First step: -1 / sqrt(1) = -1.
        assert!((p[0] + 1.0).abs() < 1e-5);
        opt.step(&mut p, &[1.0]);
        // Second step: -1 / sqrt(2).
        assert!((p[0] + 1.0 + 1.0 / 2.0f32.sqrt()).abs() < 1e-4);
    }

    #[test]
    fn sparse_adagrad_tracks_per_key_state() {
        let mut opt = SparseAdagrad::new(1.0);
        let mut emb_a = vec![0.0f32; 2];
        let mut emb_b = vec![0.0f32; 2];
        opt.update(1, &mut emb_a, &[1.0, 1.0]);
        opt.update(1, &mut emb_a, &[1.0, 1.0]);
        opt.update(2, &mut emb_b, &[1.0, 1.0]);
        // Key 2 saw only one update, so its step is larger than key 1's second step.
        assert!(emb_b[0].abs() > (emb_a[0] + 1.0).abs());
        assert_eq!(opt.tracked_keys(), 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![0.0; 2];
        opt.step(&mut p, &[1.0]);
    }
}
