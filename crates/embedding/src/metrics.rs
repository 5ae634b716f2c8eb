//! Model-quality metrics reported in the paper's evaluation: AUC (CTR tasks),
//! accuracy (GNN node classification) and Hits@k (KGE link prediction).

/// Area under the ROC curve computed from `(score, label)` pairs by the
/// rank-sum (Mann–Whitney U) formulation. Ties receive average ranks. Returns
/// 0.5 when only one class is present.
pub fn auc(scores: &[f32], labels: &[f32]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let n = scores.len();
    if n == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Average ranks over tied scores.
    let mut ranks = vec![0.0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for k in i..=j {
            ranks[order[k]] = avg_rank;
        }
        i = j + 1;
    }
    let num_pos = labels.iter().filter(|&&l| l > 0.5).count();
    let num_neg = n - num_pos;
    if num_pos == 0 || num_neg == 0 {
        return 0.5;
    }
    let rank_sum_pos: f64 = labels
        .iter()
        .enumerate()
        .filter(|(_, &l)| l > 0.5)
        .map(|(i, _)| ranks[i])
        .sum();
    (rank_sum_pos - num_pos as f64 * (num_pos as f64 + 1.0) / 2.0)
        / (num_pos as f64 * num_neg as f64)
}

/// Classification accuracy from predicted and true class indices.
pub fn accuracy(predicted: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(predicted.len(), truth.len());
    if predicted.is_empty() {
        return 0.0;
    }
    predicted.iter().zip(truth).filter(|(p, t)| p == t).count() as f64 / predicted.len() as f64
}

/// Hits@k: fraction of queries whose true candidate ranks within the top `k`.
/// Each query provides the score of the true candidate and the scores of the
/// negative candidates.
pub fn hits_at_k(true_scores: &[f32], negative_scores: &[Vec<f32>], k: usize) -> f64 {
    assert_eq!(true_scores.len(), negative_scores.len());
    if true_scores.is_empty() {
        return 0.0;
    }
    let hits = true_scores
        .iter()
        .zip(negative_scores)
        .filter(|(t, negs)| {
            let better = negs.iter().filter(|n| *n > t).count();
            better < k
        })
        .count();
    hits as f64 / true_scores.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_and_inverted_and_random() {
        let labels = vec![0.0, 0.0, 1.0, 1.0];
        assert!((auc(&[0.1, 0.2, 0.8, 0.9], &labels) - 1.0).abs() < 1e-9);
        assert!((auc(&[0.9, 0.8, 0.2, 0.1], &labels) - 0.0).abs() < 1e-9);
        // All scores identical: 0.5 by tie handling.
        assert!((auc(&[0.5, 0.5, 0.5, 0.5], &labels) - 0.5).abs() < 1e-9);
        // Single class present.
        assert_eq!(auc(&[0.1, 0.9], &[1.0, 1.0]), 0.5);
        assert_eq!(auc(&[], &[]), 0.5);
    }

    #[test]
    fn auc_partial_ordering() {
        // One inversion among 2x2 pairs => AUC = 3/4.
        let scores = vec![0.4, 0.6, 0.5, 0.9];
        let labels = vec![0.0, 0.0, 1.0, 1.0];
        assert!((auc(&scores, &labels) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn hits_at_k_counts_queries_ranked_within_k() {
        // Query 1: true score beats all negatives (rank 1).
        // Query 2: two negatives beat it (rank 3).
        let true_scores = vec![0.9, 0.5];
        let negs = vec![vec![0.1, 0.2, 0.3], vec![0.8, 0.7, 0.3]];
        assert_eq!(hits_at_k(&true_scores, &negs, 1), 0.5);
        assert_eq!(hits_at_k(&true_scores, &negs, 3), 1.0);
        assert_eq!(hits_at_k(&[], &[], 5), 0.0);
    }
}
