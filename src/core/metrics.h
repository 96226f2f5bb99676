// Evaluation metrics used in the paper's experiments, plus the ranking /
// classification metrics of the objective layer (NDCG@k, AUC).
#pragma once

#include <cstdint>
#include <span>

namespace gbdt {

/// Root mean squared error between predictions and labels.
[[nodiscard]] double rmse(std::span<const double> pred,
                          std::span<const float> label);

/// Mean binary cross-entropy of probabilities `prob` against labels in
/// [0, 1]: -(y log p + (1 - y) log(1 - p)).  Probabilities are clamped to
/// [1e-15, 1 - 1e-15] so a confident miss costs a finite amount.
[[nodiscard]] double logloss(std::span<const double> prob,
                             std::span<const float> label);

/// Binary classification error rate with a 0.5 threshold on predictions.
[[nodiscard]] double error_rate(std::span<const double> pred,
                                std::span<const float> label);

/// Mean NDCG@k over query groups delimited by `query_offsets` (size
/// n_queries + 1, covering [0, n)).  Documents are ranked by score
/// descending, ties broken by the lower index (deterministic); gains are
/// 2^label - 1.  A query whose ideal DCG is zero (all labels zero)
/// contributes a perfect 1.0.
[[nodiscard]] double ndcg_at_k(std::span<const double> pred,
                               std::span<const float> label,
                               std::span<const std::int64_t> query_offsets,
                               int k);

/// Area under the ROC curve of scores against binary labels (label >= 0.5 is
/// positive), with the standard average-rank treatment of tied scores.
/// Degenerate inputs (all-positive or all-negative labels) return 0.5.
[[nodiscard]] double auc(std::span<const double> pred,
                         std::span<const float> label);

}  // namespace gbdt
