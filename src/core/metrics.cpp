#include "core/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <vector>

namespace gbdt {

double rmse(std::span<const double> pred, std::span<const float> label) {
  assert(pred.size() == label.size());
  if (pred.empty()) return 0.0;
  double se = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - static_cast<double>(label[i]);
    se += d * d;
  }
  return std::sqrt(se / static_cast<double>(pred.size()));
}

double logloss(std::span<const double> prob, std::span<const float> label) {
  assert(prob.size() == label.size());
  if (prob.empty()) return 0.0;
  constexpr double kEps = 1e-15;
  double sum = 0.0;
  for (std::size_t i = 0; i < prob.size(); ++i) {
    const double p = std::clamp(prob[i], kEps, 1.0 - kEps);
    const double y = static_cast<double>(label[i]);
    sum -= y * std::log(p) + (1.0 - y) * std::log(1.0 - p);
  }
  return sum / static_cast<double>(prob.size());
}

double error_rate(std::span<const double> pred, std::span<const float> label) {
  assert(pred.size() == label.size());
  if (pred.empty()) return 0.0;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const bool positive = pred[i] >= 0.5;
    wrong += positive != (label[i] >= 0.5f);
  }
  return static_cast<double>(wrong) / static_cast<double>(pred.size());
}

double ndcg_at_k(std::span<const double> pred, std::span<const float> label,
                 std::span<const std::int64_t> query_offsets, int k) {
  assert(pred.size() == label.size());
  assert(query_offsets.size() >= 2);
  assert(k >= 1);
  const std::size_t n_queries = query_offsets.size() - 1;
  double sum = 0.0;
  for (std::size_t q = 0; q < n_queries; ++q) {
    const std::int64_t lo = query_offsets[q];
    const std::int64_t hi = query_offsets[q + 1];
    const std::int64_t m = hi - lo;
    std::vector<std::int64_t> order(static_cast<std::size_t>(m));
    std::iota(order.begin(), order.end(), lo);
    std::sort(order.begin(), order.end(),
              [&](std::int64_t a, std::int64_t b) {
                const auto au = static_cast<std::size_t>(a);
                const auto bu = static_cast<std::size_t>(b);
                if (pred[au] != pred[bu]) return pred[au] > pred[bu];
                return a < b;
              });
    const std::int64_t cutoff = std::min<std::int64_t>(m, k);
    double dcg = 0.0;
    for (std::int64_t r = 0; r < cutoff; ++r) {
      const auto doc = static_cast<std::size_t>(order[static_cast<std::size_t>(r)]);
      dcg += (std::exp2(static_cast<double>(label[doc])) - 1.0) /
             std::log2(static_cast<double>(r) + 2.0);
    }
    std::vector<double> gains(static_cast<std::size_t>(m));
    for (std::int64_t i = 0; i < m; ++i) {
      gains[static_cast<std::size_t>(i)] =
          std::exp2(static_cast<double>(label[static_cast<std::size_t>(lo + i)])) - 1.0;
    }
    std::sort(gains.begin(), gains.end(), std::greater<>());
    double idcg = 0.0;
    for (std::int64_t r = 0; r < cutoff; ++r) {
      idcg += gains[static_cast<std::size_t>(r)] /
              std::log2(static_cast<double>(r) + 2.0);
    }
    // A query with no graded documents imposes no ordering constraint: any
    // ranking of it is ideal.
    sum += idcg > 0.0 ? dcg / idcg : 1.0;
  }
  return sum / static_cast<double>(n_queries);
}

double auc(std::span<const double> pred, std::span<const float> label) {
  assert(pred.size() == label.size());
  const std::size_t n = pred.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pred[a] < pred[b];
  });
  // Mann-Whitney U: sum of positive ranks, with tied scores sharing the
  // average rank of their run.
  double pos_rank_sum = 0.0;
  std::size_t n_pos = 0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && pred[order[j]] == pred[order[i]]) ++j;
    const double avg_rank = 0.5 * (static_cast<double>(i + 1) +
                                   static_cast<double>(j));  // 1-based
    for (std::size_t t = i; t < j; ++t) {
      if (label[order[t]] >= 0.5f) {
        pos_rank_sum += avg_rank;
        ++n_pos;
      }
    }
    i = j;
  }
  const std::size_t n_neg = n - n_pos;
  if (n_pos == 0 || n_neg == 0) return 0.5;
  const double u = pos_rank_sum -
                   static_cast<double>(n_pos) * (static_cast<double>(n_pos) + 1.0) / 2.0;
  return u / (static_cast<double>(n_pos) * static_cast<double>(n_neg));
}

}  // namespace gbdt
