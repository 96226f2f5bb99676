// Ranking/classification metric tests: NDCG@k (ties, cutoff, degenerate
// queries), AUC (tied-rank averaging, degenerate classes) and log loss.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/metrics.h"

namespace gbdt {
namespace {

TEST(Ndcg, PerfectOrderingIsOne) {
  const std::vector<double> pred{3.0, 2.0, 1.0};
  const std::vector<float> label{2.f, 1.f, 0.f};
  const std::vector<std::int64_t> offsets{0, 3};
  EXPECT_DOUBLE_EQ(ndcg_at_k(pred, label, offsets, 10), 1.0);
}

TEST(Ndcg, ReversedOrderingIsBelowOne) {
  const std::vector<double> pred{1.0, 2.0, 3.0};
  const std::vector<float> label{2.f, 1.f, 0.f};
  const std::vector<std::int64_t> offsets{0, 3};
  const double v = ndcg_at_k(pred, label, offsets, 10);
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 1.0);
}

TEST(Ndcg, TiesBreakTowardLowerIndex) {
  // Both docs score 1.0; the tie goes to index 0 (label 0), so the label-3
  // doc lands at rank 2.
  const std::vector<double> pred{1.0, 1.0};
  const std::vector<float> label{0.f, 3.f};
  const std::vector<std::int64_t> offsets{0, 2};
  const double dcg = 0.0 / std::log2(2.0) + 7.0 / std::log2(3.0);
  const double idcg = 7.0 / std::log2(2.0);
  EXPECT_NEAR(ndcg_at_k(pred, label, offsets, 10), dcg / idcg, 1e-12);
}

TEST(Ndcg, AllSameLabelQueryScoresOne) {
  // idcg == 0: any ordering of an all-equal query is perfect by convention.
  const std::vector<double> pred{0.5, 0.1, 0.9};
  const std::vector<float> label{0.f, 0.f, 0.f};
  const std::vector<std::int64_t> offsets{0, 3};
  EXPECT_DOUBLE_EQ(ndcg_at_k(pred, label, offsets, 10), 1.0);
}

TEST(Ndcg, CutoffKOnlyCountsTopK) {
  // The top-scored doc is irrelevant; with k=1 nothing else counts.
  const std::vector<double> pred{3.0, 2.0, 1.0};
  const std::vector<float> label{0.f, 2.f, 1.f};
  const std::vector<std::int64_t> offsets{0, 3};
  EXPECT_DOUBLE_EQ(ndcg_at_k(pred, label, offsets, 1), 0.0);
  EXPECT_GT(ndcg_at_k(pred, label, offsets, 3), 0.0);
}

TEST(Ndcg, MeanOverQueries) {
  // Query 1 is ordered perfectly, query 2 has its only relevant doc at the
  // bottom of a k=1 cutoff: mean of 1.0 and 0.0.
  const std::vector<double> pred{2.0, 1.0, /*q2*/ 2.0, 1.0};
  const std::vector<float> label{1.f, 0.f, /*q2*/ 0.f, 1.f};
  const std::vector<std::int64_t> offsets{0, 2, 4};
  EXPECT_DOUBLE_EQ(ndcg_at_k(pred, label, offsets, 1), 0.5);
}

TEST(Ndcg, SingleDocQuery) {
  const std::vector<double> pred{0.3};
  const std::vector<float> label{2.f};
  const std::vector<std::int64_t> offsets{0, 1};
  EXPECT_DOUBLE_EQ(ndcg_at_k(pred, label, offsets, 10), 1.0);
}

TEST(Auc, PerfectSeparationIsOne) {
  const std::vector<double> pred{0.9, 0.8, 0.2, 0.1};
  const std::vector<float> label{1.f, 1.f, 0.f, 0.f};
  EXPECT_DOUBLE_EQ(auc(pred, label), 1.0);
}

TEST(Auc, ReversedSeparationIsZero) {
  const std::vector<double> pred{0.1, 0.2, 0.8, 0.9};
  const std::vector<float> label{1.f, 1.f, 0.f, 0.f};
  EXPECT_DOUBLE_EQ(auc(pred, label), 0.0);
}

TEST(Auc, AllTiedScoresIsHalf) {
  const std::vector<double> pred{0.5, 0.5, 0.5, 0.5};
  const std::vector<float> label{1.f, 0.f, 1.f, 0.f};
  EXPECT_DOUBLE_EQ(auc(pred, label), 0.5);
}

TEST(Auc, TiedRunAveragesRanks) {
  // Scores {1,1,0,0}, labels {1,0,1,0}: each tied pair contributes half a
  // concordant pair -> 0.5 exactly.
  const std::vector<double> pred{1.0, 1.0, 0.0, 0.0};
  const std::vector<float> label{1.f, 0.f, 1.f, 0.f};
  EXPECT_DOUBLE_EQ(auc(pred, label), 0.5);
}

TEST(Auc, PartialTies) {
  // pos at 0.8 and 0.5, neg at 0.5 and 0.2: the 0.5 tie is half-credit.
  // Pairs: (0.8>0.5)=1, (0.8>0.2)=1, (0.5~0.5)=0.5, (0.5>0.2)=1 -> 3.5/4.
  const std::vector<double> pred{0.8, 0.5, 0.5, 0.2};
  const std::vector<float> label{1.f, 1.f, 0.f, 0.f};
  EXPECT_DOUBLE_EQ(auc(pred, label), 3.5 / 4.0);
}

TEST(Auc, DegenerateSingleClassIsHalf) {
  const std::vector<double> pred{0.9, 0.1};
  EXPECT_DOUBLE_EQ(auc(pred, std::vector<float>{1.f, 1.f}), 0.5);
  EXPECT_DOUBLE_EQ(auc(pred, std::vector<float>{0.f, 0.f}), 0.5);
  EXPECT_DOUBLE_EQ(auc(std::vector<double>{}, std::vector<float>{}), 0.5);
}

TEST(Auc, LabelThresholdAtHalf) {
  // Labels above 0.5 count as positive (probability-style labels work).
  const std::vector<double> pred{0.9, 0.1};
  const std::vector<float> label{0.8f, 0.2f};
  EXPECT_DOUBLE_EQ(auc(pred, label), 1.0);
}

TEST(Logloss, MatchesCrossEntropyAndClampsCertainMisses) {
  const std::vector<double> prob{0.8, 0.25};
  const std::vector<float> label{1.f, 0.f};
  EXPECT_NEAR(logloss(prob, label), -(std::log(0.8) + std::log(0.75)) / 2.0,
              1e-15);
  // A certain, correct prediction costs (almost) nothing; a certain miss is
  // clamped to a finite -log(1e-15).
  EXPECT_NEAR(logloss(std::vector<double>{1.0}, std::vector<float>{1.f}), 0.0,
              1e-12);
  EXPECT_NEAR(logloss(std::vector<double>{0.0}, std::vector<float>{1.f}),
              -std::log(1e-15), 1e-9);
  EXPECT_DOUBLE_EQ(logloss(std::vector<double>{}, std::vector<float>{}), 0.0);
}

}  // namespace
}  // namespace gbdt
