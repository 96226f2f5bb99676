// Prediction on the simulated device (paper Section III-D) and the serving
// fast paths built on top of it.
//
// The paper's kernel is instance level x tree level parallelism — one
// logical GPU thread computes the partial prediction of one instance under
// one tree and adds it to the row's output with an atomic.  This kernel
// departs from that: one logical thread per instance walks the trees in
// ascending order and writes its own output cell once.  Floating-point
// addition is not associative, so atomics from different blocks would make
// the sum depend on the schedule; the per-row loop keeps it bitwise equal to
// RowPredictor, the serving relay and the host predictor at any host worker
// count, and its writes are block-disjoint.  Training itself never calls
// this (SmartGD reuses the instance->leaf map); it exists for scoring unseen
// data.
//
// The upload and traversal halves are split so callers that score many
// times against the same forest (cross-validation, the serving layer's
// shard scorer, `gbdt predict`) pay the PCI-e cost once:
//
//   * ForestSoA     — host-side flat structure-of-arrays view of a forest;
//   * DeviceForest  — ForestSoA uploaded once to one device;
//   * DeviceRows    — a dataset's CSR rows uploaded once to one device;
//   * predict_resident — traversal only: accumulates the leaf weights of a
//     tree range into a caller-seeded output buffer (no uploads);
//   * RowPredictor  — host-side single-row scorer over the same ForestSoA,
//     bitwise identical to the device batch path (same traversal, same
//     accumulation order), used by the serving single-row fast path.
//
// predict_on_device keeps its historical signature and behaviour: it is now
// a thin upload-then-traverse wrapper and stays bitwise identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_context.h"

namespace gbdt {

/// Host-side flat structure-of-arrays view of a forest: per-tree node
/// offsets plus parallel node arrays.  Immutable once built; shared by the
/// device uploader, the host RowPredictor and serving snapshots.
struct ForestSoA {
  std::vector<std::int64_t> tree_off;   // n_trees + 1 node offsets
  std::vector<std::int32_t> left, right, attr;
  std::vector<float> split;
  std::vector<std::uint8_t> def_left;
  std::vector<double> weight;
  double base_score = 0.0;

  [[nodiscard]] static ForestSoA flatten(const std::vector<Tree>& trees,
                                         double base_score);

  [[nodiscard]] std::int64_t n_trees() const {
    return static_cast<std::int64_t>(tree_off.size()) - 1;
  }
  [[nodiscard]] std::int64_t n_nodes() const {
    return static_cast<std::int64_t>(left.size());
  }

  /// Leaf weight of one sparse row (entries sorted by attr ascending) under
  /// tree `t` — the exact comparison sequence of the device kernel.
  [[nodiscard]] double leaf_weight(std::span<const data::Entry> row,
                                   std::int64_t t) const;
};

/// A ForestSoA resident in one device's memory (uploaded at construction).
class DeviceForest {
 public:
  DeviceForest(device::Device& dev, const ForestSoA& host);

  [[nodiscard]] std::int64_t n_trees() const { return n_trees_; }
  [[nodiscard]] double base_score() const { return base_score_; }

  [[nodiscard]] std::span<const std::int64_t> tree_off() const {
    return d_tree_off_.span();
  }
  [[nodiscard]] std::span<const std::int32_t> left() const {
    return d_left_.span();
  }
  [[nodiscard]] std::span<const std::int32_t> right() const {
    return d_right_.span();
  }
  [[nodiscard]] std::span<const std::int32_t> attr() const {
    return d_attr_.span();
  }
  [[nodiscard]] std::span<const float> split() const {
    return d_split_.span();
  }
  [[nodiscard]] std::span<const std::uint8_t> def_left() const {
    return d_def_left_.span();
  }
  [[nodiscard]] std::span<const double> weight() const {
    return d_weight_.span();
  }

 private:
  std::int64_t n_trees_;
  double base_score_;
  device::DeviceBuffer<std::int64_t> d_tree_off_;
  device::DeviceBuffer<std::int32_t> d_left_, d_right_, d_attr_;
  device::DeviceBuffer<float> d_split_;
  device::DeviceBuffer<std::uint8_t> d_def_left_;
  device::DeviceBuffer<double> d_weight_;
};

/// A dataset's CSR rows resident in one device's memory.
class DeviceRows {
 public:
  DeviceRows(device::Device& dev, const data::Dataset& ds);

  [[nodiscard]] std::int64_t n_rows() const { return n_rows_; }
  [[nodiscard]] std::span<const std::int64_t> offsets() const {
    return d_offsets_.span();
  }
  [[nodiscard]] std::span<const std::int32_t> attrs() const {
    return d_attrs_.span();
  }
  [[nodiscard]] std::span<const float> values() const {
    return d_values_.span();
  }

 private:
  std::int64_t n_rows_;
  device::DeviceBuffer<std::int64_t> d_offsets_;
  device::DeviceBuffer<std::int32_t> d_attrs_;
  device::DeviceBuffer<float> d_values_;
};

/// Traversal only: accumulates the leaf weights of trees [tree_lo, tree_hi)
/// of `forest` into `inout` (one cell per row of `rows`), which the caller
/// seeds — with base_score for a full scoring pass, or with the previous
/// shard's partial sums in the serving relay.  Per row, trees accumulate in
/// ascending order, so chaining ranges reproduces the whole-forest sum bit
/// for bit.  `name` labels the kernel in traces (serving passes a
/// `serve_`-prefixed label).
void predict_resident(device::Device& dev, const DeviceForest& forest,
                      const DeviceRows& rows,
                      device::DeviceBuffer<double>& inout,
                      std::int64_t tree_lo, std::int64_t tree_hi,
                      const char* name = "predict_batch");

/// Raw scores (base_score + sum of leaf weights) for every instance of ds.
/// Uploads the forest and the rows, seeds with base_score, traverses, and
/// downloads — one-shot convenience over the resident API.
[[nodiscard]] std::vector<double> predict_on_device(
    device::Device& dev, const std::vector<Tree>& trees, double base_score,
    const data::Dataset& ds);

/// Host-side single-row scorer over a ForestSoA: the serving layer's fast
/// path.  Construction flattens (or adopts) the forest once; score() then
/// walks the flat arrays with the exact comparison and accumulation
/// sequence of the device batch kernel, so single-row scores are bitwise
/// identical to batched ones.
class RowPredictor {
 public:
  explicit RowPredictor(const std::vector<Tree>& trees, double base_score)
      : soa_(ForestSoA::flatten(trees, base_score)) {}
  explicit RowPredictor(ForestSoA soa) : soa_(std::move(soa)) {}

  /// base_score + every tree's leaf weight, accumulated in tree order.
  [[nodiscard]] double score(std::span<const data::Entry> row) const;

  /// Partial sum of trees [tree_lo, tree_hi) accumulated onto `seed` — the
  /// host mirror of one serving shard's relay step.
  [[nodiscard]] double partial(std::span<const data::Entry> row,
                               std::int64_t tree_lo, std::int64_t tree_hi,
                               double seed) const;

  [[nodiscard]] const ForestSoA& soa() const { return soa_; }

 private:
  ForestSoA soa_;
};

}  // namespace gbdt
