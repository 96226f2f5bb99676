// GPU-GBDT: the paper's training algorithm on the simulated device.
//
// Typical use:
//   device::Device dev(device::DeviceConfig::titan_x_pascal());
//   GBDTParam p;  // p.use_hist_trainer = true: the histogram method
//   GpuGbdtTrainer trainer(dev, p);
//   const TrainReport report = trainer.train(dataset);
//   // report.trees, report.modeled (device seconds), report.train_scores
//
// One trainer trains both methods: the exact sorted-list method of the
// paper, or the quantized histogram method (core/trainer_hist.h).  They
// share the frame around the level steps — autotune, state, labels, the
// boosting driver, the report — and differ only in the root layout and the
// level backend.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/autotune.h"
#include "core/loss.h"
#include "core/param.h"
#include "core/tree.h"
#include "data/dataset.h"
#include "device/device_context.h"

namespace gbdt {

/// Modeled device seconds attributed to the phases the paper discusses
/// ("finding the best split point [is] around 95% of total training time").
struct PhaseTimings {
  double transfer = 0.0;    // PCI-e + initial CSC build / RLE compression
  double gradients = 0.0;   // prediction update + g/h computation
  double find_split = 0.0;  // gain computation + reductions
  double split_node = 0.0;  // node_of update + order-preserving partition

  [[nodiscard]] double total() const {
    return transfer + gradients + find_split + split_node;
  }
};

struct TrainReport {
  std::vector<Tree> trees;
  double base_score = 0.0;
  PhaseTimings modeled;
  double wall_seconds = 0.0;
  bool used_rle = false;
  double rle_ratio = 1.0;            // elements per run (1 = uncompressed)
  std::size_t peak_device_bytes = 0;
  /// Final raw training scores (base_score + sum of leaf weights).
  std::vector<double> train_scores;
  /// Set when param.autotune ran the cost-model tuner before training;
  /// `tuning` then holds the chosen knobs and sweeps.
  bool tuned = false;
  autotune::TuningReport tuning;
};

class GpuGbdtTrainer {
 public:
  /// Called after each completed tree with its index and the forest so far;
  /// returning false stops boosting early (used for early stopping).
  using TreeCallback =
      std::function<bool(int tree_index, const std::vector<Tree>& forest)>;

  GpuGbdtTrainer(device::Device& dev, GBDTParam param);

  /// Trains param.n_trees trees of depth param.depth on ds, with the exact
  /// method or, when param.use_hist_trainer is set, the histogram method
  /// (used_rle/rle_ratio then stay at their defaults).  The device timeline
  /// keeps accumulating across calls; the report contains the per-phase
  /// attribution of this call only.
  [[nodiscard]] TrainReport train(const data::Dataset& ds,
                                  const TreeCallback& on_tree = {});

  [[nodiscard]] const GBDTParam& param() const { return param_; }

 private:
  device::Device& dev_;
  GBDTParam param_;
  std::unique_ptr<Loss> loss_;
};

}  // namespace gbdt
