// The one boosting driver behind every trainer path.  Internal: include
// core/trainer.h (or the path's own header) instead.
//
// Algorithm 1 of the paper is one loop: per tree, compute gradients and the
// root; per level, find the best split of every active node on the device,
// decide the splits on the host (lines 14-23), then move every instance to
// its child.  grow_forest owns that loop once:
//
//   - the tree loop, the level loop and the depth limit;
//   - the host split decision (gain > gamma, Tree::split, child stats) that
//     turns the backend's BestSplits into a LevelPlan;
//   - leaf weights, for nodes that do not split and for the depth limit;
//   - the gbdt_trees_trained_total / gbdt_levels_grown_total counters, the
//     per-tree callback (early stopping) and the final prediction fold.
//
// Each trainer path supplies the device steps as a LevelBackend: the exact
// sparse/RLE trainer, the histogram trainer, the out-of-core trainer and the
// multi-GPU exact and histogram trainers.  Backends own their spans and
// modeled phase scopes; the driver opens none, so span trees and kernel
// order are each path's own.
#pragma once

#include <vector>

#include "core/param.h"
#include "core/trainer.h"
#include "core/trainer_detail.h"
#include "core/tree.h"
#include "device/device_context.h"

namespace gbdt::detail {

/// Scoped accumulation of modeled device seconds into a phase counter.
class PhaseScope {
 public:
  PhaseScope(device::Device& dev, double& sink)
      : dev_(dev), sink_(sink), start_(dev.elapsed_seconds()) {}
  ~PhaseScope() { sink_ += dev_.elapsed_seconds() - start_; }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  device::Device& dev_;
  double& sink_;
  double start_;
};

/// The device side of one trainer path, driven by grow_forest.
class LevelBackend {
 public:
  LevelBackend() = default;
  LevelBackend(const LevelBackend&) = delete;
  LevelBackend& operator=(const LevelBackend&) = delete;
  virtual ~LevelBackend() = default;

  /// Folds `prev` (the previous tree; nullptr for t = 0) into the
  /// predictions, computes round t's gradients and resets the per-tree
  /// device state for `tree`.  Returns the root node's statistics.
  virtual ActiveNode begin_tree(int t, const Tree* prev, Tree& tree) = 0;
  /// The best split of every active node, in slot order.  Below the root,
  /// `active` holds each split's (left, right) children as adjacent slots,
  /// in parent slot order.
  virtual std::vector<BestSplit> find_splits(
      const std::vector<ActiveNode>& active) = 0;
  /// Moves every instance of a splitting node to its child.  `plan` indexes
  /// the same active slots the preceding find_splits saw; a level where no
  /// node splits ends the tree without an apply.
  virtual void apply(const LevelPlan& plan) = 0;
  /// Called once every leaf of the tree is final.
  virtual void end_tree() {}
  /// Folds the last tree into the predictions.
  virtual void fold(const Tree& last) = 0;
};

/// Grows up to param.n_trees trees of depth param.depth into the empty
/// `trees` through `backend`, then folds the last tree into the predictions.
/// `on_tree` returning false stops boosting early.
void grow_forest(const GBDTParam& param, LevelBackend& backend,
                 std::vector<Tree>& trees,
                 const GpuGbdtTrainer::TreeCallback& on_tree = {});

}  // namespace gbdt::detail
