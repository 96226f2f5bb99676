#include "core/boosting.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "primitives/histogram.h"

namespace gbdt {

void validate(const GBDTParam& p, std::int64_t n_attr,
              std::size_t device_mem_bytes) {
  if (p.depth < 1) throw std::invalid_argument("depth must be >= 1");
  if (p.n_trees < 1) throw std::invalid_argument("n_trees must be >= 1");
  if (p.gamma < 0) throw std::invalid_argument("gamma must be >= 0");
  if (p.lambda < 0) throw std::invalid_argument("lambda must be >= 0");
  if (p.n_bins < 1 || p.n_bins > 4096) {
    throw std::invalid_argument("n_bins must be in [1, 4096]");
  }
  if (n_attr <= 0) return;
  // The widest level's current + parent histograms must fit comfortably.
  const double widest = std::ldexp(1.0, std::min(p.depth - 1, 24));
  const double hist_bytes = 2.0 * widest * static_cast<double>(n_attr) *
                            p.n_bins * sizeof(hist::QGH);
  if (hist_bytes > static_cast<double>(device_mem_bytes) / 4.0) {
    throw std::invalid_argument(
        "hist trainer: per-level histograms would exceed a quarter of "
        "device memory; reduce depth or n_bins");
  }
}

namespace detail {

namespace {

void finalize_leaf(const GBDTParam& p, Tree& tree, const ActiveNode& node) {
  auto& tn = tree.node(node.tree_node);
  tn.weight = p.eta * leaf_weight(node.sum_g, node.sum_h, p.lambda);
  tn.n_instances = node.count;
  tn.sum_g = node.sum_g;
  tn.sum_h = node.sum_h;
}

/// Host-side split decisions (Algorithm 1 lines 14-23): records every active
/// node's statistics, splits the nodes whose best gain beats gamma and
/// finalizes the rest as leaves.
LevelPlan decide_splits(const GBDTParam& p, Tree& tree,
                        const std::vector<ActiveNode>& active,
                        const std::vector<BestSplit>& best) {
  LevelPlan plan;
  plan.per_slot.resize(active.size());
  for (std::size_t s = 0; s < active.size(); ++s) {
    const ActiveNode& node = active[s];
    const BestSplit& b = best[s];
    auto& tn = tree.node(node.tree_node);
    tn.n_instances = node.count;
    tn.sum_g = node.sum_g;
    tn.sum_h = node.sum_h;
    if (!(b.valid && b.gain > p.gamma)) {
      finalize_leaf(p, tree, node);
      continue;
    }
    const auto [l, r] = tree.split(node.tree_node, b.attr, b.split_value,
                                   b.default_left, b.gain);
    plan.per_slot[s] = LevelPlan::Entry{true, b.attr, b.split_value,
                                        b.default_left, b.seg, b.pos, l, r};
    ActiveNode left = b.left;
    left.tree_node = l;
    ActiveNode right = b.right;
    right.tree_node = r;
    plan.next_active.push_back(left);
    plan.next_active.push_back(right);
  }
  plan.next_slot_of_tree.assign(static_cast<std::size_t>(tree.n_nodes()), -1);
  for (std::size_t k = 0; k < plan.next_active.size(); ++k) {
    plan.next_slot_of_tree[static_cast<std::size_t>(
        plan.next_active[k].tree_node)] = static_cast<std::int32_t>(k);
  }
  return plan;
}

}  // namespace

void grow_forest(const GBDTParam& param, LevelBackend& backend,
                 std::vector<Tree>& trees,
                 const GpuGbdtTrainer::TreeCallback& on_tree) {
  static obs::Counter& trees_trained =
      obs::Registry::global().counter("gbdt_trees_trained_total");
  static obs::Counter& levels_grown =
      obs::Registry::global().counter("gbdt_levels_grown_total");
  trees.reserve(static_cast<std::size_t>(param.n_trees));
  for (int t = 0; t < param.n_trees; ++t) {
    trees.emplace_back();
    Tree& tree = trees.back();
    const Tree* prev =
        t > 0 ? &trees[static_cast<std::size_t>(t) - 1] : nullptr;
    std::vector<ActiveNode> active{backend.begin_tree(t, prev, tree)};

    for (int level = 0; level < param.depth && !active.empty(); ++level) {
      levels_grown.inc();
      const std::vector<BestSplit> best = backend.find_splits(active);
      LevelPlan plan = decide_splits(param, tree, active, best);
      if (plan.next_active.empty()) {
        active.clear();
        break;
      }
      backend.apply(plan);
      active = std::move(plan.next_active);
    }
    // Depth limit reached: remaining active nodes become leaves.
    for (const ActiveNode& node : active) finalize_leaf(param, tree, node);
    backend.end_tree();

    trees_trained.inc();
    if (on_tree && !on_tree(t, trees)) break;
  }
  backend.fold(trees.back());
}

}  // namespace detail
}  // namespace gbdt
