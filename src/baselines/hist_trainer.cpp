#include "baselines/hist_trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/trainer_detail.h"
#include "primitives/histogram.h"
#include "primitives/reduce.h"
#include "primitives/transform.h"

namespace gbdt::baseline {

using detail::ActiveNode;
using detail::GHPair;
using device::BlockCtx;
using device::DeviceBuffer;
using hist::BinCuts;
using hist::build_cuts;
using prim::elems_in_block;
using prim::kBlockDim;

namespace {

struct SplitDecision {
  bool valid = false;
  double gain = 0.0;
  std::int32_t attr = -1;
  int bin = -1;            // last bin on the left (high) side
  float split_value = 0.f;
  bool default_left = false;
  ActiveNode left, right;
};

}  // namespace

HistGbdtTrainer::HistGbdtTrainer(device::Device& dev, GBDTParam param,
                                 int n_bins)
    : dev_(dev), param_(std::move(param)), n_bins_(n_bins),
      loss_(make_loss(param_.loss)) {
  if (n_bins_ < 1 || n_bins_ > 4096) {
    throw std::invalid_argument("n_bins must be in [1, 4096]");
  }
  if (param_.depth < 1 || param_.n_trees < 1) {
    throw std::invalid_argument("bad depth / n_trees");
  }
}

HistTrainReport HistGbdtTrainer::train(const data::Dataset& ds) {
  const auto wall_start = std::chrono::steady_clock::now();
  const double modeled_start = dev_.elapsed_seconds();
  HistTrainReport report;
  report.base_score = param_.base_score;
  report.n_bins = n_bins_;

  const std::int64_t n_inst = ds.n_instances();
  const std::int64_t n_attr = ds.n_attributes();
  if (n_inst == 0) throw std::invalid_argument("empty dataset");
  const std::size_t widest = std::size_t{1}
                             << static_cast<std::size_t>(
                                    std::min(param_.depth - 1, 24));
  const std::size_t hist_bytes = widest * static_cast<std::size_t>(n_attr) *
                                 static_cast<std::size_t>(n_bins_) *
                                 (sizeof(GHPair) + sizeof(std::int32_t));
  if (hist_bytes > dev_.config().global_mem_bytes / 4) {
    throw std::invalid_argument(
        "histogram method infeasible: per-level histograms need " +
        std::to_string(hist_bytes >> 20) +
        " MiB (dense over nodes x attributes x bins)");
  }

  // ---- quantise: per-attribute quantile cuts, per-entry bin ids -----------
  std::vector<BinCuts> cuts(static_cast<std::size_t>(n_attr));
  {
    std::vector<std::vector<float>> columns(static_cast<std::size_t>(n_attr));
    for (const auto& e : ds.entries()) {
      columns[static_cast<std::size_t>(e.attr)].push_back(e.value);
    }
    for (std::int64_t a = 0; a < n_attr; ++a) {
      cuts[static_cast<std::size_t>(a)] =
          build_cuts(std::move(columns[static_cast<std::size_t>(a)]), n_bins_);
    }
  }
  std::vector<std::int32_t> h_attr(static_cast<std::size_t>(ds.n_entries()));
  std::vector<std::uint16_t> h_bin(static_cast<std::size_t>(ds.n_entries()));
  {
    std::size_t k = 0;
    for (std::int64_t i = 0; i < n_inst; ++i) {
      for (const auto& e : ds.instance(i)) {
        h_attr[k] = e.attr;
        h_bin[k] = static_cast<std::uint16_t>(
            cuts[static_cast<std::size_t>(e.attr)].bin_of(e.value));
        ++k;
      }
    }
  }
  auto d_row = dev_.to_device<std::int64_t>(ds.row_offsets());
  auto d_attr = dev_.to_device<std::int32_t>(h_attr);
  auto d_bin = dev_.to_device<std::uint16_t>(h_bin);
  auto d_labels = dev_.to_device<float>(ds.labels());

  // Per-instance state (reuses the exact trainer's gradient kernels through
  // a minimally-populated TrainState).
  detail::TrainState st(dev_, param_, *loss_);
  st.n_inst = n_inst;
  st.n_attr = n_attr;
  st.grad = dev_.alloc<double>(static_cast<std::size_t>(n_inst));
  st.hess = dev_.alloc<double>(static_cast<std::size_t>(n_inst));
  st.y_pred = dev_.alloc<float>(static_cast<std::size_t>(n_inst));
  st.node_of = dev_.alloc<std::int32_t>(static_cast<std::size_t>(n_inst));
  prim::fill(dev_, st.y_pred, static_cast<float>(param_.base_score));

  report.trees.reserve(static_cast<std::size_t>(param_.n_trees));
  const double lambda = param_.lambda;
  const std::int64_t bins = n_bins_;

  for (int t = 0; t < param_.n_trees; ++t) {
    if (t > 0) detail::update_predictions_smart(st, report.trees.back());
    detail::compute_gradients(st, d_labels);
    prim::fill(dev_, st.node_of, std::int32_t{0});

    report.trees.emplace_back();
    Tree& tree = report.trees.back();

    ActiveNode root;
    root.tree_node = 0;
    root.sum_g = prim::reduce_sum<double>(dev_, st.grad, "hist_root_sum_g");
    root.sum_h = prim::reduce_sum<double>(dev_, st.hess, "hist_root_sum_h");
    root.count = n_inst;
    std::vector<ActiveNode> active{root};

    for (int level = 0; level < param_.depth && !active.empty(); ++level) {
      const auto n_slots = static_cast<std::int64_t>(active.size());

      // slot lookup per tree node.
      std::vector<std::int32_t> slot_of(static_cast<std::size_t>(tree.n_nodes()),
                                        -1);
      for (std::size_t s = 0; s < active.size(); ++s) {
        slot_of[static_cast<std::size_t>(active[s].tree_node)] =
            static_cast<std::int32_t>(s);
      }
      auto d_slot_of = detail::upload(dev_, slot_of);

      // ---- one-pass histogram build (the hist method's whole find phase).
      const auto hist_cells = static_cast<std::size_t>(n_slots) *
                              static_cast<std::size_t>(n_attr) *
                              static_cast<std::size_t>(bins);
      auto hist = dev_.alloc<GHPair>(hist_cells);
      auto hist_cnt = dev_.alloc<std::int32_t>(hist_cells);
      prim::fill(dev_, hist_cnt, std::int32_t{0});
      {
        auto row = d_row.span();
        auto ea = d_attr.span();
        auto eb = d_bin.span();
        auto g = st.grad.span();
        auto h = st.hess.span();
        auto node_of = st.node_of.span();
        auto so = d_slot_of.span();
        auto hs = hist.span();
        auto hc = hist_cnt.span();
        // The atomic-per-entry kernel is charged per block as on the GPU,
        // but cross-block float adds would make the sums depend on the host
        // schedule.  So block 0 alone folds every row, in row order (the
        // hist_find_best pattern: a host walk charged as a device kernel),
        // and the declared footprint stays block-disjoint.
        dev_.launch("hist_build", device::grid_for(n_inst, kBlockDim),
                    kBlockDim, [&](BlockCtx& b) {
                      std::uint64_t touched = 0;
                      b.for_each_thread([&](std::int64_t i) {
                        if (i >= n_inst) return;
                        const auto u = static_cast<std::size_t>(i);
                        if (so[static_cast<std::size_t>(node_of[u])] >= 0) {
                          touched +=
                              static_cast<std::uint64_t>(row[u + 1] - row[u]);
                        }
                      });
                      b.work(touched);
                      b.mem_coalesced(touched * 6 +
                                      elems_in_block(b, n_inst) * 24);
                      b.atomic(touched);  // histogram cells are shared
                      b.reads_tile(node_of, n_inst);
                      if (b.block_idx() != 0) return;
                      for (std::int64_t i = 0; i < n_inst; ++i) {
                        const auto u = static_cast<std::size_t>(i);
                        const std::int32_t slot =
                            so[static_cast<std::size_t>(node_of[u])];
                        if (slot < 0) continue;
                        const GHPair gh{g[u], h[u]};
                        for (std::int64_t e = row[u]; e < row[u + 1]; ++e) {
                          const auto eu = static_cast<std::size_t>(e);
                          const auto cell = static_cast<std::size_t>(
                              (static_cast<std::int64_t>(slot) * n_attr +
                               ea[eu]) * bins + eb[eu]);
                          hs[cell] += gh;
                          ++hc[cell];
                        }
                      }
                      b.reads(node_of, 0, n_inst);
                      b.reads(g, 0, n_inst);
                      b.reads(h, 0, n_inst);
                      b.reads(hs, 0, static_cast<std::int64_t>(hs.size()));
                      b.reads(hc, 0, static_cast<std::int64_t>(hc.size()));
                      b.writes(hs, 0, static_cast<std::int64_t>(hs.size()));
                      b.writes(hc, 0, static_cast<std::int64_t>(hc.size()));
                    });
      }

      // ---- pick the best bin boundary per node (host walk; charged as a
      //      device reduction over the histogram cells).
      dev_.launch("hist_find_best",
                  device::grid_for(static_cast<std::int64_t>(hist_cells),
                                   kBlockDim),
                  kBlockDim, [&](BlockCtx& b) {
                    const auto m = elems_in_block(
                        b, static_cast<std::int64_t>(hist_cells));
                    b.work(m);
                    b.mem_coalesced(m * (sizeof(GHPair) + 4));
                  });
      std::vector<SplitDecision> best(active.size());
      for (std::int64_t s = 0; s < n_slots; ++s) {
        const ActiveNode& node = active[static_cast<std::size_t>(s)];
        for (std::int64_t a = 0; a < n_attr; ++a) {
          const auto base =
              static_cast<std::size_t>((s * n_attr + a) * bins);
          GHPair present{};
          std::int64_t present_cnt = 0;
          const auto& abins = cuts[static_cast<std::size_t>(a)].bin_low;
          const auto n_abins = static_cast<std::int64_t>(abins.size());
          for (std::int64_t bb = 0; bb < n_abins; ++bb) {
            present += hist[base + static_cast<std::size_t>(bb)];
            present_cnt += hist_cnt[base + static_cast<std::size_t>(bb)];
          }
          const std::int64_t miss = node.count - present_cnt;
          const double miss_g = node.sum_g - present.g;
          const double miss_h = node.sum_h - present.h;

          GHPair left{};
          std::int64_t left_cnt = 0;
          for (std::int64_t bb = 0; bb + 1 < n_abins || (miss > 0 && bb < n_abins);
               ++bb) {
            if (bb >= n_abins) break;
            const auto cell = base + static_cast<std::size_t>(bb);
            left += hist[cell];
            left_cnt += hist_cnt[cell];
            if (hist_cnt[cell] == 0) continue;  // empty bin: same boundary

            double gain_r = 0.0;
            if (left_cnt > 0 && node.count - left_cnt > 0) {
              gain_r = split_gain(left.g, left.h, node.sum_g - left.g,
                                  node.sum_h - left.h, lambda);
            }
            double gain_l = 0.0;
            if (miss > 0 && present_cnt - left_cnt > 0) {
              gain_l = split_gain(left.g + miss_g, left.h + miss_h,
                                  node.sum_g - left.g - miss_g,
                                  node.sum_h - left.h - miss_h, lambda);
            }
            const bool go_left_default = gain_l > gain_r;
            const double gain = go_left_default ? gain_l : gain_r;
            auto& bd = best[static_cast<std::size_t>(s)];
            if (gain > bd.gain) {
              bd.valid = true;
              bd.gain = gain;
              bd.attr = static_cast<std::int32_t>(a);
              bd.bin = static_cast<int>(bb);
              bd.split_value = abins[static_cast<std::size_t>(bb)];
              bd.default_left = go_left_default;
              bd.left.sum_g = left.g + (go_left_default ? miss_g : 0.0);
              bd.left.sum_h = left.h + (go_left_default ? miss_h : 0.0);
              bd.left.count = left_cnt + (go_left_default ? miss : 0);
              bd.right.sum_g = node.sum_g - bd.left.sum_g;
              bd.right.sum_h = node.sum_h - bd.left.sum_h;
              bd.right.count = node.count - bd.left.count;
            }
          }
        }
      }

      // ---- apply: only the instance->node map moves (no partition).
      std::vector<ActiveNode> next;
      std::vector<std::int32_t> sp_attr(active.size(), -1);
      std::vector<std::int32_t> sp_bin(active.size(), -1);
      std::vector<std::int32_t> sp_left(active.size(), -1);
      std::vector<std::int32_t> sp_right(active.size(), -1);
      std::vector<std::uint8_t> sp_defl(active.size(), 0);
      bool any_split = false;
      for (std::size_t s = 0; s < active.size(); ++s) {
        const ActiveNode& node = active[s];
        auto& tn = tree.node(node.tree_node);
        tn.n_instances = node.count;
        tn.sum_g = node.sum_g;
        tn.sum_h = node.sum_h;
        const SplitDecision& bdec = best[s];
        if (bdec.valid && bdec.gain > param_.gamma) {
          const auto [l, r] = tree.split(node.tree_node, bdec.attr,
                                         bdec.split_value, bdec.default_left,
                                         bdec.gain);
          sp_attr[s] = bdec.attr;
          sp_bin[s] = bdec.bin;
          sp_left[s] = l;
          sp_right[s] = r;
          sp_defl[s] = bdec.default_left ? 1 : 0;
          ActiveNode left = bdec.left;
          left.tree_node = l;
          ActiveNode right = bdec.right;
          right.tree_node = r;
          next.push_back(left);
          next.push_back(right);
          any_split = true;
        } else {
          tn.weight =
              param_.eta * leaf_weight(node.sum_g, node.sum_h, lambda);
        }
      }
      if (!any_split) {
        active.clear();
        break;
      }
      auto d_sattr = detail::upload(dev_, sp_attr);
      auto d_sbin = detail::upload(dev_, sp_bin);
      auto d_sleft = detail::upload(dev_, sp_left);
      auto d_sright = detail::upload(dev_, sp_right);
      auto d_sdefl = detail::upload(dev_, sp_defl);
      {
        auto row = d_row.span();
        auto ea = d_attr.span();
        auto eb = d_bin.span();
        auto node_of = st.node_of.span();
        auto so = d_slot_of.span();
        auto sa = d_sattr.span();
        auto sb = d_sbin.span();
        auto sl = d_sleft.span();
        auto sr = d_sright.span();
        auto sd = d_sdefl.span();
        dev_.launch("hist_update_positions",
                    device::grid_for(n_inst, kBlockDim), kBlockDim,
                    [&](BlockCtx& b) {
                      std::uint64_t probes = 0;
                      b.for_each_thread([&](std::int64_t i) {
                        if (i >= n_inst) return;
                        const auto u = static_cast<std::size_t>(i);
                        const std::int32_t slot =
                            so[static_cast<std::size_t>(node_of[u])];
                        if (slot < 0 ||
                            sa[static_cast<std::size_t>(slot)] < 0) {
                          return;
                        }
                        const auto su = static_cast<std::size_t>(slot);
                        // Binary search the row for the split attribute.
                        const std::int32_t want = sa[su];
                        std::int64_t lo = row[u], hi = row[u + 1];
                        int found_bin = -1;
                        while (lo < hi) {
                          const std::int64_t mid = (lo + hi) / 2;
                          const auto mu = static_cast<std::size_t>(mid);
                          if (ea[mu] < want) {
                            lo = mid + 1;
                          } else if (ea[mu] > want) {
                            hi = mid;
                          } else {
                            found_bin = eb[mu];
                            break;
                          }
                          ++probes;
                        }
                        const bool go_left = found_bin >= 0
                                                 ? found_bin <= sb[su]
                                                 : sd[su] != 0;
                        node_of[u] = go_left ? sl[su] : sr[su];
                      });
                      b.work(probes + elems_in_block(b, n_inst));
                      b.mem_irregular(probes);
                      b.mem_coalesced(elems_in_block(b, n_inst) * 12);
                    });
      }
      active = std::move(next);
    }
    for (const ActiveNode& node : active) {
      auto& tn = tree.node(node.tree_node);
      tn.weight = param_.eta * leaf_weight(node.sum_g, node.sum_h, lambda);
      tn.n_instances = node.count;
      tn.sum_g = node.sum_g;
      tn.sum_h = node.sum_h;
    }
    active.clear();
  }

  detail::update_predictions_smart(st, report.trees.back());
  const auto final_pred = dev_.to_host(st.y_pred);
  report.train_scores.assign(final_pred.begin(), final_pred.end());
  report.modeled_seconds = dev_.elapsed_seconds() - modeled_start;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

}  // namespace gbdt::baseline
