#include "core/predictor.h"

#include <cstdint>

#include "primitives/transform.h"

namespace gbdt {

using device::BlockCtx;
using prim::kBlockDim;

ForestSoA ForestSoA::flatten(const std::vector<Tree>& trees,
                             double base_score) {
  ForestSoA f;
  f.base_score = base_score;
  f.tree_off.push_back(0);
  for (const auto& t : trees) {
    for (const auto& nd : t.nodes()) {
      f.left.push_back(nd.left);
      f.right.push_back(nd.right);
      f.attr.push_back(nd.attr);
      f.split.push_back(nd.split_value);
      f.def_left.push_back(nd.default_left ? 1 : 0);
      f.weight.push_back(nd.weight);
    }
    f.tree_off.push_back(static_cast<std::int64_t>(f.left.size()));
  }
  return f;
}

double ForestSoA::leaf_weight(std::span<const data::Entry> row,
                              std::int64_t t) const {
  const std::int64_t base = tree_off[static_cast<std::size_t>(t)];
  std::int64_t id = base;
  while (left[static_cast<std::size_t>(id)] >= 0) {
    const auto nu = static_cast<std::size_t>(id);
    const std::int32_t want = attr[nu];
    std::int64_t lo = 0, hi = static_cast<std::int64_t>(row.size());
    const float* found = nullptr;
    while (lo < hi) {
      const std::int64_t mid = (lo + hi) / 2;
      const auto mu = static_cast<std::size_t>(mid);
      if (row[mu].attr < want) {
        lo = mid + 1;
      } else if (row[mu].attr > want) {
        hi = mid;
      } else {
        found = &row[mu].value;
        break;
      }
    }
    const bool go_left = found != nullptr ? *found >= split[nu] : def_left[nu] != 0;
    id = base + (go_left ? left[nu] : right[nu]);
  }
  return weight[static_cast<std::size_t>(id)];
}

DeviceForest::DeviceForest(device::Device& dev, const ForestSoA& host)
    : n_trees_(host.n_trees()),
      base_score_(host.base_score),
      d_tree_off_(dev.to_device<std::int64_t>(host.tree_off)),
      d_left_(dev.to_device<std::int32_t>(host.left)),
      d_right_(dev.to_device<std::int32_t>(host.right)),
      d_attr_(dev.to_device<std::int32_t>(host.attr)),
      d_split_(dev.to_device<float>(host.split)),
      d_def_left_(dev.to_device<std::uint8_t>(host.def_left)),
      d_weight_(dev.to_device<double>(host.weight)) {}

DeviceRows::DeviceRows(device::Device& dev, const data::Dataset& ds)
    : n_rows_(ds.n_instances()) {
  std::vector<std::int32_t> attrs(static_cast<std::size_t>(ds.n_entries()));
  std::vector<float> vals(static_cast<std::size_t>(ds.n_entries()));
  for (std::size_t k = 0; k < attrs.size(); ++k) {
    attrs[k] = ds.entries()[k].attr;
    vals[k] = ds.entries()[k].value;
  }
  d_offsets_ = dev.to_device<std::int64_t>(ds.row_offsets());
  d_attrs_ = dev.to_device<std::int32_t>(attrs);
  d_values_ = dev.to_device<float>(vals);
}

void predict_resident(device::Device& dev, const DeviceForest& forest,
                      const DeviceRows& rows,
                      device::DeviceBuffer<double>& inout,
                      std::int64_t tree_lo, std::int64_t tree_hi,
                      const char* name) {
  const std::int64_t n = rows.n_rows();
  const std::int64_t n_range = tree_hi - tree_lo;
  if (n <= 0 || n_range <= 0) return;

  auto ro = rows.offsets();
  auto ra = rows.attrs();
  auto rv = rows.values();
  auto toff = forest.tree_off();
  auto L = forest.left();
  auto R = forest.right();
  auto A = forest.attr();
  auto S = forest.split();
  auto D = forest.def_left();
  auto W = forest.weight();
  auto out = inout.span();
  dev.launch(name, device::grid_for(n, kBlockDim), kBlockDim,
             [&](BlockCtx& b) {
               std::uint64_t steps = 0;
               b.for_each_thread([&](std::int64_t i) {
                 if (i >= n) return;
                 const auto iu = static_cast<std::size_t>(i);
                 const std::int64_t row_lo = ro[iu];
                 const std::int64_t row_hi = ro[iu + 1];
                 // One thread per row, trees in ascending order: the
                 // accumulation order RowPredictor and the serving relay
                 // reproduce bit for bit.
                 double acc = out[iu];
                 for (std::int64_t t = tree_lo; t < tree_hi; ++t) {
                   const std::int64_t base = toff[static_cast<std::size_t>(t)];
                   std::int64_t id = base;
                   while (L[static_cast<std::size_t>(id)] >= 0) {
                     const auto nu = static_cast<std::size_t>(id);
                     const std::int32_t want = A[nu];
                     std::int64_t lo = row_lo, hi = row_hi;
                     const float* found = nullptr;
                     while (lo < hi) {
                       const std::int64_t mid = (lo + hi) / 2;
                       const auto mu = static_cast<std::size_t>(mid);
                       if (ra[mu] < want) {
                         lo = mid + 1;
                       } else if (ra[mu] > want) {
                         hi = mid;
                       } else {
                         found = &rv[mu];
                         break;
                       }
                       ++steps;
                     }
                     const bool go_left =
                         found != nullptr ? *found >= S[nu] : D[nu] != 0;
                     id = base + (go_left ? L[nu] : R[nu]);
                     steps += 3;
                   }
                   acc += W[static_cast<std::size_t>(id)];
                 }
                 out[iu] = acc;
               });
               const std::uint64_t rows_here = prim::elems_in_block(b, n);
               b.work(steps);
               b.mem_irregular(steps);
               // Each thread reads and writes its own output cell once.
               b.mem_coalesced(2 * rows_here * sizeof(double));
               b.reads(ro, b.block_idx() * kBlockDim,
                       static_cast<std::int64_t>(rows_here) + 1);
               b.reads_tile(out, n);
               b.writes_tile(out, n);
             });
}

std::vector<double> predict_on_device(device::Device& dev,
                                      const std::vector<Tree>& trees,
                                      double base_score,
                                      const data::Dataset& ds) {
  const DeviceForest forest(dev, ForestSoA::flatten(trees, base_score));
  const DeviceRows rows(dev, ds);

  auto d_out = dev.alloc<double>(static_cast<std::size_t>(ds.n_instances()));
  prim::fill(dev, d_out, base_score);
  predict_resident(dev, forest, rows, d_out, 0, forest.n_trees());
  return dev.to_host(d_out);
}

double RowPredictor::score(std::span<const data::Entry> row) const {
  return partial(row, 0, soa_.n_trees(), soa_.base_score);
}

double RowPredictor::partial(std::span<const data::Entry> row,
                             std::int64_t tree_lo, std::int64_t tree_hi,
                             double seed) const {
  double s = seed;
  for (std::int64_t t = tree_lo; t < tree_hi; ++t) {
    s += soa_.leaf_weight(row, t);
  }
  return s;
}

}  // namespace gbdt
