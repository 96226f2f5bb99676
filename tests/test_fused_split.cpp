// Fused find-split pipeline (src/primitives/fused_split.h): forests trained
// through it must match the CPU exact-greedy reference (XgbExactTrainer,
// which runs gather, prefix sum, gain and argmax as separate host passes) on
// every trainer path at the fuzz oracle's tolerances — bitwise for the
// sparse and dense-interleaved layouts, 1e-7 for both RLE split strategies
// and multi-GPU sharding, whose sums associate differently.  The fused
// primitives must agree element for element with the reference primitives
// segmented_inclusive_scan_by_key and segmented_arg_max, and every fused
// kernel must run clean under the access auditor.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/access_audit.h"
#include "baselines/xgb_exact.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"
#include "primitives/fused_split.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"

namespace gbdt {
namespace {

using device::Device;
using device::DeviceConfig;

data::Dataset mixed_dataset(unsigned seed, double density = 0.7,
                            int distinct = 5) {
  data::SyntheticSpec spec;
  spec.n_instances = 400;
  spec.n_attributes = 9;
  spec.density = density;
  spec.distinct_values = distinct;  // duplicates exercise suppression
  spec.seed = seed;
  return data::generate(spec);
}

std::vector<Tree> train_forest(const GBDTParam& p, const data::Dataset& ds) {
  Device dev(DeviceConfig::titan_x_pascal());
  auto r = GpuGbdtTrainer(dev, p).train(ds);
  return std::move(r.trees);
}

/// Trains the CPU exact-greedy reference on the same data and parameters
/// and compares every tree at `tol` (0.0 = bitwise).
void expect_matches_reference(const std::vector<Tree>& got,
                              const GBDTParam& p, const data::Dataset& ds,
                              double tol) {
  const auto ref = baseline::XgbExactTrainer(p).train(ds);
  ASSERT_EQ(got.size(), ref.trees.size());
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_TRUE(Tree::same_structure(ref.trees[t], got[t], tol))
        << "tree " << t << " differs:\n"
        << ref.trees[t].dump() << "\nvs\n"
        << got[t].dump();
  }
}

// The test names keep the fused-vs-unfused framing: the unfused side is the
// CPU reference above.

TEST(FusedSplit, SparseFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(11);
  GBDTParam p;
  p.depth = 5;
  p.n_trees = 3;
  expect_matches_reference(train_forest(p, ds), p, ds, 0.0);
}

// The only forest-level check of the dense node-interleaved layout (the
// xgbst-gpu baseline's gradient copies).
TEST(FusedSplit, DenseInterleavedFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(12, /*density=*/1.0);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 3;
  p.dense_layout = true;
  expect_matches_reference(train_forest(p, ds), p, ds, 0.0);
}

TEST(FusedSplit, RleDirectFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(13, 0.8, /*distinct=*/4);
  GBDTParam p;
  p.depth = 5;
  p.n_trees = 3;
  p.use_rle = true;
  p.force_rle = true;
  p.use_direct_rle_split = true;
  expect_matches_reference(train_forest(p, ds), p, ds, 1e-7);
}

TEST(FusedSplit, RleFallbackFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(14, 0.8, /*distinct=*/4);
  GBDTParam p;
  p.depth = 5;
  p.n_trees = 3;
  p.use_rle = true;
  p.force_rle = true;
  p.use_direct_rle_split = false;
  expect_matches_reference(train_forest(p, ds), p, ds, 1e-7);
}

TEST(FusedSplit, MultiGpuFusedMatchesUnfusedBitwise) {
  const auto ds = mixed_dataset(15);
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 2;
  for (const auto shard :
       {multigpu::ShardMode::kData, multigpu::ShardMode::kFeature}) {
    multigpu::MultiGpuOptions opts;
    opts.shard = shard;
    multigpu::MultiGpuTrainer trainer(DeviceConfig::titan_x_pascal(), 3, p,
                                      multigpu::Interconnect::pcie3(), opts);
    const auto r = trainer.train(ds);
    SCOPED_TRACE(multigpu::shard_mode_name(shard));
    expect_matches_reference(r.trees, p, ds, 1e-7);
  }
}

// Primitive-level agreement: the fused gather+scan+totals must reproduce
// the reference segmented scan element for element, and its per-segment
// totals the scan value at each segment's end, on uneven segment layouts.
TEST(FusedSplit, FusedGatherScanTotalsMatchesUnfusedSequence) {
  Device dev(DeviceConfig::titan_x_pascal());
  device::WorkspaceArena arena(dev.allocator());
  const std::int64_t n = 10'000;
  // Uneven segments, including an empty one, spanning many blocks.
  std::vector<std::int64_t> offs{0, 1, 1, 700, 4096, 4097, 9000, n};
  const auto n_seg = static_cast<std::int64_t>(offs.size()) - 1;
  auto d_offs = dev.to_device<std::int64_t>(offs);
  auto keys = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
  prim::set_keys(dev, d_offs, keys, 2);

  auto src = dev.alloc<double>(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    src[static_cast<std::size_t>(i)] =
        static_cast<double>((i * 2654435761u) % 97) / 7.0;
  }

  auto fused_out = arena.alloc<double>(static_cast<std::size_t>(n));
  auto fused_tot = arena.alloc<double>(static_cast<std::size_t>(n_seg));
  auto s = src.span();
  prim::fused_gather_scan_totals(
      dev, arena, keys, fused_out, fused_tot,
      [s](device::BlockCtx& b, std::int64_t i) {
        b.reads(s, i);
        b.mem_coalesced(sizeof(double));
        return s[static_cast<std::size_t>(i)];
      },
      "test_fused_gather_scan");

  auto plain_out = dev.alloc<double>(static_cast<std::size_t>(n));
  prim::segmented_inclusive_scan_by_key(dev, src, keys, plain_out,
                                        "test_plain_scan");
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(fused_out[static_cast<std::size_t>(i)],
              plain_out[static_cast<std::size_t>(i)])
        << "element " << i;
  }
  // Totals of every non-empty segment equal the scan value at its end.
  for (std::int64_t g = 0; g < n_seg; ++g) {
    if (offs[static_cast<std::size_t>(g)] ==
        offs[static_cast<std::size_t>(g + 1)]) {
      continue;
    }
    ASSERT_EQ(fused_tot[static_cast<std::size_t>(g)],
              plain_out[static_cast<std::size_t>(
                  offs[static_cast<std::size_t>(g + 1)] - 1)])
        << "segment " << g;
  }
}

// Primitive-level agreement: the fused argmax applies segmented_arg_max's
// lowest-index tie-break and leaves (0.0, -1, 0) on empty segments.
TEST(FusedSplit, FusedGainArgmaxTieBreakAndEmptySegments) {
  Device dev(DeviceConfig::titan_x_pascal());
  std::vector<std::int64_t> offs{0, 4, 4, 9};
  auto d_offs = dev.to_device<std::int64_t>(offs);
  // Segment 0: tie of 7.0 at elements 1 and 3 -> element 1 wins.
  // Segment 1: empty.  Segment 2: all zero gains -> first element wins.
  std::vector<double> gains{1.0, 7.0, 3.0, 7.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  auto best_val = dev.alloc<double>(3);
  auto best_idx = dev.alloc<std::int64_t>(3);
  auto best_dir = dev.alloc<std::uint8_t>(3);
  prim::fused_gain_argmax(
      dev, d_offs, best_val, best_idx, best_dir, 2,
      [&gains](device::BlockCtx& b, std::int64_t s, std::int64_t e,
               std::int64_t, std::int64_t) {
        (void)s;
        b.mem_coalesced(sizeof(double));
        return prim::GainDir{gains[static_cast<std::size_t>(e)],
                             static_cast<std::uint8_t>(e % 2)};
      },
      "test_fused_argmax");
  EXPECT_EQ(best_val[0], 7.0);
  EXPECT_EQ(best_idx[0], 1);
  EXPECT_EQ(best_dir[0], 1);
  EXPECT_EQ(best_val[1], 0.0);
  EXPECT_EQ(best_idx[1], -1);
  EXPECT_EQ(best_dir[1], 0);
  EXPECT_EQ(best_val[2], 0.0);
  EXPECT_EQ(best_idx[2], 4);
}

// Every new fused kernel (phase 1 under its caller-supplied label, the
// carry and fixup passes, and the fused argmax) must run clean under the
// shadow-memory access auditor on every trainer path that launches them.
TEST(FusedSplit, FusedTrainingRunsCleanUnderAudit) {
  analysis::set_audit_enabled(true);
  const auto ds = mixed_dataset(16, 0.7, 4);

  GBDTParam p;
  p.depth = 4;
  p.n_trees = 2;
  {
    Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
    EXPECT_NO_THROW(GpuGbdtTrainer(dev, p).train(ds));
  }
  {
    GBDTParam pd = p;
    pd.dense_layout = true;
    Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
    EXPECT_NO_THROW(GpuGbdtTrainer(dev, pd).train(data::generate([] {
      data::SyntheticSpec s;
      s.n_instances = 300;
      s.n_attributes = 6;
      s.density = 1.0;
      s.distinct_values = 5;
      s.seed = 17;
      return s;
    }())));
  }
  {
    GBDTParam pr = p;
    pr.use_rle = true;
    pr.force_rle = true;
    Device dev(DeviceConfig::titan_x_pascal(), /*host_workers=*/4);
    EXPECT_NO_THROW(GpuGbdtTrainer(dev, pr).train(ds));
  }
  analysis::set_audit_enabled(false);
}

}  // namespace
}  // namespace gbdt
