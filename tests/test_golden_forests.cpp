// Golden forests: every trainer path, trained on one fixed synthetic set
// with missing values, must reproduce pinned results exactly — the FNV-1a
// hash of the saved model text and the path's reported modeled train
// seconds (compared as %a hex strings, so "equal" means bitwise).
//
// The constants were measured before the trainer loops were folded into one
// boosting driver; they hold across refactors that claim "same forests, same
// modeled seconds".  A change that legitimately moves a forest or the cost
// model re-pins them and says why (a failure prints the measured values).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "core/gbdt.h"
#include "core/out_of_core.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"

namespace gbdt {
namespace {

using device::Device;
using device::DeviceConfig;

const data::Dataset& golden_data() {
  static const data::Dataset ds = [] {
    data::SyntheticSpec s;
    s.n_instances = 600;
    s.n_attributes = 20;
    s.density = 0.7;         // ~30% missing values per row
    s.distinct_values = 16;  // repeats: RLE and compressed chunks engage
    s.seed = 20180521;
    return data::generate(s);
  }();
  return ds;
}

GBDTParam golden_param() {
  GBDTParam p;
  p.depth = 4;
  p.n_trees = 5;
  p.n_bins = 32;
  return p;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::uint64_t model_hash(const std::vector<Tree>& trees, double base_score,
                         const std::string& tag) {
  const GBDTModel model(golden_param(), trees, base_score,
                        golden_data().n_attributes());
  const std::string path = ::testing::TempDir() + "gbdt_golden_" + tag;
  model.save(path);
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  std::remove(path.c_str());
  return fnv1a(os.str());
}

struct Golden {
  std::uint64_t hash;
  const char* modeled;  // %a of the reported modeled train seconds
};

void expect_golden(const std::string& tag, const std::vector<Tree>& trees,
                   double base_score, double modeled, const Golden& want) {
  const std::uint64_t hash = model_hash(trees, base_score, tag);
  const std::string secs = hex_double(modeled);
  EXPECT_EQ(hash, want.hash) << tag << " forest changed: 0x" << std::hex
                             << hash;
  EXPECT_EQ(secs, want.modeled) << tag << " modeled seconds changed";
}

TEST(GoldenForests, Sparse) {
  GBDTParam p = golden_param();
  p.use_rle = false;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = GpuGbdtTrainer(dev, p).train(golden_data());
  ASSERT_FALSE(r.used_rle);
  expect_golden("sparse", r.trees, r.base_score, r.modeled.total(),
                {0x0a11a6cb28bf8439ULL, "0x1.8a8852fba1518p-10"});
}

TEST(GoldenForests, ForcedRle) {
  GBDTParam p = golden_param();
  p.force_rle = true;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = GpuGbdtTrainer(dev, p).train(golden_data());
  ASSERT_TRUE(r.used_rle);
  expect_golden("rle", r.trees, r.base_score, r.modeled.total(),
                {0x0a11a6cb28bf8439ULL, "0x1.3f16df2bb988ap-9"});
}

TEST(GoldenForests, Hist) {
  GBDTParam p = golden_param();
  p.use_hist_trainer = true;
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = GpuGbdtTrainer(dev, p).train(golden_data());
  expect_golden("hist", r.trees, r.base_score, r.modeled.total(),
                {0x9d96c76c3b2f47d7ULL, "0x1.f3217b50fdbfep-10"});
}

TEST(GoldenForests, OutOfCoreRaw) {
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = OutOfCoreTrainer(dev, golden_param(), std::size_t{1} << 16,
                                  /*stream_compressed=*/false)
                     .train(golden_data());
  ASSERT_GE(r.n_chunks, 2);
  expect_golden("ooc_raw", r.trees, r.base_score, r.modeled_seconds,
                {0x0a11a6cb28bf8439ULL, "0x1.ca9656a0ee6bfp-9"});
}

TEST(GoldenForests, OutOfCoreCompressed) {
  Device dev(DeviceConfig::titan_x_pascal());
  const auto r = OutOfCoreTrainer(dev, golden_param(), std::size_t{1} << 16,
                                  /*stream_compressed=*/true)
                     .train(golden_data());
  ASSERT_GE(r.n_chunks, 2);
  expect_golden("ooc_compressed", r.trees, r.base_score, r.modeled_seconds,
                {0x0a11a6cb28bf8439ULL, "0x1.17fb6f4298f44p-8"});
}

multigpu::MultiTrainReport train_multi(GBDTParam p,
                                       multigpu::ShardMode shard) {
  multigpu::MultiGpuOptions opts;
  opts.shard = shard;
  opts.algo = multigpu::AllreduceAlgo::kRing;
  multigpu::MultiGpuTrainer trainer(DeviceConfig::titan_x_pascal(), 3, p,
                                    multigpu::Interconnect::pcie3(), opts);
  return trainer.train(golden_data());
}

TEST(GoldenForests, MultiGpuExactData) {
  const auto r = train_multi(golden_param(), multigpu::ShardMode::kData);
  expect_golden("mgpu_data", r.trees, r.base_score, r.modeled_seconds,
                {0x0a11a6cb28bf8439ULL, "0x1.63bd61d47de66p-9"});
}

TEST(GoldenForests, MultiGpuExactFeature) {
  const auto r = train_multi(golden_param(), multigpu::ShardMode::kFeature);
  expect_golden("mgpu_feature", r.trees, r.base_score, r.modeled_seconds,
                {0x0a11a6cb28bf8439ULL, "0x1.63c84783790eap-9"});
}

TEST(GoldenForests, MultiGpuHist) {
  GBDTParam p = golden_param();
  p.use_hist_trainer = true;
  const auto r = train_multi(p, multigpu::ShardMode::kData);
  expect_golden("mgpu_hist", r.trees, r.base_score, r.modeled_seconds,
                {0x9d96c76c3b2f47d7ULL, "0x1.f1dcce18c8565p-9"});
}

}  // namespace
}  // namespace gbdt
