// Unit tests for the tree structure, losses, metrics, and model facade
// (save/load round trips, prediction semantics, missing-value routing).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "core/gbdt.h"
#include "core/loss.h"
#include "core/metrics.h"
#include "core/tree.h"
#include "data/synthetic.h"
#include "device/device_context.h"

namespace gbdt {
namespace {

/// x[0] >= 1.0 -> left leaf (+1), else right leaf (-1); missing goes right.
Tree stump() {
  Tree t;
  const auto [l, r] = t.split(0, /*attr=*/0, /*split_value=*/1.0f,
                              /*default_left=*/false, /*gain=*/5.0);
  t.node(l).weight = 1.0;
  t.node(r).weight = -1.0;
  return t;
}

TEST(Tree, SplitCreatesChildren) {
  Tree t;
  EXPECT_EQ(t.n_nodes(), 1);
  EXPECT_TRUE(t.node(0).is_leaf());
  const auto [l, r] = t.split(0, 3, 0.5f, true, 2.0);
  EXPECT_EQ(t.n_nodes(), 3);
  EXPECT_FALSE(t.node(0).is_leaf());
  EXPECT_EQ(t.node(0).left, l);
  EXPECT_EQ(t.node(0).right, r);
  EXPECT_EQ(t.node(0).attr, 3);
  EXPECT_TRUE(t.node(0).default_left);
  EXPECT_EQ(t.depth(), 1);
  EXPECT_EQ(t.n_leaves(), 2);
}

TEST(Tree, PredictRoutesBySplitValue) {
  const Tree t = stump();
  const std::int32_t attrs[] = {0};
  const float hi[] = {1.5f};
  const float eq[] = {1.0f};  // boundary: >= goes left
  const float lo[] = {0.5f};
  EXPECT_EQ(t.predict(attrs, hi, 1), 1.0);
  EXPECT_EQ(t.predict(attrs, eq, 1), 1.0);
  EXPECT_EQ(t.predict(attrs, lo, 1), -1.0);
}

TEST(Tree, MissingFollowsDefaultDirection) {
  const Tree t = stump();  // default right
  const std::int32_t attrs[] = {7};  // attribute 0 missing
  const float vals[] = {3.f};
  EXPECT_EQ(t.predict(attrs, vals, 1), -1.0);
  EXPECT_EQ(t.predict(nullptr, nullptr, 0), -1.0);

  Tree t2;
  const auto [l2, r2] = t2.split(0, 0, 1.0f, /*default_left=*/true, 1.0);
  t2.node(l2).weight = 1.0;
  t2.node(r2).weight = -1.0;
  EXPECT_EQ(t2.predict(attrs, vals, 1), 1.0);
}

TEST(Tree, LeafForReturnsLeafIds) {
  Tree t = stump();
  const std::int32_t attrs[] = {0};
  const float hi[] = {2.f};
  const auto leaf = t.leaf_for(attrs, hi, 1);
  EXPECT_TRUE(t.node(leaf).is_leaf());
  EXPECT_EQ(t.node(leaf).weight, 1.0);
}

TEST(Tree, DumpMentionsEveryNode) {
  Tree t = stump();
  const std::string d = t.dump();
  EXPECT_NE(d.find("f0"), std::string::npos);
  EXPECT_NE(d.find("leaf="), std::string::npos);
  EXPECT_NE(d.find("gain="), std::string::npos);
}

TEST(Tree, SerializeRoundTrips) {
  Tree t;
  const auto [l, r] = t.split(0, 2, 0.75f, true, 3.5);
  const auto [ll, lr] = t.split(l, 5, -1.25f, false, 1.5);
  t.node(ll).weight = 0.125;
  t.node(lr).weight = -0.5;
  t.node(r).weight = 2.0;
  t.node(0).n_instances = 100;

  std::stringstream buf;
  t.serialize(buf);
  const Tree back = Tree::deserialize(buf, 6);
  EXPECT_TRUE(Tree::same_structure(t, back, 0.0));
  EXPECT_EQ(back.node(0).n_instances, 100);
  EXPECT_EQ(back.depth(), 2);
}

TEST(Tree, DeserializeRejectsGarbage) {
  std::stringstream bad("not a tree");
  EXPECT_THROW((void)Tree::deserialize(bad, 1), std::runtime_error);
  std::stringstream truncated("3\n1 2 0 0.5 0 0 1 10 0 0\n");
  EXPECT_THROW((void)Tree::deserialize(truncated, 1), std::runtime_error);
  // A node count far beyond the data is truncation, not an allocation.
  std::stringstream huge("1000000000000\n-1 -1 -1 0 0 0.5 0 1 0 0\n");
  EXPECT_THROW((void)Tree::deserialize(huge, 1), std::runtime_error);
}

/// The message `fn` throws as TreeFormatError ("" if it does not).
template <typename Fn>
std::string tree_format_error(Fn fn) {
  try {
    fn();
  } catch (const TreeFormatError& e) {
    return e.what();
  }
  return "";
}

// A non-finite weight or threshold is a format error naming the tree and
// node, not a parse failure reported as truncation.
TEST(Tree, DeserializeRejectsNonFiniteNumbersNamingTheNode) {
  const auto load = [](const std::string& text) {
    return tree_format_error([&] {
      std::stringstream in(text);
      (void)Tree::deserialize(in, 4, /*tree_index=*/7);
    });
  };
  const std::string leaf = "-1 -1 -1 0 0 0.25 0 5 0 0\n";
  EXPECT_NE(load("3\n1 2 0 0.5 0 0 1 10 0 0\n" + leaf +
                 "-1 -1 -1 0 0 -nan 0 5 0 0\n")
                .find("tree 7 node 2: non-finite weight"),
            std::string::npos);
  EXPECT_NE(load("3\n1 2 0 inf 0 0 1 10 0 0\n" + leaf + leaf)
                .find("tree 7 node 0: non-finite threshold"),
            std::string::npos);
  EXPECT_NE(load("1\n-1 -1 -1 0 0 0.5 nan 5 0 0\n")
                .find("tree 7 node 0: non-finite gain"),
            std::string::npos);
  EXPECT_EQ(load("1\n" + leaf), "");
}

// Saving refuses a forest with a non-finite number before it writes a file
// that could not be loaded back.
TEST(Tree, SaveRefusesNonFiniteWeightsAndThresholds) {
  const std::string path = ::testing::TempDir() + "gbdt_nonfinite.model";
  std::remove(path.c_str());
  Tree bad_weight = stump();
  bad_weight.node(2).weight = std::nan("");
  Tree bad_threshold = stump();
  bad_threshold.node(0).split_value = INFINITY;
  GBDTParam p;
  const auto save_error = [&](const Tree& t) {
    return tree_format_error(
        [&] { GBDTModel(p, {stump(), t}, 0.5, 1).save(path); });
  };
  EXPECT_NE(save_error(bad_weight).find("tree 1 node 2: non-finite weight"),
            std::string::npos);
  EXPECT_NE(
      save_error(bad_threshold).find("tree 1 node 0: non-finite threshold"),
      std::string::npos);
  EXPECT_FALSE(std::ifstream(path).good()) << "no file may be written";
  EXPECT_EQ(save_error(stump()), "");
  std::remove(path.c_str());
}

TEST(Tree, SameStructureDetectsDifferences) {
  Tree a = stump();
  Tree b = stump();
  EXPECT_TRUE(Tree::same_structure(a, b));
  b.node(1).weight += 1e-3;
  EXPECT_FALSE(Tree::same_structure(a, b, 1e-9));
  EXPECT_TRUE(Tree::same_structure(a, b, 1e-2));
  Tree c;
  EXPECT_FALSE(Tree::same_structure(a, c));
}

TEST(Loss, SquaredErrorDerivatives) {
  SquaredErrorLoss l;
  const auto gp = l.gradient(/*y=*/3.f, /*yhat=*/5.f);
  EXPECT_DOUBLE_EQ(gp.g, 2.0);
  EXPECT_DOUBLE_EQ(gp.h, 1.0);
  EXPECT_DOUBLE_EQ(l.transform(4.2), 4.2);
}

TEST(Loss, LogisticDerivatives) {
  LogisticLoss l;
  const auto gp = l.gradient(/*y=*/1.f, /*yhat=*/0.f);
  EXPECT_NEAR(gp.g, -0.5, 1e-12);  // sigmoid(0) - 1
  EXPECT_NEAR(gp.h, 0.25, 1e-12);
  EXPECT_NEAR(l.transform(0.0), 0.5, 1e-12);
  EXPECT_GT(l.transform(10.0), 0.99);
  // Hessian stays positive even at saturated predictions.
  EXPECT_GT(l.gradient(0.f, 100.f).h, 0.0);
}

TEST(Loss, FactoryAndGainFormula) {
  EXPECT_STREQ(make_loss(LossKind::kSquaredError)->name(), "squared_error");
  EXPECT_STREQ(make_loss(LossKind::kLogistic)->name(), "logistic");
  // Perfectly balanced split of zero-sum gradients has no gain.
  EXPECT_DOUBLE_EQ(split_gain(0, 5, 0, 5, 1.0), 0.0);
  // Separating opposite gradients has positive gain.
  EXPECT_GT(split_gain(-10, 5, 10, 5, 1.0), 0.0);
  // Leaf weight formula.
  EXPECT_DOUBLE_EQ(leaf_weight(-6, 2, 1.0), 2.0);
}

TEST(Metrics, RmseAndErrorRate) {
  const std::vector<double> pred{1.0, 0.0, 1.0, 0.25};
  const std::vector<float> label{1.f, 0.f, 0.f, 0.f};
  EXPECT_NEAR(rmse(pred, label), std::sqrt((1.0 + 0.0625) / 4.0), 1e-12);
  EXPECT_DOUBLE_EQ(error_rate(pred, label), 0.25);
  EXPECT_DOUBLE_EQ(rmse({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(error_rate({}, {}), 0.0);
}

TEST(Model, SaveLoadPreservesPredictions) {
  data::SyntheticSpec spec;
  spec.n_instances = 300;
  spec.n_attributes = 8;
  spec.density = 0.7;
  spec.seed = 5;
  const auto ds = data::generate(spec);
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  GBDTParam p;
  p.depth = 3;
  p.n_trees = 4;
  auto [model, report] = GBDTModel::train(dev, ds, p);

  const std::string path = "/tmp/gbdt_model_test.txt";
  model.save(path);
  const auto loaded = GBDTModel::load(path);
  const auto a = model.predict(ds);
  const auto b = loaded.predict(ds);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Model, LoadRejectsWrongMagic) {
  const std::string path = "/tmp/gbdt_not_a_model.txt";
  {
    std::ofstream out(path);
    out << "something else\n";
  }
  EXPECT_THROW((void)GBDTModel::load(path), std::runtime_error);
  EXPECT_THROW((void)GBDTModel::load("/tmp/gbdt_missing_file.txt"),
               std::runtime_error);
}

/// Writes a model file over 2 attributes holding `trees` (serialized tree
/// text) and returns the error GBDTModel::load throws on it ("" if none).
std::string load_error(const std::string& path, std::size_t n_trees,
                       const std::string& trees, int loss_kind = 0) {
  {
    std::ofstream out(path);
    out << "gpu-gbdt-model v2\n0.5 " << loss_kind << " 2 " << n_trees
        << "\n"
        << trees;
  }
  try {
    (void)GBDTModel::load(path);
  } catch (const TreeFormatError& e) {
    return e.what();
  }
  return "";
}

// A split node whose child is itself or an earlier node would send
// prediction walks around a cycle forever; the loader must refuse both.
TEST(Model, LoadRejectsChildCycles) {
  const std::string leaf = "-1 -1 -1 0 0 0.25 0 5 0 0\n";
  const std::string valid = "3\n1 2 0 0.5 0 0 1 10 0 0\n" + leaf + leaf;

  const std::string self_loop = "3\n0 2 0 0.5 0 0 1 10 0 0\n" + leaf + leaf;
  const std::string err_self =
      load_error("/tmp/gbdt_self_loop_model.txt", 1, self_loop);
  EXPECT_NE(err_self.find("tree 0 node 0"), std::string::npos) << err_self;

  // Second tree, node 2 -> node 0: a cycle through the root.
  const std::string backward = "4\n1 2 0 0.5 0 0 1 10 0 0\n" + leaf +
                               "3 0 1 0.5 0 0 1 5 0 0\n" + leaf;
  const std::string err_back =
      load_error("/tmp/gbdt_backward_model.txt", 2, valid + backward);
  EXPECT_NE(err_back.find("tree 1 node 2"), std::string::npos) << err_back;

  EXPECT_EQ(load_error("/tmp/gbdt_valid_model.txt", 1, valid), "");
}

// A split on an attribute the model does not have would route every row down
// the missing-value branch; the loader must refuse it.
TEST(Model, LoadRejectsOutOfRangeAttributes) {
  const std::string leaf = "-1 -1 -1 0 0 0.25 0 5 0 0\n";
  for (const std::string attr : {"-5", "1000000000", "2"}) {
    const std::string tree =
        "3\n1 2 " + attr + " 0.5 0 0 1 10 0 0\n" + leaf + leaf;
    const std::string err =
        load_error("/tmp/gbdt_bad_attr_model.txt", 1, tree);
    EXPECT_NE(err.find("tree 0 node 0: attribute " + attr),
              std::string::npos)
        << err;
  }
  // Leaves carry attr -1 and are never checked.
  const std::string valid = "3\n1 2 1 0.5 0 0 1 10 0 0\n" + leaf + leaf;
  EXPECT_EQ(load_error("/tmp/gbdt_bad_attr_model.txt", 1, valid), "");
}

TEST(Model, LoadRejectsUnknownLossKind) {
  const std::string stump = "1\n-1 -1 -1 0 0 0.25 0 5 0 0\n";
  for (int kind : {-1, 2, 7}) {
    const std::string err =
        load_error("/tmp/gbdt_bad_loss_model.txt", 1, stump, kind);
    EXPECT_NE(err.find("unknown loss kind " + std::to_string(kind)),
              std::string::npos)
        << err;
  }
  EXPECT_EQ(load_error("/tmp/gbdt_bad_loss_model.txt", 1, stump, 1), "");
}

}  // namespace
}  // namespace gbdt
