// End-to-end tests of the `gbdt` command line: every subcommand is driven
// through a real subprocess against generated LibSVM files.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef GBDT_CLI_PATH
#error "GBDT_CLI_PATH must be defined by the build"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run(const std::string& args) {
  const std::string cmd = std::string(GBDT_CLI_PATH) + " " + args +
                          " > /tmp/gbdt_cli_out.txt 2>&1";
  CommandResult r;
  const int status = std::system(cmd.c_str());
  r.exit_code = WEXITSTATUS(status);
  std::ifstream in("/tmp/gbdt_cli_out.txt");
  std::stringstream buf;
  buf << in.rdbuf();
  r.output = buf.str();
  return r;
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ASSERT_EQ(run("synth --out=/tmp/gbdt_cli_train.libsvm --instances=600 "
                  "--attributes=10 --density=0.8 --seed=5")
                  .exit_code,
              0);
    ASSERT_EQ(run("synth --out=/tmp/gbdt_cli_valid.libsvm --instances=200 "
                  "--attributes=10 --density=0.8 --seed=5")
                  .exit_code,
              0);
  }
};

TEST_F(CliTest, HelpListsSubcommands) {
  const auto r = run("help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* sub :
       {"train", "predict", "eval", "dump", "importance", "synth"}) {
    EXPECT_NE(r.output.find(sub), std::string::npos) << sub;
  }
}

TEST_F(CliTest, NoArgsFailsWithUsage) {
  const auto r = run("");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("subcommands"), std::string::npos);
}

TEST_F(CliTest, TrainPredictEvalRoundTrip) {
  auto r = run("train --data=/tmp/gbdt_cli_train.libsvm "
               "--model=/tmp/gbdt_cli.model --trees=8 --depth=3");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("trained 8 trees"), std::string::npos);
  EXPECT_NE(r.output.find("modeled device time"), std::string::npos);

  r = run("predict --data=/tmp/gbdt_cli_train.libsvm "
          "--model=/tmp/gbdt_cli.model --output=/tmp/gbdt_cli_pred.txt");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream pred("/tmp/gbdt_cli_pred.txt");
  int lines = 0;
  std::string line;
  while (std::getline(pred, line)) ++lines;
  EXPECT_EQ(lines, 600);

  r = run("eval --data=/tmp/gbdt_cli_train.libsvm --model=/tmp/gbdt_cli.model");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("rmse:"), std::string::npos);
}

TEST_F(CliTest, TrainWithValidationAndEarlyStopping) {
  const auto r =
      run("train --data=/tmp/gbdt_cli_train.libsvm "
          "--valid=/tmp/gbdt_cli_valid.libsvm --early-stopping=3 "
          "--model=/tmp/gbdt_cli_es.model --trees=100 --depth=6 --eta=0.8");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("validation rmse"), std::string::npos);
}

TEST_F(CliTest, HistTrainsWithValidation) {
  const auto r =
      run("train --data=/tmp/gbdt_cli_train.libsvm --method=hist "
          "--valid=/tmp/gbdt_cli_valid.libsvm --early-stopping=3 "
          "--model=/tmp/gbdt_cli_hist_es.model --trees=20 --depth=4");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("validation rmse"), std::string::npos);
}

TEST_F(CliTest, MultiGpuRejectsBadParameters) {
  // The multi-GPU trainer runs the same parameter check as one device.
  auto r = run("train --data=/tmp/gbdt_cli_train.libsvm "
               "--model=/tmp/gbdt_cli_bad.model --gpus=2 --trees=0");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("n_trees must be >= 1"), std::string::npos)
      << r.output;
  r = run("train --data=/tmp/gbdt_cli_train.libsvm "
          "--model=/tmp/gbdt_cli_bad.model --gpus=2 --depth=0");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("depth must be >= 1"), std::string::npos)
      << r.output;
}

TEST_F(CliTest, DumpShowsTreeStructure) {
  const auto r = run("dump --model=/tmp/gbdt_cli.model --tree=0");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("booster[0]"), std::string::npos);
  EXPECT_NE(r.output.find("leaf="), std::string::npos);
  EXPECT_EQ(r.output.find("booster[1]"), std::string::npos);  // filtered
}

TEST_F(CliTest, ImportanceRanksFeatures) {
  const auto r = run("importance --model=/tmp/gbdt_cli.model --kind=gain");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("f"), std::string::npos);
  // Scores are descending.
  std::istringstream in(r.output);
  std::string name;
  double prev = 1e18, v = 0;
  while (in >> name >> v) {
    EXPECT_LE(v, prev);
    prev = v;
  }
}

TEST_F(CliTest, LogisticLossFlag) {
  ASSERT_EQ(run("synth --out=/tmp/gbdt_cli_bin.libsvm --instances=400 "
                "--attributes=8 --binary --seed=9")
                .exit_code,
            0);
  const auto r = run("train --data=/tmp/gbdt_cli_bin.libsvm "
                     "--model=/tmp/gbdt_cli_bin.model --trees=5 --depth=3 "
                     "--loss=logistic");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // Logistic fits are reported over probabilities, not raw margins.
  EXPECT_NE(r.output.find("train logloss "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("train error "), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("train rmse"), std::string::npos) << r.output;
  const auto g = run("train --data=/tmp/gbdt_cli_bin.libsvm "
                     "--model=/tmp/gbdt_cli_bin.model --trees=3 --depth=3 "
                     "--loss=logistic --gpus=2");
  ASSERT_EQ(g.exit_code, 0) << g.output;
  EXPECT_NE(g.output.find("train logloss "), std::string::npos) << g.output;
  EXPECT_NE(g.output.find("train error "), std::string::npos) << g.output;
}

TEST_F(CliTest, PaperDatasetSynth) {
  const auto r = run("synth --out=/tmp/gbdt_cli_covtype.libsvm "
                     "--paper=covtype --scale=0.01");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("x 54"), std::string::npos);
}

TEST_F(CliTest, BadInputsFailGracefully) {
  EXPECT_NE(run("train --model=/tmp/x.model").exit_code, 0);  // no data
  EXPECT_NE(run("train --data=/nonexistent --model=/tmp/x.model").exit_code,
            0);
  EXPECT_NE(run("predict --data=/tmp/gbdt_cli_train.libsvm "
                "--model=/nonexistent")
                .exit_code,
            0);
  EXPECT_NE(run("frobnicate").exit_code, 0);
  EXPECT_NE(run("train --data=a --model=b --loss=hinge").exit_code, 0);
  EXPECT_NE(run("synth --out=/tmp/x --paper=unknown-set").exit_code, 0);
  // A label that is not a number fails the run instead of dropping its row.
  {
    std::ofstream out("/tmp/gbdt_cli_bad_label.libsvm");
    out << "1 1:0.5\nabc 1:0.25\n0 1:0.75\n";
  }
  const auto bad_label = run("train --data=/tmp/gbdt_cli_bad_label.libsvm "
                             "--model=/tmp/x.model --trees=1 --depth=1");
  EXPECT_EQ(bad_label.exit_code, 1) << bad_label.output;
  EXPECT_NE(bad_label.output.find("line 2"), std::string::npos)
      << bad_label.output;
}

// A nan label fails training naming its line, instead of training to nan
// weights and writing a model file that cannot be loaded back.
TEST_F(CliTest, NonFiniteLabelFailsTrainingNamingTheLine) {
  {
    std::ofstream out("/tmp/gbdt_cli_nan_label.libsvm");
    out << "1 1:0.5\nnan 1:0.25\n0 1:0.75\n1 1:1\n";
  }
  std::remove("/tmp/gbdt_cli_nan.model");
  const auto r = run("train --data=/tmp/gbdt_cli_nan_label.libsvm "
                     "--model=/tmp/gbdt_cli_nan.model --trees=1 --depth=1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("line 2: non-finite label 'nan'"),
            std::string::npos)
      << r.output;
  EXPECT_FALSE(std::ifstream("/tmp/gbdt_cli_nan.model").good());
}

// A model whose split names an attribute outside [0, n_attributes) must not
// load: predicting with it would send every row down the missing branch.
TEST_F(CliTest, PredictRejectsOutOfRangeSplitAttribute) {
  const std::string leaf = "-1 -1 -1 0 0 0.25 0 5 0 0\n";
  for (const char* attr : {"-5", "1000000000"}) {
    {
      std::ofstream out("/tmp/gbdt_cli_bad_attr.model");
      out << "gpu-gbdt-model v2\n0.5 0 4 1\n3\n1 2 " << attr
          << " 0.5 0 0 1 10 0 0\n"
          << leaf << leaf;
    }
    const auto r = run("predict --data=/tmp/gbdt_cli_train.libsvm "
                       "--model=/tmp/gbdt_cli_bad_attr.model");
    EXPECT_EQ(r.exit_code, 1) << attr << ": " << r.output;
    EXPECT_NE(r.output.find(std::string("tree 0 node 0: attribute ") + attr),
              std::string::npos)
        << r.output;
  }
}

TEST_F(CliTest, DeviceSelection) {
  for (const char* dev : {"titanx", "p100", "k20"}) {
    const auto r = run(std::string("train --data=/tmp/gbdt_cli_train.libsvm "
                                   "--model=/tmp/gbdt_cli_dev.model "
                                   "--trees=2 --depth=2 --device=") +
                       dev);
    EXPECT_EQ(r.exit_code, 0) << dev << ": " << r.output;
  }
  EXPECT_NE(run("train --data=/tmp/gbdt_cli_train.libsvm "
                "--model=/tmp/x.model --device=voodoo2")
                .exit_code,
            0);
}

}  // namespace
