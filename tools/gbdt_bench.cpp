// Benchmark suite runner: executes the paper-reproduction bench binaries,
// collects their gbdt-bench-v1 JSON reports into one consolidated
// BENCH_suite.json ("gbdt-bench-suite-v1"), and optionally compares the
// result against a historical suite report, exiting nonzero when any case's
// modeled seconds regressed past the threshold.
//
//   gbdt_bench --json=BENCH_suite.json                 # run + consolidate
//   gbdt_bench --quick --json=s.json                   # tiny-scale smoke
//   gbdt_bench --json=s.json --compare=old.json        # run, then compare
//   gbdt_bench --compare-only --json=s.json --compare=old.json
//   gbdt_bench --compare-only --json=s.json            # ordering gate only
//
// Comparison keys on cases' metrics.modeled_seconds — the simulation is
// deterministic, so any drift is a real cost-model or algorithm change, not
// machine noise; the threshold exists for intentional small reworks.
//
// Every gated report (--compare or --compare-only) also passes two ordering
// gates inside itself, at the same threshold: each multigpu ring or tree
// case must model no slower than its all-to-one partner (same dataset, shard
// mode and shard count), and each fig9 case's autotuned run
// (autotune_seconds) no slower than its fixed-constant run
// (modeled_seconds).
//
// Exit codes: 0 ok, 1 regression or ordering violation detected, 2 usage
// error, 3 a bench failed.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

#ifndef GBDT_BENCH_DIR
#define GBDT_BENCH_DIR "."
#endif

namespace {

using gbdt::obs::Json;

struct BenchEntry {
  const char* name;    // suite name and BENCH_<name>.json stem
  const char* binary;  // executable inside the bench dir
};

// bench_primitives is deliberately absent: it emits google-benchmark's own
// JSON schema (via the --json= passthrough), which the suite cannot merge.
constexpr BenchEntry kBenches[] = {
    {"table2", "bench_table2"},
    {"fig8a", "bench_fig8a"},
    {"fig8b", "bench_fig8b"},
    {"fig9", "bench_fig9"},
    {"fig10a", "bench_fig10a"},
    {"fig10b", "bench_fig10b"},
    {"devices", "bench_devices"},
    {"exact_vs_hist", "bench_exact_vs_hist"},
    {"out_of_core", "bench_out_of_core"},
    {"multigpu", "bench_multigpu"},
    {"serve", "bench_serve"},
    {"objective", "bench_objective"},
};

struct SuiteOptions {
  std::string json_path = "BENCH_suite.json";
  std::string compare_path;
  std::string bench_dir = GBDT_BENCH_DIR;
  std::string out_dir = ".";
  std::vector<std::string> only;
  double threshold_pct = 5.0;
  bool quick = false;
  bool list = false;
  bool compare_only = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "  --list              list the suite's benches and exit\n"
      "  --only=<a,b,...>    run only the named benches\n"
      "  --quick             tiny scale (smoke-test speed)\n"
      "  --json=<path>       consolidated suite report "
      "(default BENCH_suite.json)\n"
      "  --out-dir=<dir>     where per-bench BENCH_<name>.json land "
      "(default .)\n"
      "  --bench-dir=<dir>   bench binaries location "
      "(default: build tree)\n"
      "  --compare=<path>    old suite report to compare against\n"
      "  --compare-only      skip running; gate --json (and compare it "
      "against\n"
      "                      --compare when given)\n"
      "  --threshold=<pct>   modeled-seconds regression threshold "
      "(default 5)\n"
      "  --help              this message\n",
      argv0);
}

bool parse_args(int argc, char** argv, SuiteOptions& o) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(argv[0]);
      std::exit(0);
    } else if (std::strcmp(a, "--list") == 0) {
      o.list = true;
    } else if (std::strcmp(a, "--quick") == 0) {
      o.quick = true;
    } else if (std::strcmp(a, "--compare-only") == 0) {
      o.compare_only = true;
    } else if (std::strncmp(a, "--only=", 7) == 0) {
      std::string rest = a + 7;
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = rest.find(',', pos);
        const std::string item =
            rest.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!item.empty()) o.only.push_back(item);
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      o.json_path = a + 7;
    } else if (std::strncmp(a, "--out-dir=", 10) == 0) {
      o.out_dir = a + 10;
    } else if (std::strncmp(a, "--bench-dir=", 12) == 0) {
      o.bench_dir = a + 12;
    } else if (std::strncmp(a, "--compare=", 10) == 0) {
      o.compare_path = a + 10;
    } else if (std::strncmp(a, "--threshold=", 12) == 0) {
      o.threshold_pct = std::atof(a + 12);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a);
      return false;
    }
  }
  return true;
}

bool selected(const SuiteOptions& o, const char* name) {
  if (o.only.empty()) return true;
  for (const auto& s : o.only) {
    if (s == name) return true;
  }
  return false;
}

/// Runs one bench binary, returning its exit code (-1: could not run).
int run_bench(const SuiteOptions& o, const BenchEntry& b,
              const std::string& report_path) {
  std::string cmd = "'" + o.bench_dir + "/" + b.binary + "'";
  if (o.quick) cmd += " --scale=0.1 --trees=2 --depth=3";
  cmd += " --json='" + report_path + "' > /dev/null";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

/// Flattens a suite doc into (bench/case, metrics.<metric>) rows.
std::vector<std::pair<std::string, double>> metric_rows(
    const Json& suite, const char* metric = "modeled_seconds") {
  std::vector<std::pair<std::string, double>> rows;
  const Json* benches = suite.find("benches");
  if (benches == nullptr) return rows;
  for (const auto& [bname, bdoc] : benches->members()) {
    const Json* cases = bdoc.find("cases");
    if (cases == nullptr) continue;
    for (const Json& c : cases->items()) {
      const Json* name = c.find("name");
      const Json* metrics = c.find("metrics");
      if (name == nullptr || metrics == nullptr) continue;
      const Json* value = metrics->find(metric);
      if (value == nullptr || !value->is_number()) continue;
      rows.emplace_back(bname + "/" + name->str(), value->number_or(0.0));
    }
  }
  return rows;
}

/// The modeled seconds of row `key`, or null when the report lacks it.
const double* find_row(const std::vector<std::pair<std::string, double>>& rows,
                       const std::string& key) {
  for (const auto& [k, secs] : rows) {
    if (k == key) return &secs;
  }
  return nullptr;
}

/// Compares two suite reports; returns the number of regressions.
int compare_suites(const Json& now, const Json& old, double threshold_pct) {
  const auto new_rows = metric_rows(now);
  const auto old_rows = metric_rows(old);
  int regressions = 0;
  int matched = 0;
  for (const auto& [key, new_secs] : new_rows) {
    const double* old_secs = find_row(old_rows, key);
    if (old_secs == nullptr) {
      std::printf("  NEW       %-46s %12.6fs\n", key.c_str(), new_secs);
      continue;
    }
    ++matched;
    const double limit = *old_secs * (1.0 + threshold_pct / 100.0);
    const double delta_pct =
        *old_secs > 0.0 ? 100.0 * (new_secs - *old_secs) / *old_secs : 0.0;
    if (new_secs > limit) {
      ++regressions;
      std::printf("  REGRESSED %-46s %12.6fs -> %12.6fs (%+.1f%%)\n",
                  key.c_str(), *old_secs, new_secs, delta_pct);
    }
  }
  std::printf("compared %d cases, %d regression(s) beyond %.1f%%\n", matched,
              regressions, threshold_pct);
  return regressions;
}

/// The collective-ordering gate over one suite report: every multigpu
/// `*_ring_*` / `*_tree_*` case at K >= 2 must model no slower than the
/// `*_alltoone_*` case of the same name, i.e. the same dataset, shard mode
/// and shard count.  K = 1 cases run no collective and need no partner; a
/// missing partner counts as a violation, so dropping one cannot hide a case.
/// Returns the number of violations.
int collective_order_violations(const Json& suite, double threshold_pct) {
  const std::string prefix = "multigpu/";
  const auto rows = metric_rows(suite);
  int violations = 0;
  int checked = 0;
  for (const auto& [key, secs] : rows) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    if (key.size() >= 6 && key.compare(key.size() - 6, 6, "_gpus1") == 0) {
      continue;
    }
    std::string partner = key;
    for (const std::string_view algo : {"_ring_", "_tree_"}) {
      const std::size_t at = partner.find(algo);
      if (at != std::string::npos) {
        partner.replace(at, algo.size(), "_alltoone_");
        break;
      }
    }
    if (partner == key) continue;
    const double* base = find_row(rows, partner);
    if (base == nullptr) {
      ++violations;
      std::printf("  UNPAIRED  %-46s (no %s)\n", key.c_str(), partner.c_str());
      continue;
    }
    ++checked;
    if (secs > *base * (1.0 + threshold_pct / 100.0)) {
      ++violations;
      std::printf("  SLOWER    %-46s %12.6fs vs all-to-one %12.6fs (%+.1f%%)\n",
                  key.c_str(), secs, *base,
                  *base > 0.0 ? 100.0 * (secs - *base) / *base : 0.0);
    }
  }
  std::printf(
      "checked %d ring/tree case(s) against all-to-one, %d violation(s) "
      "beyond %.1f%%\n",
      checked, violations, threshold_pct);
  return violations;
}

/// The autotune ordering gate over one suite report: every fig9 case's
/// autotune_seconds (the cost-model-tuned run) must model no slower than its
/// modeled_seconds (the paper's fixed constants).  A fig9 case without an
/// autotune_seconds partner counts as a violation.  Returns the number of
/// violations.
int autotune_order_violations(const Json& suite, double threshold_pct) {
  const std::string prefix = "fig9/";
  const auto tuned_rows = metric_rows(suite, "autotune_seconds");
  int violations = 0;
  int checked = 0;
  for (const auto& [key, secs] : metric_rows(suite)) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    const double* tuned = find_row(tuned_rows, key);
    if (tuned == nullptr) {
      ++violations;
      std::printf("  UNPAIRED  %-46s (no autotune_seconds)\n", key.c_str());
      continue;
    }
    ++checked;
    if (*tuned > secs * (1.0 + threshold_pct / 100.0)) {
      ++violations;
      std::printf("  SLOWER    %-46s autotuned %12.6fs vs fixed %12.6fs "
                  "(%+.1f%%)\n",
                  key.c_str(), *tuned, secs,
                  secs > 0.0 ? 100.0 * (*tuned - secs) / secs : 0.0);
    }
  }
  std::printf(
      "checked %d fig9 case(s) autotuned against fixed constants, %d "
      "violation(s) beyond %.1f%%\n",
      checked, violations, threshold_pct);
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  SuiteOptions opt;
  if (!parse_args(argc, argv, opt)) return 2;

  if (opt.list) {
    for (const auto& b : kBenches) std::printf("%s\n", b.name);
    std::printf(
        "(bench_primitives is excluded: google-benchmark JSON schema)\n");
    return 0;
  }

  Json suite;
  std::string err;
  if (opt.compare_only) {
    suite = gbdt::obs::read_json_file(opt.json_path, &err);
    if (suite.is_null()) {
      std::fprintf(stderr, "cannot read %s: %s\n", opt.json_path.c_str(),
                   err.c_str());
      return 2;
    }
  } else {
    suite = Json::object();
    suite["schema"] = "gbdt-bench-suite-v1";
    auto run_opts = Json::object();
    run_opts["quick"] = opt.quick;
    suite["options"] = std::move(run_opts);
    suite["benches"] = Json::object();
    for (const auto& b : kBenches) {
      if (!selected(opt, b.name)) continue;
      const std::string report_path =
          opt.out_dir + "/BENCH_" + b.name + ".json";
      std::printf("running %-14s ...", b.name);
      std::fflush(stdout);
      const int rc = run_bench(opt, b, report_path);
      if (rc != 0) {
        std::printf(" FAILED (exit %d)\n", rc);
        return 3;
      }
      Json doc = gbdt::obs::read_json_file(report_path, &err);
      if (doc.is_null()) {
        std::printf(" no report (%s)\n", err.c_str());
        return 3;
      }
      const std::size_t n_cases =
          doc.find("cases") != nullptr ? doc.find("cases")->size() : 0;
      std::printf(" ok (%zu cases)\n", n_cases);
      suite["benches"][b.name] = std::move(doc);
    }
    if (!gbdt::obs::write_json_file(opt.json_path, suite)) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 3;
    }
    std::printf("suite report: %s\n", opt.json_path.c_str());
  }

  int failures = 0;
  if (!opt.compare_path.empty()) {
    const Json old = gbdt::obs::read_json_file(opt.compare_path, &err);
    if (old.is_null()) {
      std::fprintf(stderr, "cannot read %s: %s\n", opt.compare_path.c_str(),
                   err.c_str());
      return 2;
    }
    failures += compare_suites(suite, old, opt.threshold_pct);
  }
  if (opt.compare_only || !opt.compare_path.empty()) {
    failures += collective_order_violations(suite, opt.threshold_pct);
    failures += autotune_order_violations(suite, opt.threshold_pct);
  }
  return failures > 0 ? 1 : 0;
}
