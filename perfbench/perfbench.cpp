// The repository benchmark: one run of one workload.
//
//   gbdt_perfbench --workload <name> [--seed <n>] [--seconds <s>]
//                  [--trace 0|1] [--scratch <dir>]
//
// A run samples the workload's training and held-out rows from its dataset
// analog with the seed, then repeats {set the inputs up, one training call,
// a few held-out device predictions} through the public layer APIs, until
// the next repetition would end after --seconds (at least two: the
// repetitions double as the modeled-determinism guard).
// Every repetition checks its outputs.  The last stdout line is one JSON
// object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 one more repetition runs under an obs::ObsSession with the
// benchmark's own spans around each layer call, and the metrics are the
// per-layer ones read from that span tree, the device timeline, the report
// structs and the obs::Registry counters; the traced call's kernel-label and
// phase tables are printed as '#' lines before the result.  Library defaults
// are used throughout (Device host workers, GBDTParam knobs, no autotune,
// the system allocator as configured); the benchmark changes nothing inside
// the library.  perfbench/WORKLOADS.md explains the workloads, metrics and
// checks.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/gbdt.h"
#include "core/metrics.h"
#include "core/out_of_core.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace gbdt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---- workloads -------------------------------------------------------------

enum class Path { kExact, kOutOfCore, kMultiGpuHist };

struct Workload {
  const char* name;
  const char* analog;       // data::paper_datasets name
  double scale;             // analog cardinality scale
  int n_trees;
  std::int64_t n_valid;     // held-out rows
  int predict_passes;       // device predictions timed per repetition
  Path path;
};

// The paper's out-of-core chunk cap; gives 4 chunks on the covtype analog.
constexpr std::size_t kOocChunkBytes = std::size_t{2} << 20;
constexpr int kGpus = 4;

constexpr Workload kWorkloads[] = {
    {"higgs-exact", "higgs", 1.0, 10, 10000, 8, Path::kExact},
    {"news20-rle", "news20", 0.5, 20, 3000, 8, Path::kExact},
    {"covtype-ooc", "covtype", 1.0, 40, 10000, 8, Path::kOutOfCore},
    {"higgs-hist-4gpu", "higgs", 1.0, 10, 10000, 8, Path::kMultiGpuHist},
};

const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Settings that make the library measure a different program.
constexpr const char* kForbiddenEnv[] = {
    "GBDT_SYNC_STREAMS", "GBDT_UNFUSED_SPLIT", "GBDT_ALLTOONE",
    "GBDT_AUTOTUNE",     "GBDT_AUDIT_ACCESS",  "GBDT_RACE_DETECT",
    "GBDT_CHECK_INVARIANTS"};

// ---- inputs ----------------------------------------------------------------

struct Inputs {
  data::Dataset train;
  data::Dataset valid;
};

data::SyntheticSpec workload_spec(const Workload& w) {
  return data::paper_dataset(w.analog, w.scale).spec;
}

/// The workload's inputs for a seed.  The analog's generator, at the
/// analog's own spec seed, makes a pool of kPoolFactor x (training +
/// held-out) rows, so every seed samples one fixed problem; the seed draws
/// which pool rows train and which are held out.  Rows are i.i.d. given the
/// generator's weights and value tables, so each draw is a sample of the
/// analog with its shape (rows, attributes, density, distinct values).
constexpr std::int64_t kPoolFactor = 2;

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  data::SyntheticSpec spec = workload_spec(w);
  const std::int64_t n_train = spec.n_instances;
  const std::int64_t n_rows = n_train + w.n_valid;
  spec.n_instances = kPoolFactor * n_rows;
  const data::Dataset pool = data::generate(spec);

  // Partial Fisher-Yates: idx[0, n_rows) becomes a uniform sample.
  std::vector<std::int64_t> idx(static_cast<std::size_t>(spec.n_instances));
  std::iota(idx.begin(), idx.end(), std::int64_t{0});
  std::mt19937_64 rng(seed);
  for (std::int64_t i = 0; i < n_rows; ++i) {
    const auto left = static_cast<std::uint64_t>(spec.n_instances - i);
    const auto j = i + static_cast<std::int64_t>(rng() % left);
    std::swap(idx[static_cast<std::size_t>(i)],
              idx[static_cast<std::size_t>(j)]);
  }
  const auto train_end = idx.begin() + n_train;
  const auto valid_end = idx.begin() + n_rows;
  std::sort(idx.begin(), train_end);
  std::sort(train_end, valid_end);

  Inputs in{data::Dataset(spec.n_attributes), data::Dataset(spec.n_attributes)};
  for (auto it = idx.begin(); it != valid_end; ++it) {
    data::Dataset& dst = it < train_end ? in.train : in.valid;
    dst.add_instance(pool.instance(*it),
                     pool.labels()[static_cast<std::size_t>(*it)]);
  }
  return in;
}

// ---- one training call -----------------------------------------------------

GBDTParam workload_param(const Workload& w) {
  GBDTParam p;  // the paper's knobs, as the library ships them
  p.n_trees = w.n_trees;
  p.use_hist_trainer = w.path == Path::kMultiGpuHist;
  return p;
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Registry counters read around each training call.
struct Counters {
  std::uint64_t alloc_calls = 0;
  std::uint64_t levels_grown = 0;

  static Counters read() {
    return {counter_value("gbdt_device_alloc_calls_total"),
            counter_value("gbdt_levels_grown_total")};
  }
  Counters operator-(const Counters& o) const {
    return {alloc_calls - o.alloc_calls, levels_grown - o.levels_grown};
  }
};

struct TrainOutcome {
  std::vector<Tree> trees;
  double base_score = 0.0;
  double wall_s = 0.0;
  /// Device makespan of the call (critical path on multi-GPU).
  double modeled_s = 0.0;
  /// Peak device bytes; 0 on multi-GPU, whose shard devices are private.
  std::size_t peak_bytes = 0;
  /// The training device's timeline (single-device paths only).
  std::optional<device::Timeline> timeline;
  Counters counters;
  double rle_ratio = 1.0;
  OutOfCoreReport ooc;               // kOutOfCore only (trees moved out)
  multigpu::MultiTrainReport mgpu;   // kMultiGpuHist only (trees moved out)
};

TrainOutcome train_once(const Workload& w, const data::Dataset& train) {
  const GBDTParam param = workload_param(w);
  const device::DeviceConfig cfg = device::DeviceConfig::titan_x_pascal();
  TrainOutcome out;
  const Counters before = Counters::read();
  obs::ScopedSpan span("bench.train");
  switch (w.path) {
    case Path::kExact: {
      device::Device dev(cfg);
      GpuGbdtTrainer trainer(dev, param);
      const auto t0 = Clock::now();
      TrainReport r = trainer.train(train);
      out.wall_s = seconds_since(t0);
      out.modeled_s = dev.elapsed_seconds();
      out.peak_bytes = r.peak_device_bytes;
      out.timeline = dev.timeline();
      out.rle_ratio = r.rle_ratio;
      out.trees = std::move(r.trees);
      out.base_score = r.base_score;
      break;
    }
    case Path::kOutOfCore: {
      device::Device dev(cfg);
      OutOfCoreTrainer trainer(dev, param, kOocChunkBytes,
                               /*stream_compressed=*/true);
      const auto t0 = Clock::now();
      OutOfCoreReport r = trainer.train(train);
      out.wall_s = seconds_since(t0);
      out.modeled_s = dev.elapsed_seconds();
      out.peak_bytes = r.peak_device_bytes;
      out.timeline = dev.timeline();
      out.trees = std::move(r.trees);
      out.base_score = r.base_score;
      r.train_scores.clear();
      out.ooc = std::move(r);
      break;
    }
    case Path::kMultiGpuHist: {
      multigpu::MultiGpuTrainer trainer(cfg, kGpus, param);
      const auto t0 = Clock::now();
      multigpu::MultiTrainReport r = trainer.train(train);
      out.wall_s = seconds_since(t0);
      out.modeled_s = r.modeled_seconds;
      out.trees = std::move(r.trees);
      out.base_score = r.base_score;
      r.train_scores.clear();
      out.mgpu = std::move(r);
      break;
    }
  }
  out.counters = Counters::read() - before;
  return out;
}

// ---- predictions and output checks -----------------------------------------

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::string forest_text(const std::vector<Tree>& trees) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& t : trees) t.serialize(out);
  return out.str();
}

/// RMSE of predicting every row's label by the rows' mean label.
double mean_label_rmse(const data::Dataset& ds) {
  double mean = 0.0;
  for (const float y : ds.labels()) mean += y;
  mean /= static_cast<double>(ds.labels().size());
  const std::vector<double> pred(ds.labels().size(), mean);
  return rmse(pred, ds.labels());
}

/// Output checks attempted and failed.
struct Tally {
  int attempted = 0;
  int failed = 0;

  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("# check failed: %s\n", what);
    }
  }
  /// A layer exception fails every check of the repetition it cut short.
  void exception(const std::exception& e) {
    std::printf("# layer exception: %s\n", e.what());
    attempted += kChecksPerRepetition;
    failed += kChecksPerRepetition;
  }
  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }

  static constexpr int kChecksPerRepetition = 5;
};

/// One repetition: training call, timed device predictions, output checks.
struct Repetition {
  TrainOutcome train;
  std::vector<double> predict_wall_s;
  double predict_modeled_s = 0.0;
  double valid_rmse = 0.0;
  std::string forest;  // serialized, for the determinism guard
  Tally checks;
};

struct Context {
  const Workload* w = nullptr;
  std::string scratch;      // directory for the model file
  double train_mean_rmse = 0.0;
};

Repetition run_repetition(const Context& ctx, const Inputs& in) {
  const Workload& w = *ctx.w;
  Repetition r;
  r.train = train_once(w, in.train);
  const GBDTParam param = workload_param(w);
  const GBDTModel model(param, r.train.trees, r.train.base_score,
                        in.train.n_attributes());

  std::vector<double> device_pred;
  {
    obs::ScopedSpan span("bench.predict");
    bool modeled_repeats = true;
    for (int p = 0; p < w.predict_passes; ++p) {
      device::Device dev(device::DeviceConfig::titan_x_pascal());
      const auto t0 = Clock::now();
      device_pred = model.predict_device(dev, in.valid);
      r.predict_wall_s.push_back(seconds_since(t0));
      if (p == 0) r.predict_modeled_s = dev.elapsed_seconds();
      modeled_repeats &= dev.elapsed_seconds() == r.predict_modeled_s;
    }
    r.checks.check(modeled_repeats,
                   "every prediction pass has one modeled time");
  }
  const std::vector<double> host_pred = model.predict(in.valid);
  r.checks.check(bitwise_equal(device_pred, host_pred),
        "device predictions equal host GBDTModel::predict bitwise");

  {
    obs::ScopedSpan span("bench.save_load");
    const std::string path = ctx.scratch + "/perfbench_model_" +
                             std::to_string(::getpid()) + ".txt";
    model.save(path);
    const GBDTModel loaded = GBDTModel::load(path);
    std::filesystem::remove(path);
    r.checks.check(bitwise_equal(loaded.predict(in.valid), host_pred),
          "save -> load -> predict equals the in-memory model bitwise");
  }

  bool shape_ok = static_cast<int>(r.train.trees.size()) == param.n_trees;
  for (const auto& t : r.train.trees) shape_ok &= t.depth() <= param.depth;
  r.checks.check(shape_ok, "forest has the requested tree count and depth");

  // The forest must have learned its training rows.  Held-out RMSE is the
  // valid_rmse metric rather than a check: the news20 analog's labels are
  // close to coin flips on unseen rows, so no model beats the mean there.
  r.valid_rmse = rmse(device_pred, in.valid.labels());
  r.checks.check(std::isfinite(r.valid_rmse) &&
                     rmse(model.predict(in.train), in.train.labels()) <
                         ctx.train_mean_rmse,
                 "training-row RMSE beats predicting the training-label mean");
  r.forest = forest_text(r.train.trees);
  return r;
}

/// Modeled results and counts must repeat exactly for the same seed.
void check_determinism(Repetition& r, const Repetition& first) {
  const TrainOutcome& a = first.train;
  const TrainOutcome& b = r.train;
  bool same = a.modeled_s == b.modeled_s && a.peak_bytes == b.peak_bytes &&
              first.predict_modeled_s == r.predict_modeled_s &&
              first.valid_rmse == r.valid_rmse && first.forest == r.forest &&
              a.counters.alloc_calls == b.counters.alloc_calls &&
              a.counters.levels_grown == b.counters.levels_grown &&
              a.mgpu.modeled_seconds == b.mgpu.modeled_seconds &&
              a.mgpu.comm_bytes == b.mgpu.comm_bytes &&
              a.mgpu.comm_messages == b.mgpu.comm_messages &&
              a.ooc.streamed_bytes == b.ooc.streamed_bytes;
  if (a.timeline && b.timeline) {
    const auto& ta = *a.timeline;
    const auto& tb = *b.timeline;
    same = same && ta.kernel_seconds == tb.kernel_seconds &&
           ta.transfer_seconds == tb.transfer_seconds &&
           ta.launches == tb.launches && ta.transfers == tb.transfers &&
           ta.bytes_to_device == tb.bytes_to_device &&
           ta.bytes_to_host == tb.bytes_to_host &&
           ta.kernels.size() == tb.kernels.size();
    for (const auto& [label, ka] : ta.kernels) {
      const auto it = tb.kernels.find(label);
      same = same && it != tb.kernels.end() &&
             it->second.launches == ka.launches &&
             it->second.seconds == ka.seconds &&
             it->second.stats.thread_work == ka.stats.thread_work &&
             it->second.stats.coalesced_bytes == ka.stats.coalesced_bytes &&
             it->second.stats.irregular_accesses ==
                 ka.stats.irregular_accesses &&
             it->second.stats.atomic_ops == ka.stats.atomic_ops;
    }
  }
  r.checks.check(same,
                 "modeled metrics and counts repeat exactly for the seed");
}

// ---- span-tree readers -----------------------------------------------------

const obs::Span* find_span(const obs::Span& s, std::string_view name) {
  if (s.name() == name) return &s;
  for (const auto& c : s.children()) {
    if (const obs::Span* f = find_span(*c, name)) return f;
  }
  return nullptr;
}

/// Self wall seconds: the span's wall minus its children's.
double self_wall(const obs::Span& s) {
  double w = s.stats().wall_seconds;
  for (const auto& c : s.children()) w -= c->stats().wall_seconds;
  return std::max(0.0, w);
}

/// Per span name over a subtree: summed self modeled and self wall seconds.
struct PhaseSelf {
  double modeled_s = 0.0;
  double wall_s = 0.0;
};
void collect_phases(const obs::Span& s, std::map<std::string, PhaseSelf>& out) {
  PhaseSelf& p = out[s.name()];
  p.modeled_s += s.stats().modeled_self_seconds();
  p.wall_s += self_wall(s);
  for (const auto& c : s.children()) collect_phases(*c, out);
}

/// Kernel-label aggregates over a subtree (every device the spans saw).
struct SpanDevice {
  double kernel_s = 0.0;
  double transfer_s = 0.0;
  std::uint64_t launches = 0;
  std::map<std::string, device::KernelRecord> kernels;
};
void collect_device(const obs::Span& s, SpanDevice& out) {
  out.kernel_s += s.stats().kernel_seconds;
  out.transfer_s += s.stats().transfer_seconds;
  out.launches += s.stats().launches;
  for (const auto& [label, agg] : s.stats().kernels) {
    auto& k = out.kernels[label];
    k.launches += agg.launches;
    k.seconds += agg.seconds;
    k.stats += agg.stats;
  }
  for (const auto& c : s.children()) collect_device(*c, out);
}

bool close_rel(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1e-12, std::fabs(a), std::fabs(b)});
}

/// The traced call's checks.  (a) The phases' self modeled seconds add up to
/// the device busy time of the call, read from a source the spans do not
/// feed.  On one device that is the timeline's busy time, which must
/// also cover the makespan.  On multi-GPU the shard devices are private, so
/// the report's per-shard seconds bracket it.  A shard's busy time is at
/// least its makespan and at most makespan / (1 - overlap), and
/// comm_overlap_ratio is the largest shard overlap.  Its makespan is at
/// least its device_seconds, the steps the report tallies, and at most that
/// plus the busy time of the work outside them: the shard_build phase and
/// the trainer's own device calls between steps (mgpu_train's self time).
/// Hence
///   sum(device_seconds) <= phases
///       <= (sum(device_seconds) + shard_build + mgpu_train self)
///          / (1 - comm_overlap_ratio).
/// (b) The traced makespan is the untraced train_modeled_s, exactly.
Tally reconcile(const TrainOutcome& traced, const obs::Span& train_span,
                double untraced_modeled_s) {
  std::map<std::string, PhaseSelf> phases;
  collect_phases(train_span, phases);
  double self_sum = 0.0;
  for (const auto& [name, p] : phases) self_sum += p.modeled_s;
  double lo = 0.0;
  double hi = 0.0;
  if (traced.timeline) {
    lo = hi = traced.timeline->total_seconds();
  } else {
    const multigpu::MultiTrainReport& g = traced.mgpu;
    const obs::Span* build = find_span(train_span, "shard_build");
    const obs::Span* trainer = find_span(train_span, "mgpu_train");
    lo = std::accumulate(g.device_seconds.begin(), g.device_seconds.end(),
                         0.0);
    hi = (lo + (build ? build->modeled_total_seconds() : 0.0) +
          (trainer ? trainer->stats().modeled_self_seconds() : 0.0)) /
         (1.0 - g.comm_overlap_ratio);
  }
  Tally t;
  std::printf("# reconcile phases %.17g device_busy [%.17g, %.17g] makespan "
              "%.17g untraced %.17g\n",
              self_sum, lo, hi, traced.modeled_s, untraced_modeled_s);
  const bool accounted =
      traced.timeline ? close_rel(self_sum, lo) &&
                            lo + 1e-12 >= traced.modeled_s
                      : self_sum >= lo * (1.0 - 1e-9) &&
                            self_sum <= hi * (1.0 + 1e-9);
  t.check(accounted,
          "(a) phase self modeled seconds add up to device busy time");
  t.check(traced.modeled_s == untraced_modeled_s,
          "(b) traced makespan equals the untraced train_modeled_s");
  return t;
}

// ---- statistics and output -------------------------------------------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident host memory, in MiB, of one repetition (set-up, training,
/// predictions, checks) run in a child process forked while this one holds
/// no threads and no inputs.  The child starts from a fresh heap, so the
/// value depends neither on how many repetitions the run fits into
/// --seconds nor on the heap the earlier ones left: with the default
/// allocator, heap fragmentation moved the whole run's peak by up to 20 %.
/// Returns a negative value if the child failed a check or did not finish.
double one_repetition_rss_mib(const Context& ctx, std::uint64_t seed) {
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) return -1.0;
  if (pid == 0) {
    int code = 1;
    try {
      Context c = ctx;
      const Inputs in = make_inputs(*c.w, seed);
      c.train_mean_rmse = mean_label_rmse(in.train);
      code = run_repetition(c, in).checks.failed == 0 ? 0 : 1;
    } catch (const std::exception&) {
    }
    std::_Exit(code);  // the parent owns stdout and every exit handler
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Kernel labels reported one by one: together they hold >= 90 % of kernel
// time on the workload that owns them at its default seed.  Launch counts
// are kept for the labels above 3 % of that time.
struct KernelMetric {
  const char* label;
  bool launches;
};
constexpr KernelMetric kKernels[] = {
    // higgs-exact
    {"fused_gather_seg_scan", true}, {"compute_part_ids", true},
    {"partition_scatter", true},     {"apply_scatter", true},
    {"fused_scan_fixup", true},      {"fused_gain_argmax", true},
    {"scan_add_offsets", true},      {"assign_exact_side", true},
    {"partition_scan", true},        {"partition_count", true},
    // news20-rle
    {"fused_rle_aggregate_seg_scan", true}, {"fused_rle_gain_argmax", true},
    {"set_keys", true},              {"rle_emit_candidates", true},
    {"rle_compute_part_ids", true},  {"rle_compact_runs", true},
    {"rle_scatter_inst", true},      {"rle_new_seg_offsets", false},
    {"rle_cand_counts", false},      {"rle_flag_nonzero", false},
    {"rle_compact_scan", false},     {"rle_assign_exact_side", false},
    // covtype-ooc
    {"stream_ooc_enumerate", true},  {"ooc_exact_side", true},
    // higgs-hist-4gpu
    {"fill", true},                  {"hist_build", true},
    {"hist_merge", true},            {"hist_update_positions", true},
    {"hist_gain_argmax", true},      {"hist_scan", true},
    {"hist_subtract", true},
};

// Trainer phases (obs span names) reported as self modeled and wall seconds,
// under the metric prefix given.
struct PhaseMetric {
  const char* prefix;
  const char* span;
};
constexpr PhaseMetric kPhases[] = {
    {"core", "csc_build"},         {"core", "reset_layout"},
    {"core", "find_split"},        {"core", "set_key"},
    {"core", "gain_prefix_sum"},   {"core", "compute_gains"},
    {"core", "setkey_argmax"},     {"core", "split_node"},
    {"core", "mark_sides"},        {"core", "partition"},
    {"rle", "rle_compress"},       {"rle", "rle_direct_split"},
    {"core", "chunk_io"},          {"core", "hist_build"},
    {"core", "hist_subtract"},     {"core", "hist_find_split"},
    {"core", "hist_split_node"},   {"multigpu", "shard_build"},
    {"multigpu", "allreduce_merge"}, {"objective", "gradient_compute"},
};

/// Everything the per-layer metrics read.
struct LayerInputs {
  const Inputs* in = nullptr;
  const Repetition* untraced = nullptr;  // first measured repetition
  const TrainOutcome* traced = nullptr;
  const obs::Span* root = nullptr;       // the traced session's root
  double untraced_wall_median = 0.0;
};

std::vector<Metric> per_layer_metrics(const LayerInputs& li) {
  std::vector<Metric> m;
  auto add = [&](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  auto count = [&](std::string name, std::uint64_t v) {
    add(std::move(name), static_cast<double>(v), "count");
  };
  const obs::Span& root = *li.root;
  const obs::Span* train_span = find_span(root, "bench.train");
  const obs::Span* gen_span = find_span(root, "bench.generate");
  const obs::Span* pred_span = find_span(root, "bench.predict");
  const obs::Span* save_span = find_span(root, "bench.save_load");
  std::map<std::string, PhaseSelf> phases;
  SpanDevice sdev;
  collect_phases(*train_span, phases);
  collect_device(*train_span, sdev);
  auto phase = [&](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? PhaseSelf{} : it->second;
  };
  const TrainOutcome& u = li.untraced->train;

  // data
  add("data.generate_s", gen_span->stats().wall_seconds, "s");
  count("data.nnz", static_cast<std::uint64_t>(li.in->train.n_entries()));

  // device: the untraced timeline on one device; on multi-GPU the shard
  // devices are private, so the traced span aggregates stand in and the
  // quantities spans do not record (transfer count, H2D bytes, per-stream
  // overlap) read 0.
  std::map<std::string, device::KernelRecord> kernels;
  device::KernelStats ks;
  if (u.timeline) {
    const device::Timeline& t = *u.timeline;
    for (const auto& [label, rec] : t.kernels) kernels[label] = rec;
    count("device.launches", t.launches);
    count("device.transfers", t.transfers);
    add("device.kernel_busy_s", t.kernel_seconds, "s");
    add("device.transfer_busy_s", t.transfer_seconds, "s");
    add("device.h2d_mib", static_cast<double>(t.bytes_to_device) / kMiB, "MiB");
    add("device.makespan_s", t.makespan_seconds, "s");
    const double busy = t.total_seconds();
    add("device.overlap_ratio",
        busy > 0.0 ? std::max(0.0, 1.0 - t.makespan_seconds / busy) : 0.0,
        "ratio");
  } else {
    kernels = sdev.kernels;
    count("device.launches", sdev.launches);
    count("device.transfers", 0);
    add("device.kernel_busy_s", sdev.kernel_s, "s");
    add("device.transfer_busy_s", sdev.transfer_s, "s");
    add("device.h2d_mib", 0.0, "MiB");
    add("device.makespan_s", u.modeled_s, "s");
    add("device.overlap_ratio", 0.0, "ratio");
  }
  for (const auto& [label, rec] : kernels) ks += rec.stats;
  count("device.alloc_calls", u.counters.alloc_calls);
  count("device.thread_work", ks.thread_work);
  add("device.coalesced_mib", static_cast<double>(ks.coalesced_bytes) / kMiB,
      "MiB");
  count("device.irregular_accesses", ks.irregular_accesses);
  count("device.atomic_ops", ks.atomic_ops);
  for (const auto& [label, with_launches] : kKernels) {
    const auto it = kernels.find(label);
    const bool has = it != kernels.end();
    const std::string base = std::string("device.kernel.") + label;
    add(base + ".modeled_s", has ? it->second.seconds : 0.0, "s");
    if (with_launches) count(base + ".launches", has ? it->second.launches : 0);
  }

  // trainer phases (self time, summed over every span of the name)
  for (const auto& [prefix, span] : kPhases) {
    const std::string base = std::string(prefix) + "." + span;
    add(base + ".modeled_s", phase(span).modeled_s, "s");
    add(base + ".wall_s", phase(span).wall_s, "s");
  }
  add("core.predict.modeled_s", pred_span->modeled_total_seconds(), "s");
  add("core.predict.wall_s", pred_span->stats().wall_seconds, "s");
  add("core.save_load.wall_s", save_span->stats().wall_seconds, "s");
  count("core.trees_trained", u.trees.size());
  count("core.levels_grown", u.counters.levels_grown);

  // rle
  add("rle.ratio", u.rle_ratio, "ratio");

  // out-of-core streaming
  count("core.ooc.chunks", static_cast<std::uint64_t>(u.ooc.n_chunks));
  add("core.ooc.streamed_mib", static_cast<double>(u.ooc.streamed_bytes) / kMiB,
      "MiB");

  // multigpu
  const multigpu::MultiTrainReport& g = u.mgpu;
  add("multigpu.comm_s", g.comm_seconds, "s");
  add("multigpu.allreduce_s", g.allreduce_seconds, "s");
  add("multigpu.comm_mib", static_cast<double>(g.comm_bytes) / kMiB, "MiB");
  count("multigpu.comm_messages", g.comm_messages);
  add("multigpu.comm_overlap_ratio", g.comm_overlap_ratio, "ratio");
  const auto [lo, hi] =
      std::minmax_element(g.device_seconds.begin(), g.device_seconds.end());
  add("multigpu.shard_busy_max_s", g.device_seconds.empty() ? 0.0 : *hi, "s");
  add("multigpu.shard_busy_min_s", g.device_seconds.empty() ? 0.0 : *lo, "s");

  // obs
  add("obs.trace_overhead",
      li.untraced_wall_median > 0.0
          ? li.traced->wall_s / li.untraced_wall_median
          : 0.0,
      "ratio");
  return m;
}

/// Kernel and phase tables of the traced call, behind the choice of the
/// kKernels and kPhases lists.
void explain(const TrainOutcome& t, const obs::Span* train_span) {
  std::map<std::string, device::KernelRecord> kernels;
  if (t.timeline) {
    kernels.insert(t.timeline->kernels.begin(), t.timeline->kernels.end());
  } else if (train_span != nullptr) {
    SpanDevice sdev;
    collect_device(*train_span, sdev);
    kernels = sdev.kernels;
  }
  double total = 0.0;
  for (const auto& [label, rec] : kernels) total += rec.seconds;
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [label, rec] : kernels) {
    order.emplace_back(rec.seconds, label);
  }
  std::sort(order.rbegin(), order.rend());
  double cum = 0.0;
  for (const auto& [secs, label] : order) {
    cum += secs;
    std::printf("# kernel %-32s %10.6f s %5.1f %% cum %5.1f %% launches %llu\n",
                label.c_str(), secs, 100.0 * secs / total, 100.0 * cum / total,
                static_cast<unsigned long long>(kernels[label].launches));
  }
  if (train_span == nullptr) return;
  std::map<std::string, PhaseSelf> phases;
  collect_phases(*train_span, phases);
  for (const auto& [name, p] : phases) {
    std::printf("# phase %-32s modeled %10.6f s wall %8.4f s\n", name.c_str(),
                p.modeled_s, p.wall_s);
  }
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& mt : metrics) {
    std::printf("# %-44s %.6g %s\n", mt.name.c_str(), mt.value, mt.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
      "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 22.0;
  int trace = 0;
  std::string scratch = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: gbdt_perfbench --workload <name> [--seed <n>] "
               "[--seconds <s>] [--trace 0|1] [--scratch <dir>]\n"
               "workloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      usage("unknown flag");
    }
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  for (const char* var : kForbiddenEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "gbdt_perfbench: %s is set; it selects a different "
                   "program than the one measured. Unset it.\n",
                   var);
      return 3;
    }
  }
  if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "gbdt_perfbench: build type is '%s', not Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) usage("unknown workload");
  const std::uint64_t seed = args.seed.value_or(workload_spec(*w).seed);
  std::printf("# workload %s seed %llu seconds %g trace %d build_type %s "
              "hardware_concurrency %u\n",
              w->name, static_cast<unsigned long long>(seed), args.seconds,
              args.trace, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());

  Context ctx;
  ctx.w = w;
  ctx.scratch = args.scratch;
  Tally tally;
  const double rss_mib = one_repetition_rss_mib(ctx, seed);
  tally.check(rss_mib > 0.0, "the memory pass's repetition passes its checks");

  // ---- measured repetitions ----------------------------------------------
  // Each repetition first sets the inputs up again (a setup_s sample), so
  // set-up, training and prediction samples all spread over the run.  The
  // loop stops when one more repetition of the mean length so far would end
  // after --seconds, so it takes about --seconds whatever the host speed.
  const auto run_start = Clock::now();
  auto another = [&](int done) {
    return done < 2 || seconds_since(run_start) * (done + 1) / done <=
                           args.seconds;
  };
  std::vector<double> setup_s;
  std::vector<Repetition> reps;
  Inputs in;
  for (int i = 0; another(i); ++i) {
    in = Inputs{};  // one set of inputs alive at a time, as for a user
    const auto t0 = Clock::now();
    in = make_inputs(*w, seed);
    setup_s.push_back(seconds_since(t0));
    if (i == 0) ctx.train_mean_rmse = mean_label_rmse(in.train);
    try {
      Repetition r = run_repetition(ctx, in);
      if (!reps.empty()) check_determinism(r, reps.front());
      tally.add(r.checks);
      reps.push_back(std::move(r));
    } catch (const std::exception& e) {
      tally.exception(e);
    }
  }
  if (reps.empty()) {
    std::fprintf(stderr, "gbdt_perfbench: every repetition failed\n");
    return 1;
  }
  std::vector<double> train_wall;
  std::vector<double> predict_wall;
  for (const auto& r : reps) {
    train_wall.push_back(r.train.wall_s);
    predict_wall.insert(predict_wall.end(), r.predict_wall_s.begin(),
                        r.predict_wall_s.end());
  }
  const Repetition& first = reps.front();
  std::printf("# repetitions %zu predict_passes %zu train_wall_s", reps.size(),
              predict_wall.size());
  for (const double t : train_wall) std::printf(" %.4f", t);
  std::printf("\n");

  // ---- traced repetition ---------------------------------------------------
  // Needed for the per-layer metrics and, on multi-GPU, for peak device
  // memory: the shard devices are private, and only the span hooks see
  // their allocators.  Tracing only reads, so the modeled run is the same.
  std::optional<TrainOutcome> traced;
  obs::ObsSession session;
  const bool want_trace = args.trace != 0 || w->path == Path::kMultiGpuHist;
  if (want_trace) {
    session.activate();
    try {
      {
        in = Inputs{};
        obs::ScopedSpan span("bench.generate");
        in = make_inputs(*w, seed);
      }
      Repetition r = run_repetition(ctx, in);
      tally.add(r.checks);
      traced = std::move(r.train);
    } catch (const std::exception& e) {
      tally.exception(e);
    }
    session.deactivate();
  }
  const obs::Span* traced_train = find_span(session.root(), "bench.train");

  if (args.trace != 0 && traced) explain(*traced, traced_train);

  std::size_t peak_bytes = first.train.peak_bytes;
  if (w->path == Path::kMultiGpuHist) {
    peak_bytes = traced_train ? traced_train->peak_device_bytes_total() : 0;
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const double passed = static_cast<double>(tally.attempted - tally.failed);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"train_wall_s", median(train_wall), "s"},
        {"train_modeled_s", first.train.modeled_s, "s"},
        {"predict_wall_s", median(predict_wall), "s"},
        {"predict_modeled_s", first.predict_modeled_s, "s"},
        {"peak_device_mib", static_cast<double>(peak_bytes) / kMiB, "MiB"},
        {"host_rss_mib", rss_mib, "MiB"},
        {"valid_rmse", first.valid_rmse, "label"},
        {"pass_share", passed / static_cast<double>(tally.attempted),
         "ratio"},
    };
  } else if (traced && traced_train != nullptr) {
    tally.add(reconcile(*traced, *traced_train, first.train.modeled_s));
    metrics = per_layer_metrics(
        {&in, &first, &*traced, &session.root(), median(train_wall)});
  } else {
    std::fprintf(stderr, "gbdt_perfbench: the traced run failed\n");
    return 1;
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed, metrics);
  return 0;
}
