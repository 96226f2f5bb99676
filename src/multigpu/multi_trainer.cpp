#include "multigpu/multi_trainer.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/autotune.h"
#include "core/boosting.h"
#include "core/trainer_detail.h"
#include "core/trainer_hist.h"
#include "data/csc_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objective/objective.h"
#include "primitives/reduce.h"
#include "primitives/transform.h"

namespace gbdt::multigpu {

using gbdt::detail::ActiveNode;
using gbdt::detail::BestSplit;
using gbdt::detail::LevelPlan;
using gbdt::detail::TrainState;
using device::Device;

const char* shard_mode_name(ShardMode m) {
  switch (m) {
    case ShardMode::kData:
      return "data";
    case ShardMode::kFeature:
      return "feature";
  }
  return "?";
}

bool parse_shard_mode(std::string_view s, ShardMode& out) {
  if (s == "data") {
    out = ShardMode::kData;
  } else if (s == "feature") {
    out = ShardMode::kFeature;
  } else {
    return false;
  }
  return true;
}

namespace {

/// One device + its shard of the training matrix.
struct Shard {
  std::unique_ptr<Device> dev;
  std::unique_ptr<TrainState> state;
  std::int64_t attr_lo = 0;  // feature mode: global id of local attr 0
  int comm_stream = device::kDefaultStream;
  int compute_stream = device::kDefaultStream;
  double busy_seconds = 0.0;  // accumulated modeled time of this shard
};

/// Accumulates the max-over-shards modeled time of one parallel step into
/// the critical path.  Comm legs advance the per-device comm-stream clocks,
/// so a step wrapping a collective prices communication through the same
/// max — never double-counted as a separate additive term.
class ParallelStep {
 public:
  explicit ParallelStep(std::vector<Shard>& shards, double& critical,
                        std::vector<double>* per_device = nullptr)
      : shards_(shards), critical_(critical), per_device_(per_device) {
    before_.reserve(shards.size());
    for (auto& s : shards_) before_.push_back(s.dev->elapsed_seconds());
  }
  ~ParallelStep() {
    double slowest = 0.0;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      const double delta = shards_[k].dev->elapsed_seconds() - before_[k];
      shards_[k].busy_seconds += delta;
      slowest = std::max(slowest, delta);
      if (per_device_ != nullptr) (*per_device_)[k] += delta;
    }
    critical_ += slowest;
  }
  ParallelStep(const ParallelStep&) = delete;
  ParallelStep& operator=(const ParallelStep&) = delete;

 private:
  std::vector<Shard>& shards_;
  double& critical_;
  std::vector<double>* per_device_;
  std::vector<double> before_;
};

/// Per-train communication tally, folded into the report at the end.
struct CommStats {
  double seconds = 0.0;
  double allreduce_seconds = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;

  void add_collective(const AllreduceReport& r) {
    seconds += r.seconds;
    allreduce_seconds += r.seconds;
    bytes += r.bytes;
    messages += r.messages;
  }
};

/// Fresh ShardLinks with a ready event recorded on each shard's default
/// stream, so the collectives' comm legs wait for every kernel enqueued so
/// far (hb edge; see allreduce.h detail::enqueue_leg).
std::vector<ShardLink> make_links(std::vector<Shard>& shards) {
  std::vector<ShardLink> links;
  links.reserve(shards.size());
  for (auto& sh : shards) {
    links.push_back(ShardLink{sh.dev.get(), sh.comm_stream,
                              sh.dev->record_event(device::kDefaultStream)});
  }
  return links;
}

hist::QGH qgh_sum(const hist::QGH& a, const hist::QGH& b) {
  hist::QGH r = a;
  r += b;
  return r;
}

/// What a multi-GPU backend needs to build its shards.
struct ShardSpec {
  const device::DeviceConfig& cfg;
  int n_devices;
  const GBDTParam& param;
  const Loss& loss;
  const Interconnect& link;
  MultiGpuOptions opts;
};

/// What both multi-GPU backends share: the shards and their labels, the
/// report whose critical path and per-device seconds every parallel step
/// accumulates, the communication tally, and the final prediction fold.
class ShardedBackend : public gbdt::detail::LevelBackend {
 public:
  ShardedBackend(const ShardSpec& spec, MultiTrainReport& report,
                 CommStats& comm)
      : shards_(static_cast<std::size_t>(spec.n_devices)),
        labels_(static_cast<std::size_t>(spec.n_devices)), report_(report),
        comm_(comm), link_(spec.link), algo_(spec.opts.algo),
        K_(spec.n_devices) {}

  void fold(const Tree& last) override {
    obs::ScopedSpan span("gradient_compute");
    ParallelStep step = parallel();
    for (auto& sh : shards_) {
      gbdt::detail::update_predictions_smart(*sh.state, last);
    }
  }

  /// Final raw training scores in dataset order.
  [[nodiscard]] virtual std::vector<double> train_scores() = 0;
  [[nodiscard]] const std::vector<Shard>& shards() const { return shards_; }

 protected:
  [[nodiscard]] ParallelStep parallel() {
    return ParallelStep(shards_, report_.modeled_seconds,
                        &report_.device_seconds);
  }
  [[nodiscard]] TrainState& state(int k) {
    return *shards_[static_cast<std::size_t>(k)].state;
  }

  /// The shard builder both backends share.  Splits `ds` over the shards —
  /// contiguous row ranges (`by_rows`, the hist method), or every row with
  /// the column split of opts.shard — and opens each shard's device, its
  /// comm stream (plus a compute stream by rows, for the find step's
  /// overlap) and TrainState.  Then, as one parallel step, builds each
  /// shard's local Dataset with local attribute ids and hands it to
  /// `upload(k, local)`.
  template <typename Upload>
  void build_shards(const ShardSpec& spec, const data::Dataset& ds,
                    bool by_rows, Upload upload) {
    const int K = K_;
    const auto n_inst = static_cast<std::size_t>(ds.n_instances());
    const auto n_attr = static_cast<std::size_t>(ds.n_attributes());
    // kData: attribute a lives on device a % K as local a / K.
    // kFeature: device k owns the contiguous range [F*k/K, F*(k+1)/K).
    const bool round_robin = !by_rows && spec.opts.shard == ShardMode::kData;
    const bool streams = device::stream_async_enabled();
    std::vector<detail::ChunkRange> rows;
    for (int k = 0; k < K; ++k) {
      auto& sh = shards_[static_cast<std::size_t>(k)];
      rows.push_back(by_rows ? detail::chunk_range(n_inst, K, k)
                             : detail::ChunkRange{0, n_inst});
      const auto cols = by_rows ? detail::ChunkRange{0, n_attr}
                                : detail::chunk_range(n_attr, K, k);
      sh.attr_lo = static_cast<std::int64_t>(cols.lo);
      sh.dev = std::make_unique<Device>(spec.cfg, spec.opts.host_workers);
      if (streams) {
        sh.comm_stream = sh.dev->stream();
        if (by_rows) sh.compute_stream = sh.dev->stream();
      }
      sh.state = std::make_unique<TrainState>(*sh.dev, spec.param, spec.loss);
      sh.state->n_inst = static_cast<std::int64_t>(rows.back().hi -
                                                   rows.back().lo);
      sh.state->n_attr =  // round robin: ceil((d - k) / K)
          round_robin ? static_cast<std::int64_t>(n_attr + (K - 1 - k)) / K
                      : static_cast<std::int64_t>(cols.hi - cols.lo);
    }
    ParallelStep step(shards_, report_.modeled_seconds);
    std::vector<data::Entry> row;
    for (int k = 0; k < K; ++k) {
      const auto& sh = shards_[static_cast<std::size_t>(k)];
      const std::int64_t n_local = sh.state->n_attr;
      const auto [lo, hi] = rows[static_cast<std::size_t>(k)];
      data::Dataset local(n_local);
      for (std::size_t i = lo; i < hi; ++i) {
        row.clear();
        for (const auto& e : ds.instance(static_cast<std::int64_t>(i))) {
          const std::int64_t a =
              round_robin ? (e.attr % K == k ? e.attr / K : -1)
                          : e.attr - sh.attr_lo;
          if (a >= 0 && a < n_local) {
            row.push_back({static_cast<std::int32_t>(a), e.value});
          }
        }
        local.add_instance(row, ds.labels()[i]);
      }
      upload(k, local);
    }
  }

  /// Allreduce payloads: the first n elements of every shard's record.
  template <typename Records>
  [[nodiscard]] static auto spans_of(Records& per_shard, std::size_t n) {
    using T = typename Records::value_type::value_type;
    std::vector<std::span<T>> payloads;
    payloads.reserve(per_shard.size());
    for (auto& r : per_shard) payloads.push_back(std::span<T>(r.data(), n));
    return payloads;
  }

  std::vector<Shard> shards_;
  std::vector<device::DeviceBuffer<float>> labels_;
  MultiTrainReport& report_;
  CommStats& comm_;
  const Interconnect& link_;
  const AllreduceAlgo algo_;
  const int K_;
};

class ExactShards final : public ShardedBackend {
 public:
  ExactShards(const ShardSpec& spec, const data::Dataset& ds,
              MultiTrainReport& report, CommStats& comm)
      : ShardedBackend(spec, report, comm),
        feature_sharded_(spec.opts.shard == ShardMode::kFeature) {
    const int K = K_;
    if (K > ds.n_attributes()) {
      throw std::invalid_argument("more devices than attributes");
    }
    {
      obs::ScopedSpan span("shard_build");
      build_shards(spec, ds, /*by_rows=*/false,
                   [&](int k, const data::Dataset& local) {
                     auto& st = state(k);
                     auto csc = data::build_csc_device(st.dev, local);
                     st.orig_values = std::move(csc.values);
                     st.orig_inst = std::move(csc.inst_ids);
                     st.orig_seg_offsets = std::move(csc.col_offsets);
                   });
    }
    // Replicated per-instance state + labels on every shard.
    {
      obs::ScopedSpan span("shard_build");
      ParallelStep step(shards_, report_.modeled_seconds);
      for (int k = 0; k < K; ++k) {
        auto& sh = shards_[static_cast<std::size_t>(k)];
        labels_[static_cast<std::size_t>(k)] =
            sh.dev->to_device<float>(ds.labels());
        gbdt::detail::alloc_instance_state(*sh.state);
      }
    }
    // One RoundDriver per shard: gradients are replicated (every shard
    // holds the full row set), the feature bag is drawn from the global
    // attribute space and remapped to each shard's local ids — so the
    // allreduced winner matches what a single device with the same bag
    // would pick.
    rounds_.reserve(static_cast<std::size_t>(K));
    for (int k = 0; k < K; ++k) {
      rounds_.push_back(std::make_unique<objective::RoundDriver>(
          *shards_[static_cast<std::size_t>(k)].dev, spec.param, ds, K, k,
          feature_sharded_ ? objective::ShardAttrMap::kContiguous
                           : objective::ShardAttrMap::kRoundRobin));
    }
  }

  std::vector<double> train_scores() override {
    // Predictions are replicated; report shard 0's.
    const auto pred = shards_[0].dev->to_host(shards_[0].state->y_pred);
    return {pred.begin(), pred.end()};
  }

  ActiveNode begin_tree(int t, const Tree* prev, Tree& tree) override {
    {
      obs::ScopedSpan span("gradient_compute");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) {
        auto& st = state(k);
        if (prev != nullptr) {
          gbdt::detail::update_predictions_smart(st, *prev);
        }
        rounds_[static_cast<std::size_t>(k)]->begin_round(
            st, labels_[static_cast<std::size_t>(k)], t);
        gbdt::detail::reset_working_layout(st);
      }
    }
    std::vector<std::array<double, 2>> root_stats(
        static_cast<std::size_t>(K_));
    {
      ParallelStep step = parallel();
      // Every shard reduces its replicated gradients (bitwise-identical
      // values), then the collective spreads/validates them — semantically
      // a broadcast, expressed as an allreduce with max (idempotent here).
      for (int k = 0; k < K_; ++k) {
        auto& sh = shards_[static_cast<std::size_t>(k)];
        root_stats[static_cast<std::size_t>(k)] = std::array<double, 2>{
            prim::reduce_sum<double>(*sh.dev, sh.state->grad,
                                     "mgpu_root_sum_g"),
            prim::reduce_sum<double>(*sh.dev, sh.state->hess,
                                     "mgpu_root_sum_h")};
      }
    }
    if (K_ > 1) {
      obs::ScopedSpan span("allreduce_merge");
      ParallelStep step = parallel();
      auto links = make_links(shards_);
      auto payloads = spans_of(root_stats, 2);
      comm_.add_collective(allreduce<double>(
          "comm_root", link_, algo_, links, payloads,
          [](double a, double b) { return std::max(a, b); }));
    }
    for (auto& sh : shards_) sh.state->tree = &tree;
    ActiveNode root;
    root.sum_g = root_stats[0][0];
    root.sum_h = root_stats[0][1];
    root.count = state(0).n_inst;
    return root;
  }

  std::vector<BestSplit> find_splits(
      const std::vector<ActiveNode>& active) override {
    for (auto& sh : shards_) sh.state->active = active;
    // 1. Local best splits per shard.
    std::vector<std::vector<BestSplit>> cand(static_cast<std::size_t>(K_));
    {
      obs::ScopedSpan span("find_split");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) {
        cand[static_cast<std::size_t>(k)] =
            gbdt::detail::find_splits_sparse(state(k));
      }
    }
    // 2. Allreduce the candidates: attribute ids are globalised first, so
    //    the combine (max gain, ties to the lowest global attribute — the
    //    same order a single device enumerates) is order-independent and
    //    every algorithm converges on the same winner bit for bit.
    obs::ScopedSpan span("allreduce_merge");
    ParallelStep step = parallel();
    for (int k = 0; k < K_; ++k) {
      const auto& sh = shards_[static_cast<std::size_t>(k)];
      for (auto& c : cand[static_cast<std::size_t>(k)]) {
        if (!c.valid) continue;
        c.attr = feature_sharded_
                     ? static_cast<std::int32_t>(sh.attr_lo) + c.attr
                     : c.attr * K_ + k;
      }
    }
    auto links = make_links(shards_);
    auto payloads = spans_of(cand, active.size());
    comm_.add_collective(allreduce<BestSplit>(
        "comm_cand", link_, algo_, links, payloads,
        [](const BestSplit& a, const BestSplit& b) {
          if (!b.valid) return a;
          if (!a.valid) return b;
          if (b.gain > a.gain) return b;
          if (b.gain == a.gain && b.attr < a.attr) return b;
          return a;
        }));
    owner_.assign(active.size(), -1);
    for (std::size_t s = 0; s < active.size(); ++s) {
      if (cand[0][s].valid) owner_[s] = owner_of_attr(cand[0][s].attr);
    }
    return std::move(cand[0]);
  }

  void apply(const LevelPlan& plan) override {
    const auto& active = state(0).active;
    // Authoritative-shard table keyed by the *new* child ids: both children
    // inherit their slot's winning shard, so the post-split instance->node
    // value alone selects the owner — no pre-split snapshot of the map is
    // needed.
    std::vector<std::int32_t> owner_of_node(
        static_cast<std::size_t>(state(0).tree->n_nodes()), -1);
    // 3. Mark instance sides: every shard applies the defaults; only the
    //    owner of a node's winning attribute knows the exact sides (the
    //    winner's segment/position are shard-local).
    std::vector<LevelPlan> shard_plans(static_cast<std::size_t>(K_), plan);
    for (std::size_t s = 0; s < active.size(); ++s) {
      const auto& e = plan.per_slot[s];
      if (!e.split) continue;
      owner_of_node[static_cast<std::size_t>(e.left_id)] = owner_[s];
      owner_of_node[static_cast<std::size_t>(e.right_id)] = owner_[s];
      for (int k = 0; k < K_; ++k) {
        if (k == owner_[s]) continue;
        auto& ek = shard_plans[static_cast<std::size_t>(k)].per_slot[s];
        ek.chosen_seg = -1;
        ek.best_pos = -1;
      }
    }
    {
      obs::ScopedSpan span("mark_sides");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) {
        gbdt::detail::apply_mark_sides_sparse(
            state(k), shard_plans[static_cast<std::size_t>(k)]);
      }
    }
    if (K_ > 1) sync_node_of(plan, active, owner_of_node);
    // 5. Local order-preserving partition of every shard's lists.
    obs::ScopedSpan span("partition");
    ParallelStep step = parallel();
    for (int k = 0; k < K_; ++k) {
      gbdt::detail::apply_partition_sparse(
          state(k), shard_plans[static_cast<std::size_t>(k)]);
    }
  }

 private:
  /// Maps a winning global attribute back to the shard that owns it.
  [[nodiscard]] int owner_of_attr(std::int32_t attr) const {
    if (!feature_sharded_) return static_cast<int>(attr % K_);
    int w = 0;
    while (w + 1 < K_ &&
           attr >= shards_[static_cast<std::size_t>(w + 1)].attr_lo) {
      ++w;
    }
    return w;
  }

  /// 4. Synchronises node_of: instance i's authoritative value lives on the
  ///    shard owning its (new) node's winning attribute.  Each shard
  ///    receives one modeled leg per winning peer carrying that peer's
  ///    rows, then a device kernel gathers the rows in place.
  void sync_node_of(const LevelPlan& plan,
                    const std::vector<ActiveNode>& active,
                    const std::vector<std::int32_t>& owner_of_node) {
    obs::ScopedSpan span("node_sync");
    ParallelStep step = parallel();
    std::vector<std::uint64_t> rows_of_winner(static_cast<std::size_t>(K_),
                                              0);
    for (std::size_t s = 0; s < active.size(); ++s) {
      if (plan.per_slot[s].split && owner_[s] >= 0) {
        rows_of_winner[static_cast<std::size_t>(owner_[s])] +=
            static_cast<std::uint64_t>(active[s].count);
      }
    }
    auto links = make_links(shards_);
    std::vector<double> shard_secs(static_cast<std::size_t>(K_), 0.0);
    for (int k = 0; k < K_; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      bool waited = false;
      auto dst = state(k).node_of.span();
      for (int w = 0; w < K_; ++w) {
        if (w == k || rows_of_winner[static_cast<std::size_t>(w)] == 0) {
          continue;
        }
        const std::uint64_t bytes =
            rows_of_winner[static_cast<std::size_t>(w)] * sizeof(std::int32_t);
        const double secs = link_.leg_seconds(bytes);
        detail::enqueue_leg(links[ku], waited, "stream_mgpu_node_sync", secs,
                            bytes, dst, detail::ChunkRange{0, 0},
                            detail::ChunkRange{0, dst.size()});
        comm_.bytes += bytes;
        ++comm_.messages;
        shard_secs[ku] += secs;
      }
    }
    comm_.seconds += *std::max_element(shard_secs.begin(), shard_secs.end());
    // Device-side masked gather replacing the old host-side O(K·n) merge
    // loop: w = owner_of_node[node_of[i]] picks the shard whose mark_sides
    // result is authoritative for row i.  Winner shards never rewrite their
    // own rows, so cross-device kernel order is free — and the default
    // stream joins each shard's comm legs.
    std::vector<std::span<const std::int32_t>> peers(
        static_cast<std::size_t>(K_));
    for (int w = 0; w < K_; ++w) {
      peers[static_cast<std::size_t>(w)] = state(w).node_of.span();
    }
    for (int k = 0; k < K_; ++k) {
      auto& sh = shards_[static_cast<std::size_t>(k)];
      auto& st = *sh.state;
      auto d_owner =
          gbdt::detail::upload_pooled(*sh.dev, st.arena, owner_of_node);
      auto nof = st.node_of.span();
      auto own = d_owner.span();
      const std::int64_t n = st.n_inst;
      const int me = k;
      sh.dev->launch(
          "mgpu_node_merge", device::grid_for(n, prim::kBlockDim),
          prim::kBlockDim, [&](device::BlockCtx& b) {
            b.for_each_thread([&](std::int64_t i) {
              if (i >= n) return;
              const auto u = static_cast<std::size_t>(i);
              const std::int32_t c = nof[u];
              const int w = own[static_cast<std::size_t>(c)];
              if (w >= 0 && w != me) {
                nof[u] = peers[static_cast<std::size_t>(w)][u];
              }
            });
            b.reads_tile(nof, n);
            b.writes_tile(nof, n);
            b.reads(own, 0, static_cast<std::int64_t>(own.size()));
            const std::uint64_t m = prim::elems_in_block(b, n);
            b.work(m);
            // own node read + peer gather + masked write
            b.mem_coalesced(m * 3 * sizeof(std::int32_t));
          });
    }
  }

  const bool feature_sharded_;
  std::vector<std::unique_ptr<objective::RoundDriver>> rounds_;
  std::vector<int> owner_;  // winning shard per active slot, this level
};

/// Histogram method over row shards: K growers in lockstep, allreducing the
/// quantization inputs per tree and the accumulated histogram slots per
/// level, so every shard finds bitwise-identical best splits and shard 0's
/// feed the one decision.
class HistShards final : public ShardedBackend {
 public:
  HistShards(const ShardSpec& spec, const data::Dataset& ds,
             MultiTrainReport& report, CommStats& comm)
      : ShardedBackend(spec, report, comm), n_inst_(ds.n_instances()) {
    const int K = K_;
    const GBDTParam& param = spec.param;
    if (static_cast<std::int64_t>(K) > n_inst_) {
      throw std::invalid_argument("more devices than instances");
    }
    if (param.subsample < 1.0 || param.feature_bag != 0) {
      throw std::invalid_argument(
          "multi-GPU hist: row/feature sampling is not supported (shards "
          "own row ranges; a per-tree row mask would unbalance them)");
    }
    if (param.objective == ObjectiveKind::kRanking) {
      throw std::invalid_argument(
          "multi-GPU hist: ranking objectives need query groups spanning "
          "shards; train single-device instead");
    }
    // Histogram slots replicate per shard, so the single-device bound holds.
    validate(param, ds.n_attributes(), spec.cfg.global_mem_bytes);

    // ---- row shards binned against the *global* quantile cuts -------------
    binned_.resize(static_cast<std::size_t>(K));
    {
      obs::ScopedSpan span("shard_build");
      const std::vector<hist::BinCuts> cuts =
          build_hist_cuts(ds, param.n_bins);
      build_shards(spec, ds, /*by_rows=*/true,
                   [&](int k, const data::Dataset& local) {
                     const auto ku = static_cast<std::size_t>(k);
                     auto& st = state(k);
                     binned_[ku] = build_binned_matrix(st.dev, local,
                                                       param.n_bins, cuts);
                     labels_[ku] = st.dev.to_device<float>(local.labels());
                     gbdt::detail::alloc_instance_state(st);
                   });
    }
    growers_.reserve(static_cast<std::size_t>(K));
    for (int k = 0; k < K; ++k) {
      auto& sh = shards_[static_cast<std::size_t>(k)];
      growers_.emplace_back(*sh.dev, param, *sh.state,
                            binned_[static_cast<std::size_t>(k)],
                            /*distributed=*/true);
    }
  }

  std::vector<double> train_scores() override {
    // Concatenate the row ranges back into dataset order.
    std::vector<double> scores;
    scores.reserve(static_cast<std::size_t>(n_inst_));
    for (auto& sh : shards_) {
      const auto pred = sh.dev->to_host(sh.state->y_pred);
      scores.insert(scores.end(), pred.begin(), pred.end());
    }
    return scores;
  }

  ActiveNode begin_tree(int /*t*/, const Tree* prev, Tree& tree) override {
    {
      obs::ScopedSpan span("gradient_compute");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) {
        auto& st = state(k);
        if (prev != nullptr) {
          gbdt::detail::update_predictions_smart(st, *prev);
        }
        gbdt::detail::compute_gradients(st,
                                        labels_[static_cast<std::size_t>(k)]);
      }
    }
    // Quantization scales must agree across shards: allreduce the |g|/|h|
    // maxima (max) and the quantized root sums (+) so every shard holds the
    // global values the single-device trainer would compute.
    std::vector<std::array<double, 2>> maxima(static_cast<std::size_t>(K_));
    {
      obs::ScopedSpan span("gradient_compute");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) {
        const auto mx = grower(k).local_abs_max();
        maxima[static_cast<std::size_t>(k)] = std::array<double, 2>{mx.g, mx.h};
      }
    }
    if (K_ > 1) {
      obs::ScopedSpan span("allreduce_merge");
      ParallelStep step = parallel();
      auto links = make_links(shards_);
      auto payloads = spans_of(maxima, 2);
      comm_.add_collective(allreduce<double>(
          "comm_absmax", link_, algo_, links, payloads,
          [](double a, double b) { return std::max(a, b); }));
    }
    std::vector<std::array<hist::QGH, 1>> rootq(static_cast<std::size_t>(K_));
    {
      obs::ScopedSpan span("gradient_compute");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) {
        rootq[static_cast<std::size_t>(k)][0] =
            grower(k).quantize(maxima[0][0], maxima[0][1], n_inst_);
      }
    }
    if (K_ > 1) {
      obs::ScopedSpan span("allreduce_merge");
      ParallelStep step = parallel();
      auto links = make_links(shards_);
      auto payloads = spans_of(rootq, 1);
      comm_.add_collective(allreduce<hist::QGH>("comm_rootq", link_, algo_,
                                               links, payloads, qgh_sum));
    }
    ActiveNode root;
    ParallelStep step = parallel();
    for (int k = 0; k < K_; ++k) root = grower(k).begin_tree(tree, rootq[0][0]);
    return root;
  }

  std::vector<BestSplit> find_splits(
      const std::vector<ActiveNode>& active) override {
    for (int k = 0; k < K_; ++k) grower(k).plan_level(active);
    {
      obs::ScopedSpan span("hist_build");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) grower(k).build_level();
    }
    // Segment offsets + key buffer ride the default stream and must be
    // enqueued *before* the comm legs (a later default-stream op would
    // serialise behind them).
    {
      obs::ScopedSpan span("hist_find_split");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) grower(k).prepare_offsets();
    }
    {
      // Histogram allreduce (one collective per accumulated slot, payload
      // = that slot's cps cells) overlapping the SetKey build: the comm
      // legs ride each shard's comm stream behind an event recorded after
      // hist_build, while set_keys runs on the compute stream — the race
      // detector sees both schedules, the device clocks overlap them.
      obs::ScopedSpan span("allreduce_merge");
      ParallelStep step = parallel();
      if (K_ > 1) merge_histograms();
      for (int k = 0; k < K_; ++k) {
        grower(k).run_set_keys(
            shards_[static_cast<std::size_t>(k)].compute_stream);
      }
    }
    if (grower(0).has_derived()) {
      obs::ScopedSpan span("hist_subtract");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) grower(k).subtract_level();
    }
    {
      obs::ScopedSpan span("hist_find_split");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) grower(k).find_level();
    }
    // The histograms and slot stats are global, so every shard's winners
    // are identical by construction: no decision broadcast is modeled.
    return grower(0).best();
  }

  void apply(const LevelPlan& plan) override {
    {
      obs::ScopedSpan span("hist_split_node");
      ParallelStep step = parallel();
      for (int k = 0; k < K_; ++k) grower(k).apply_level(plan);
    }
    for (int k = 0; k < K_; ++k) grower(k).advance_level(plan);
  }

  void end_tree() override {
    for (int k = 0; k < K_; ++k) grower(k).end_tree();
  }

 private:
  [[nodiscard]] HistGrower& grower(int k) {
    return growers_[static_cast<std::size_t>(k)];
  }

  void merge_histograms() {
    auto links = make_links(shards_);
    std::vector<std::vector<std::span<hist::QGH>>> slots(
        static_cast<std::size_t>(K_));
    for (int k = 0; k < K_; ++k) {
      slots[static_cast<std::size_t>(k)] = grower(k).accumulated_slots();
    }
    AllreduceReport rep;
    std::vector<std::span<hist::QGH>> payloads(static_cast<std::size_t>(K_));
    for (std::size_t j = 0; j < slots[0].size(); ++j) {
      for (int k = 0; k < K_; ++k) {
        payloads[static_cast<std::size_t>(k)] =
            slots[static_cast<std::size_t>(k)][j];
      }
      rep += allreduce<hist::QGH>("comm_hist", link_, algo_, links, payloads,
                                  qgh_sum);
    }
    comm_.add_collective(rep);
  }

  const std::int64_t n_inst_;
  std::vector<BinnedMatrix> binned_;
  std::vector<HistGrower> growers_;
};

}  // namespace

struct MultiGpuTrainer::Impl {
  device::DeviceConfig cfg;
  int n_devices;
  GBDTParam param;
  Interconnect link;
  MultiGpuOptions opts;
  std::unique_ptr<Loss> loss;

  Impl(device::DeviceConfig c, int n, GBDTParam p, Interconnect l,
       MultiGpuOptions o)
      : cfg(std::move(c)), n_devices(n), param(std::move(p)), link(l),
        opts(o), loss(make_loss(param.loss)) {
    validate(param);
    if (n_devices < 1) throw std::invalid_argument("need >= 1 device");
    // The multi-GPU exact path shards by attribute over the sparse layout.
    param.use_rle = false;
    param.force_rle = false;
  }

  [[nodiscard]] MultiTrainReport train(const data::Dataset& ds);
};

MultiGpuTrainer::MultiGpuTrainer(device::DeviceConfig cfg, int n_devices,
                                 GBDTParam param, Interconnect link,
                                 MultiGpuOptions opts)
    : impl_(std::make_unique<Impl>(std::move(cfg), n_devices, std::move(param),
                                   link, opts)) {}

MultiGpuTrainer::~MultiGpuTrainer() = default;

int MultiGpuTrainer::n_devices() const { return impl_->n_devices; }

MultiTrainReport MultiGpuTrainer::train(const data::Dataset& ds) {
  if (impl_->param.autotune) {
    // Shards share one tuned configuration (they see the same shape).
    autotune::apply(
        autotune::tune(impl_->cfg, autotune::problem_shape(ds), impl_->param),
        impl_->param);
  }
  return impl_->train(ds);
}

MultiTrainReport MultiGpuTrainer::Impl::train(const data::Dataset& ds) {
  static obs::Counter& comm_bytes_total =
      obs::Registry::global().counter("gbdt_mgpu_comm_bytes_total");
  static obs::Gauge& overlap_gauge =
      obs::Registry::global().gauge("gbdt_mgpu_comm_overlap_ratio");
  obs::ScopedSpan train_span("mgpu_train");
  const auto wall_start = std::chrono::steady_clock::now();
  if (ds.n_instances() == 0) throw std::invalid_argument("empty dataset");

  MultiTrainReport report;
  report.base_score = param.base_score;
  report.device_seconds.assign(static_cast<std::size_t>(n_devices), 0.0);
  CommStats comm;
  const ShardSpec spec{cfg, n_devices, param, *loss, link, opts};
  // Exact: column shards (round-robin or contiguous ranges).  Hist: row
  // shards, global cuts, per-level histogram allreduce.
  std::unique_ptr<ShardedBackend> backend;
  if (param.use_hist_trainer) {
    backend = std::make_unique<HistShards>(spec, ds, report, comm);
  } else {
    backend = std::make_unique<ExactShards>(spec, ds, report, comm);
  }
  gbdt::detail::grow_forest(param, *backend, report.trees);
  report.train_scores = backend->train_scores();

  comm_bytes_total.inc(comm.bytes);
  report.comm_seconds = comm.seconds;
  report.allreduce_seconds = comm.allreduce_seconds;
  report.comm_bytes = comm.bytes;
  report.comm_messages = comm.messages;
  for (const auto& sh : backend->shards()) {
    report.comm_overlap_ratio =
        std::max(report.comm_overlap_ratio, sh.dev->overlap_ratio());
  }
  overlap_gauge.set(report.comm_overlap_ratio);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

}  // namespace gbdt::multigpu
