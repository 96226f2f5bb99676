#include "core/out_of_core.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/boosting.h"
#include "core/trainer_detail.h"
#include "data/csc_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "objective/objective.h"
#include "primitives/reduce.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt {

using detail::ActiveNode;
using detail::BestSplit;
using detail::GHPair;
using detail::LevelPlan;
using device::BlockCtx;
using device::DeviceBuffer;
using prim::elems_in_block;
using prim::kBlockDim;

namespace {

/// A host-resident column chunk, optionally pre-compressed with RLE.
struct Chunk {
  std::int64_t attr_lo = 0;
  std::int64_t attr_hi = 0;   // exclusive
  std::int64_t entry_lo = 0;  // into the host CSC arrays
  std::int64_t entry_hi = 0;
  bool compressed = false;
  // RLE form (root order never changes, so this is computed once).
  std::vector<float> run_values;
  std::vector<std::int32_t> run_lens;
  std::vector<std::int64_t> run_starts;  // exclusive scan of run_lens

  [[nodiscard]] std::int64_t n_entries() const { return entry_hi - entry_lo; }
};

/// Per-(column, slot) best-candidate record produced by the streaming walk.
struct ColumnBest {
  double gain = 0.0;
  float split_value = 0.f;
  std::uint8_t default_left = 0;
  double left_g = 0.0;
  double left_h = 0.0;
  std::int64_t left_cnt = 0;
  std::uint8_t valid = 0;
};

/// Column chunks bounded by the device budget for streamed lists; with
/// `compress`, each chunk's value stream is pre-compressed (runs never cross
/// columns) and shipped as runs when that pays.
std::vector<Chunk> make_chunks(const data::CscMatrix& csc, std::int64_t n_attr,
                               std::size_t chunk_bytes, bool compress) {
  std::vector<Chunk> chunks;
  const auto max_entries =
      static_cast<std::int64_t>(chunk_bytes / 12);  // value+inst+slack
  std::int64_t a = 0;
  while (a < n_attr) {
    Chunk c;
    c.attr_lo = a;
    c.entry_lo = csc.col_offsets[static_cast<std::size_t>(a)];
    std::int64_t b = a + 1;
    while (b < n_attr &&
           csc.col_offsets[static_cast<std::size_t>(b) + 1] - c.entry_lo <=
               max_entries) {
      ++b;
    }
    c.attr_hi = b;
    c.entry_hi = csc.col_offsets[static_cast<std::size_t>(b)];
    if (compress) {
      for (std::int64_t e = c.entry_lo; e < c.entry_hi; ++e) {
        const auto u = static_cast<std::size_t>(e);
        const bool head =
            e == c.entry_lo || csc.values[u] != csc.values[u - 1] ||
            std::binary_search(csc.col_offsets.begin(), csc.col_offsets.end(),
                               static_cast<std::int64_t>(e));
        if (head) {
          c.run_values.push_back(csc.values[u]);
          c.run_lens.push_back(1);
        } else {
          ++c.run_lens.back();
        }
      }
      const double ratio =
          c.run_values.empty()
              ? 1.0
              : static_cast<double>(c.n_entries()) /
                    static_cast<double>(c.run_values.size());
      c.compressed = ratio >= 1.5;
      if (c.compressed) {
        c.run_starts.resize(c.run_lens.size());
        std::int64_t start = 0;
        for (std::size_t r = 0; r < c.run_lens.size(); ++r) {
          c.run_starts[r] = start;
          start += c.run_lens[r];
        }
      } else {
        c.run_values.clear();
        c.run_values.shrink_to_fit();
        c.run_lens.clear();
        c.run_lens.shrink_to_fit();
      }
    }
    chunks.push_back(std::move(c));
    a = b;
  }
  return chunks;
}

/// The device side of the double-buffered chunk stream: the copy and
/// compute streams plus two reusable landing slots sized for the largest
/// chunk (slot k%2 holds chunk k while slot (k+1)%2 is being filled).
/// Uploads ride stream_copy one chunk ahead of stream_compute; events order
/// upload->consume (RAW) and enumerate->overwrite (WAR).  With
/// GBDT_SYNC_STREAMS=1 both names alias the default stream: the same
/// enqueue order executes serially, so trees are bitwise identical.
struct ChunkPipeline {
  struct Slot {
    DeviceBuffer<std::int32_t> inst;
    DeviceBuffer<float> values;
    DeviceBuffer<float> run_values;
    DeviceBuffer<std::int32_t> run_lens;
    DeviceBuffer<std::int64_t> run_starts;
  };

  ChunkPipeline(device::Device& dev, const std::vector<Chunk>& chunks)
      : async(device::stream_async_enabled()),
        stream_copy(async ? dev.stream() : device::kDefaultStream),
        stream_compute(async ? dev.stream() : device::kDefaultStream) {
    std::size_t max_entries = 0;
    std::size_t max_runs = 0;
    for (const Chunk& c : chunks) {
      if (c.n_entries() == 0) continue;
      live.push_back(&c);
      max_entries =
          std::max(max_entries, static_cast<std::size_t>(c.n_entries()));
      if (c.compressed) max_runs = std::max(max_runs, c.run_values.size());
    }
    slots.resize(std::min<std::size_t>(2, live.size()));
    for (Slot& sl : slots) {
      sl.inst = dev.alloc<std::int32_t>(max_entries);
      sl.values = dev.alloc<float>(max_entries);
      if (max_runs > 0) {
        sl.run_values = dev.alloc<float>(max_runs);
        sl.run_lens = dev.alloc<std::int32_t>(max_runs);
        sl.run_starts = dev.alloc<std::int64_t>(max_runs);
      }
    }
  }

  bool async;
  int stream_copy;
  int stream_compute;
  std::vector<const Chunk*> live;  // chunks with at least one entry
  std::vector<Slot> slots;
};

/// The out-of-core level steps: find streams every chunk through the
/// device against the resident instance->node map; apply re-streams each
/// winning column to move instances to their exact side.
class OocBackend final : public detail::LevelBackend {
 public:
  OocBackend(detail::TrainState& st, const data::CscMatrix& csc,
             ChunkPipeline& pipe, objective::RoundDriver& rounds,
             const DeviceBuffer<float>& labels, const data::Dataset& ds,
             OutOfCoreReport& report)
      : dev_(st.dev), st_(st), csc_(csc), pipe_(pipe), rounds_(rounds),
        labels_(labels), ds_(ds), report_(report) {}

  ActiveNode begin_tree(int t, const Tree* prev, Tree& tree) override {
    obs::ScopedSpan span("gradient_compute");
    if (prev != nullptr) detail::update_predictions_smart(st_, *prev);
    rounds_.begin_round(st_, labels_, t);
    prim::fill(dev_, st_.node_of, std::int32_t{0});
    st_.tree = &tree;
    ActiveNode root;
    root.sum_g = prim::reduce_sum<double>(dev_, st_.grad, "ooc_root_sum_g");
    root.sum_h = prim::reduce_sum<double>(dev_, st_.hess, "ooc_root_sum_h");
    root.count = st_.n_inst;
    return root;
  }

  std::vector<BestSplit> find_splits(
      const std::vector<ActiveNode>& active) override {
    st_.active = active;
    std::vector<std::int32_t> slot_of(
        static_cast<std::size_t>(st_.tree->n_nodes()), -1);
    std::vector<detail::SlotStat> node_stats(active.size());
    for (std::size_t s = 0; s < active.size(); ++s) {
      slot_of[static_cast<std::size_t>(active[s].tree_node)] =
          static_cast<std::int32_t>(s);
      node_stats[s] =
          detail::SlotStat{active[s].sum_g, active[s].sum_h, active[s].count};
    }
    // Held for the whole level, released at the end of apply().  The stats
    // are packed into one record so the per-level table costs a single
    // PCI-e transfer instead of three latency-bound ones.
    d_slot_of_ = detail::upload_pooled(dev_, st_.arena, slot_of);
    d_stats_ = detail::upload_pooled(dev_, st_.arena, node_stats);

    std::vector<BestSplit> best(active.size());
    {
      obs::ScopedSpan find_span("find_split");
      // Upload chunk k into slot k % n_slots on stream_copy.  The spans
      // handed to the async copies point into the host CSC / chunk arrays,
      // which outlive the level.
      up_event_.assign(pipe_.live.size(), -1);
      last_use_event_.assign(pipe_.slots.size(), -1);
      if (!pipe_.live.empty()) upload_chunk(0);
      for (std::size_t k = 0; k < pipe_.live.size(); ++k) {
        if (k + 1 < pipe_.live.size()) upload_chunk(k + 1);
        enumerate_chunk(k, best);
      }
    }
    for (std::size_t s = 0; s < active.size(); ++s) {
      BestSplit& b = best[s];
      if (!b.valid) continue;
      b.right = ActiveNode{-1, active[s].sum_g - b.left.sum_g,
                           active[s].sum_h - b.left.sum_h,
                           active[s].count - b.left.count};
    }
    return best;
  }

  void apply(const LevelPlan& plan) override {
    {
      // Defaults for every instance of a splitting node, then the exact
      // side from the winning column, re-streamed from the host.
      obs::ScopedSpan split_span("split_node");
      assign_defaults(plan);
      for (const LevelPlan::Entry& e : plan.per_slot) {
        if (e.split) exact_side(e);
      }
    }
    if (testing::invariants_enabled()) {
      std::vector<std::pair<std::int32_t, std::int64_t>> expected;
      expected.reserve(plan.next_active.size());
      for (const ActiveNode& child : plan.next_active) {
        expected.emplace_back(child.tree_node, child.count);
      }
      testing::check_instance_counts(st_.node_of.span(), expected,
                                     "ooc_level");
    }
    release_level();
  }

  void end_tree() override {
    release_level();
    if (testing::invariants_enabled()) {
      testing::check_leaf_map(st_.node_of.span(), *st_.tree, ds_,
                              "ooc_leaf_map");
    }
  }

  void fold(const Tree& last) override {
    // The score read-back is attributed to this phase too.
    obs::ScopedSpan span("gradient_compute");
    detail::update_predictions_smart(st_, last);
    const auto final_pred = dev_.to_host(st_.y_pred);
    report_.train_scores.assign(final_pred.begin(), final_pred.end());
  }

 private:
  void release_level() {
    d_stats_.free();
    d_slot_of_.free();
  }

  void upload_chunk(std::size_t k) {
    static obs::Counter& chunks_streamed =
        obs::Registry::global().counter("gbdt_ooc_chunks_streamed_total");
    const Chunk& c = *pipe_.live[k];
    const auto n = static_cast<std::size_t>(c.n_entries());
    const std::size_t slot = k % pipe_.slots.size();
    ChunkPipeline::Slot& sl = pipe_.slots[slot];
    obs::ScopedSpan io_span("chunk_io");
    chunks_streamed.inc();
    if (pipe_.async && last_use_event_[slot] >= 0) {
      // hb: enumerate of the slot's previous chunk -> overwrite (WAR)
      dev_.wait_event(pipe_.stream_copy, last_use_event_[slot]);
    }
    dev_.copy_to_device_async(
        "stream_ooc_upload_inst", pipe_.stream_copy,
        std::span<const std::int32_t>(csc_.inst_ids)
            .subspan(static_cast<std::size_t>(c.entry_lo), n),
        sl.inst);
    if (c.compressed) {
      dev_.copy_to_device_async("stream_ooc_upload_run_values",
                                pipe_.stream_copy,
                                std::span<const float>(c.run_values),
                                sl.run_values);
      dev_.copy_to_device_async("stream_ooc_upload_run_lens",
                                pipe_.stream_copy,
                                std::span<const std::int32_t>(c.run_lens),
                                sl.run_lens);
      dev_.copy_to_device_async("stream_ooc_upload_run_starts",
                                pipe_.stream_copy,
                                std::span<const std::int64_t>(c.run_starts),
                                sl.run_starts);
      report_.streamed_bytes +=
          c.run_values.size() * 16 + static_cast<std::uint64_t>(n) * 4;
    } else {
      dev_.copy_to_device_async(
          "stream_ooc_upload_values", pipe_.stream_copy,
          std::span<const float>(csc_.values)
              .subspan(static_cast<std::size_t>(c.entry_lo), n),
          sl.values);
      report_.streamed_bytes += static_cast<std::uint64_t>(n) * 8;
    }
    if (pipe_.async) up_event_[k] = dev_.record_event(pipe_.stream_copy);
  }

  /// Decompresses (if needed) and enumerates chunk k, then merges its
  /// per-(column, slot) winners into `best`.
  void enumerate_chunk(std::size_t k, std::vector<BestSplit>& best) {
    const Chunk& c = *pipe_.live[k];
    const std::int64_t n = c.n_entries();
    const std::int64_t n_cols = c.attr_hi - c.attr_lo;
    const auto n_slots = static_cast<std::int64_t>(best.size());
    const double lambda = st_.param.lambda;
    ChunkPipeline::Slot& sl = pipe_.slots[k % pipe_.slots.size()];
    if (pipe_.async) {
      // hb: upload(k) on stream_copy -> decompress/enumerate (RAW)
      dev_.wait_event(pipe_.stream_compute, up_event_[k]);
    }
    if (c.compressed) {
      const auto n_runs = static_cast<std::int64_t>(c.run_values.size());
      const auto rv = sl.run_values.span().first(c.run_values.size());
      const auto rl = sl.run_lens.span().first(c.run_lens.size());
      const auto rs = sl.run_starts.span().first(c.run_starts.size());
      const auto out = sl.values.span().first(static_cast<std::size_t>(n));
      dev_.launch_async(
          "stream_ooc_decompress", pipe_.stream_compute,
          device::grid_for(n_runs, kBlockDim), kBlockDim,
          [rv, rl, rs, out, n_runs](BlockCtx& b) {
            std::uint64_t written = 0;
            b.for_each_thread([&](std::int64_t r) {
              if (r >= n_runs) return;
              const auto ru = static_cast<std::size_t>(r);
              for (std::int32_t j = 0; j < rl[ru]; ++j) {
                out[static_cast<std::size_t>(rs[ru] + j)] = rv[ru];
              }
              b.writes(out, rs[ru], rl[ru]);
              written += static_cast<std::uint64_t>(rl[ru]);
            });
            b.reads_tile(rv, n_runs);
            b.reads_tile(rl, n_runs);
            b.reads_tile(rs, n_runs);
            b.work(written);
            b.mem_coalesced(written * 4 + elems_in_block(b, n_runs) * 20);
          });
    }

    // Column offsets local to the chunk; uploaded on the compute stream so
    // the copy stream's lookahead is never stalled behind metadata.
    // local_offs outlives the per-chunk sync below.
    std::vector<std::int64_t> local_offs(static_cast<std::size_t>(n_cols) + 1);
    for (std::int64_t a2 = 0; a2 <= n_cols; ++a2) {
      local_offs[static_cast<std::size_t>(a2)] =
          csc_.col_offsets[static_cast<std::size_t>(c.attr_lo + a2)] -
          c.entry_lo;
    }
    auto d_offs = st_.arena.alloc<std::int64_t>(local_offs.size());
    dev_.copy_to_device_async("stream_ooc_upload_offs", pipe_.stream_compute,
                              std::span<const std::int64_t>(local_offs),
                              d_offs.backing());

    // Per-(column, slot) winners, checked out per chunk (every entry is
    // written by ooc_enumerate, so the unzeroed checkout is safe).
    auto d_best = st_.arena.alloc<ColumnBest>(
        static_cast<std::size_t>(n_cols) * static_cast<std::size_t>(n_slots));

    const auto values = sl.values.span().first(static_cast<std::size_t>(n));
    const auto inst = sl.inst.span().first(static_cast<std::size_t>(n));
    const auto offs = d_offs.span();
    const auto node_of = st_.node_of.span();
    const auto so = d_slot_of_.span();
    const auto stats = d_stats_.span();
    const auto out_best = d_best.span();
    const auto g = st_.grad.span();
    const auto h = st_.hess.span();

    // One logical block per column: two fused passes (present totals, then
    // candidate enumeration with both missing directions) against per-slot
    // running accumulators — the streaming analogue of node interleaving.
    // Spans are captured by value: under schedule perturbation the body
    // runs at a later drain point.
    dev_.launch_async(
        "stream_ooc_enumerate", pipe_.stream_compute, n_cols, kBlockDim,
        [values, inst, offs, node_of, so, stats, out_best, g, h, n_slots,
         lambda](BlockCtx& b) {
          const std::int64_t col = b.block_idx();
          const std::int64_t lo = offs[static_cast<std::size_t>(col)];
          const std::int64_t hi = offs[static_cast<std::size_t>(col) + 1];

          std::vector<GHPair> present(static_cast<std::size_t>(n_slots));
          std::vector<std::int64_t> present_cnt(
              static_cast<std::size_t>(n_slots), 0);
          for (std::int64_t e = lo; e < hi; ++e) {
            const auto iu =
                static_cast<std::size_t>(inst[static_cast<std::size_t>(e)]);
            const std::int32_t slot =
                so[static_cast<std::size_t>(node_of[iu])];
            if (slot < 0) continue;
            present[static_cast<std::size_t>(slot)] += GHPair{g[iu], h[iu]};
            ++present_cnt[static_cast<std::size_t>(slot)];
          }

          std::vector<GHPair> acc(static_cast<std::size_t>(n_slots));
          std::vector<std::int64_t> acc_cnt(static_cast<std::size_t>(n_slots),
                                            0);
          std::vector<float> last(static_cast<std::size_t>(n_slots), 0.f);
          std::vector<ColumnBest> cb(static_cast<std::size_t>(n_slots));

          auto evaluate = [&](std::int32_t slot) {
            const auto su = static_cast<std::size_t>(slot);
            const double glp = acc[su].g;
            const double hlp = acc[su].h;
            const std::int64_t pos = acc_cnt[su];
            const double node_g = stats[su].g;
            const double node_h = stats[su].h;
            const std::int64_t cnt = stats[su].cnt;
            const std::int64_t seg_len = present_cnt[su];
            const std::int64_t miss = cnt - seg_len;
            const double miss_g = node_g - present[su].g;
            const double miss_h = node_h - present[su].h;
            double gain_r = 0.0;
            if (pos > 0 && cnt - pos > 0) {
              gain_r =
                  split_gain(glp, hlp, node_g - glp, node_h - hlp, lambda);
            }
            double gain_l = 0.0;
            if (miss > 0 && seg_len - pos > 0) {
              gain_l = split_gain(glp + miss_g, hlp + miss_h,
                                  node_g - glp - miss_g,
                                  node_h - hlp - miss_h, lambda);
            }
            const bool dl = gain_l > gain_r;
            const double gain = dl ? gain_l : gain_r;
            if (gain > cb[su].gain) {
              cb[su].valid = 1;
              cb[su].gain = gain;
              cb[su].split_value = last[su];
              cb[su].default_left = dl ? 1 : 0;
              cb[su].left_g = glp + (dl ? miss_g : 0.0);
              cb[su].left_h = hlp + (dl ? miss_h : 0.0);
              cb[su].left_cnt = pos + (dl ? miss : 0);
            }
          };

          std::uint64_t touched = 0;
          for (std::int64_t e = lo; e < hi; ++e) {
            const auto iu =
                static_cast<std::size_t>(inst[static_cast<std::size_t>(e)]);
            const std::int32_t slot =
                so[static_cast<std::size_t>(node_of[iu])];
            if (slot < 0) continue;
            const auto su = static_cast<std::size_t>(slot);
            const float v = values[static_cast<std::size_t>(e)];
            if (acc_cnt[su] > 0 && v != last[su]) evaluate(slot);
            acc[su] += GHPair{g[iu], h[iu]};
            ++acc_cnt[su];
            last[su] = v;
            ++touched;
          }
          // Final boundary of every slot (all present left, missing right).
          for (std::int32_t s = 0; s < n_slots; ++s) {
            if (acc_cnt[static_cast<std::size_t>(s)] > 0) evaluate(s);
            out_best[static_cast<std::size_t>(col * n_slots + s)] =
                cb[static_cast<std::size_t>(s)];
          }
          b.reads(offs, col, 2);
          b.reads(values, lo, hi - lo);
          b.reads(inst, lo, hi - lo);
          b.writes(out_best, col * n_slots, n_slots);
          // Two fused passes: stream the chunk twice, gather (g,h) twice.
          b.work(4 * touched);
          b.mem_coalesced(2 * touched * 8);
          b.mem_irregular(2 * 2 * touched);  // node_of + (g,h) per pass
          b.flop(touched * 8);
        });

    if (pipe_.async) {
      // Recorded after enumerate: the slot may be overwritten (and the
      // arena blocks reused) once this fires.
      last_use_event_[k % pipe_.slots.size()] =
          dev_.record_event(pipe_.stream_compute);
    }
    // Host merge needs the winners; the copy stream keeps prefetching chunk
    // k+1 underneath this sync.
    dev_.sync(pipe_.stream_compute);

    // Merge the chunk's winners into the per-node best (columns in ascending
    // attribute order; strict > keeps the lowest attribute on ties, like the
    // in-core argmax).
    for (std::int64_t col = 0; col < n_cols; ++col) {
      // Columns outside this tree's feature bag yield no splits (host glue
      // over the simulated device: the mask byte read mirrors the scalar
      // winner reads below).
      if (!st_.feature_mask.empty() &&
          st_.feature_mask[static_cast<std::size_t>(c.attr_lo + col)] == 0) {
        continue;
      }
      for (std::int64_t s = 0; s < n_slots; ++s) {
        const ColumnBest& cb =
            d_best[static_cast<std::size_t>(col * n_slots + s)];
        if (cb.valid == 0) continue;
        BestSplit& b = best[static_cast<std::size_t>(s)];
        if (cb.gain > b.gain) {
          b.valid = true;
          b.gain = cb.gain;
          b.attr = static_cast<std::int32_t>(c.attr_lo + col);
          b.split_value = cb.split_value;
          b.default_left = cb.default_left != 0;
          b.left = ActiveNode{-1, cb.left_g, cb.left_h, cb.left_cnt};
        }
      }
    }
  }

  /// Every instance of a splitting node moves to its default child.
  void assign_defaults(const LevelPlan& plan) {
    std::vector<std::int32_t> default_child(
        static_cast<std::size_t>(st_.tree->n_nodes()), -1);
    for (std::size_t s = 0; s < plan.per_slot.size(); ++s) {
      const LevelPlan::Entry& e = plan.per_slot[s];
      if (!e.split) continue;
      default_child[static_cast<std::size_t>(st_.active[s].tree_node)] =
          e.default_left ? e.left_id : e.right_id;
    }
    auto d_default = detail::upload_pooled(dev_, st_.arena, default_child);
    auto node_of = st_.node_of.span();
    auto def = d_default.span();
    const std::int64_t n_inst = st_.n_inst;
    dev_.launch("ooc_assign_default", device::grid_for(n_inst, kBlockDim),
                kBlockDim, [&](BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t i) {
                    if (i >= n_inst) return;
                    const auto u = static_cast<std::size_t>(i);
                    const std::int32_t child =
                        def[static_cast<std::size_t>(node_of[u])];
                    if (child >= 0) node_of[u] = child;
                  });
                  b.reads_tile(node_of, n_inst);
                  b.writes_tile(node_of, n_inst);
                  b.reads(def, 0, static_cast<std::int64_t>(def.size()));
                  b.mem_coalesced(elems_in_block(b, n_inst) * 8);
                });
  }

  /// Present instances of the split node take the exact side of the winning
  /// column, re-streamed from the host.
  void exact_side(const LevelPlan::Entry& d) {
    const std::int64_t lo = csc_.col_offsets[static_cast<std::size_t>(d.attr)];
    const std::int64_t hi =
        csc_.col_offsets[static_cast<std::size_t>(d.attr) + 1];
    const std::int64_t len = hi - lo;
    if (len == 0) return;
    auto d_v = dev_.to_device<float>(
        std::span<const float>(csc_.values)
            .subspan(static_cast<std::size_t>(lo),
                     static_cast<std::size_t>(len)));
    auto d_i = dev_.to_device<std::int32_t>(
        std::span<const std::int32_t>(csc_.inst_ids)
            .subspan(static_cast<std::size_t>(lo),
                     static_cast<std::size_t>(len)));
    report_.streamed_bytes += static_cast<std::uint64_t>(len) * 8;
    const std::int32_t left_id = d.left_id;
    const std::int32_t right_id = d.right_id;
    const std::int32_t default_id = d.default_left ? d.left_id : d.right_id;
    const float split_value = d.split_value;
    auto v = d_v.span();
    auto ii = d_i.span();
    auto node_of = st_.node_of.span();
    dev_.launch("ooc_exact_side", device::grid_for(len, kBlockDim), kBlockDim,
                [&](BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t e) {
                    if (e >= len) return;
                    const auto u = static_cast<std::size_t>(e);
                    auto& slot_ref = node_of[static_cast<std::size_t>(ii[u])];
                    b.reads(node_of, ii[u]);
                    if (slot_ref != default_id &&
                        slot_ref != (d.default_left ? right_id : left_id)) {
                      return;  // instance not in this node
                    }
                    // Instances of other nodes share neither child id.
                    slot_ref = v[u] >= split_value ? left_id : right_id;
                    // An instance appears once per streamed column, so the
                    // scattered node_of updates are block-disjoint; the
                    // auditor verifies it.
                    b.writes(node_of, ii[u]);
                  });
                  b.reads_tile(v, len);
                  b.reads_tile(ii, len);
                  const auto m = elems_in_block(b, len);
                  b.mem_coalesced(m * 8);
                  b.mem_irregular(m);
                });
  }

  device::Device& dev_;
  detail::TrainState& st_;
  const data::CscMatrix& csc_;
  ChunkPipeline& pipe_;
  objective::RoundDriver& rounds_;
  const DeviceBuffer<float>& labels_;
  const data::Dataset& ds_;
  OutOfCoreReport& report_;

  std::vector<int> up_event_;
  std::vector<int> last_use_event_;
  device::ArenaBuffer<std::int32_t> d_slot_of_;
  device::ArenaBuffer<detail::SlotStat> d_stats_;
};

}  // namespace

OutOfCoreTrainer::OutOfCoreTrainer(device::Device& dev, GBDTParam param,
                                   std::size_t chunk_bytes,
                                   bool stream_compressed)
    : dev_(dev), param_(std::move(param)), chunk_bytes_(chunk_bytes),
      stream_compressed_(stream_compressed), loss_(make_loss(param_.loss)) {
  validate(param_);
  if (param_.use_hist_trainer) {
    throw std::invalid_argument(
        "out-of-core training streams exact attribute lists; the histogram "
        "method is not supported");
  }
  if (chunk_bytes_ < (std::size_t{1} << 16)) {
    throw std::invalid_argument("chunk_bytes too small");
  }
}

OutOfCoreReport OutOfCoreTrainer::train(const data::Dataset& ds) {
  obs::ScopedSpan train_span("ooc_train");
  const auto wall_start = std::chrono::steady_clock::now();
  const double modeled_start = dev_.elapsed_seconds();
  const double busy_start = dev_.timeline().total_seconds();
  dev_.allocator().reset_peak();

  OutOfCoreReport report;
  report.base_score = param_.base_score;
  if (ds.n_instances() == 0) throw std::invalid_argument("empty dataset");

  // ---- host-resident sorted columns (built once, never partitioned) ------
  const auto csc = data::build_csc_host(ds);
  report.in_core_bytes = csc.bytes();
  const std::vector<Chunk> chunks =
      make_chunks(csc, ds.n_attributes(), chunk_bytes_, stream_compressed_);
  report.n_chunks = static_cast<int>(chunks.size());
  ChunkPipeline pipe(dev_, chunks);

  // ---- resident per-instance state ---------------------------------------
  detail::TrainState st(dev_, param_, *loss_);
  st.n_inst = ds.n_instances();
  st.n_attr = ds.n_attributes();
  objective::RoundDriver round_driver(dev_, param_, ds);
  auto d_labels = dev_.to_device<float>(ds.labels());
  detail::alloc_instance_state(st);

  OocBackend backend(st, csc, pipe, round_driver, d_labels, ds, report);
  detail::grow_forest(param_, backend, report.trees);

  report.peak_device_bytes = dev_.allocator().peak();
  report.modeled_seconds = dev_.elapsed_seconds() - modeled_start;
  // Busy seconds are what a single serialized stream would have taken; the
  // gap to the makespan is the PCI-e time hidden under enumeration.
  const double busy_seconds = dev_.timeline().total_seconds() - busy_start;
  report.overlap_ratio =
      busy_seconds > 0.0
          ? std::max(0.0, 1.0 - report.modeled_seconds / busy_seconds)
          : 0.0;
  obs::Registry::global()
      .gauge("gbdt_device_overlap_ratio")
      .set(report.overlap_ratio);
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return report;
}

}  // namespace gbdt
