// Sparse-representation find-split and node-split phases (paper Section
// III-B): gather gradients into attribute order, segmented prefix sums,
// per-candidate gain with duplicate suppression and learned missing-value
// direction, SetKey segmented argmax, then the order-preserving histogram
// partition of the attribute lists.
#include <vector>

#include "core/trainer_detail.h"
#include "obs/trace.h"
#include "primitives/fused_split.h"
#include "primitives/partition.h"
#include "primitives/segmented.h"
#include "primitives/transform.h"
#include "testing/invariants.h"

namespace gbdt::detail {

using device::BlockCtx;
using device::Device;
using device::DeviceBuffer;
using prim::elems_in_block;
using prim::kBlockDim;

std::vector<BestSplit> find_splits_sparse(TrainState& st) {
  auto& dev = st.dev;
  const std::int64_t n = st.n_elems;
  const std::int64_t n_seg = st.n_seg();
  const std::int64_t n_attr = st.n_attr;
  const double lambda = st.param.lambda;
  std::vector<BestSplit> out(st.active.size());
  if (n == 0) return out;

  // Segment key per element (Customized SetKey / naive one-block-per-seg).
  // The scan reads them, and the apply phase reuses them.
  st.keys = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(n));
  {
    obs::ScopedSpan span("set_key");
    prim::set_keys(dev, st.seg_offsets, st.keys, st.segs_per_block(n_seg));
  }

  // g/h in attribute order, then one segmented prefix sum (Figure 1).  The
  // scan's first phase pulls each (g, h) pair straight from the gradient
  // arrays, and the per-segment present totals are a scan side product.
  auto ghl = st.arena.alloc<GHPair>(static_cast<std::size_t>(n));
  auto seg_tot = st.arena.alloc<GHPair>(static_cast<std::size_t>(n_seg));
  {
    obs::ScopedSpan span("gain_prefix_sum");
    const bool interleaved = st.param.dense_layout;
    auto inst = st.inst.span();
    auto g = st.grad.span();
    auto h = st.hess.span();
    prim::fused_gather_scan_totals(
        dev, st.arena, st.keys, ghl, seg_tot,
        [inst, g, h, interleaved](BlockCtx& b, std::int64_t i) {
          const auto u = static_cast<std::size_t>(i);
          const auto x = static_cast<std::size_t>(inst[u]);
          b.reads(inst, i);
          b.reads(g, inst[u]);
          b.reads(h, inst[u]);
          b.mem_coalesced(sizeof(std::int32_t));
          // The dense layout (the xgbst-gpu baseline) keeps node-interleaved
          // gradient copies precisely so this gather coalesces: one
          // irregular fetch per four elements.  The sparse CSC layout pays
          // two random (g, h) fetches per element.
          b.mem_irregular(interleaved ? (i % 4 == 0 ? 1 : 0) : 2);
          return GHPair{g[x], h[x]};
        },
        "fused_gather_seg_scan");
  }

  auto tables = upload_slot_tables(st);

  // Gain of every candidate split point (paper Equation 2).  Candidates at
  // duplicated values are suppressed so that the same split point cannot
  // carry two different gains; we keep the *last* occurrence, whose inclusive
  // prefix covers every instance with a value >= the split value (this also
  // makes the RLE path agree exactly).  Gains are evaluated inside the
  // per-segment argmax walk, which keeps only the winners.
  auto best_seg_val = st.arena.alloc<double>(static_cast<std::size_t>(n_seg));
  auto best_seg_idx =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_seg));
  auto best_seg_dir =
      st.arena.alloc<std::uint8_t>(static_cast<std::size_t>(n_seg));
  {
    obs::ScopedSpan span("compute_gains");
    auto v = st.values.span();
    auto scan = ghl.span();
    auto tot = seg_tot.span();
    auto stats = tables.stats.span();
    const auto fm = st.feature_mask;
    prim::fused_gain_argmax(
        dev, st.seg_offsets, best_seg_val, best_seg_idx, best_seg_dir,
        st.segs_per_block(n_seg),
        [v, scan, tot, stats, fm, n_attr, lambda](
            BlockCtx& b, std::int64_t s, std::int64_t e, std::int64_t seg_lo,
            std::int64_t seg_hi) {
          const auto u = static_cast<std::size_t>(e);
          b.reads(v, e);
          b.reads(scan, e);
          b.mem_coalesced(20);  // v + (g, h) inclusive prefix, streamed
          if (e == seg_lo) {
            // Segment-invariant loads: the walk fetches the segment total and
            // the packed slot stats once and keeps them in registers for the
            // rest of the segment.
            b.reads(tot, s);
            b.reads(stats, s / n_attr);
            if (!fm.empty()) b.reads(fm, s % n_attr);
            b.mem_irregular(1);
          }
          // Attributes outside this tree's feature bag yield no splits
          // (mask, not compaction: the segment layout is untouched).
          if (!fm.empty() && fm[static_cast<std::size_t>(s % n_attr)] == 0) {
            return prim::GainDir{};
          }
          // Duplicate suppression (paper Section III-B step ii): a zero gain
          // loses to any positive candidate.
          if (e + 1 < seg_hi) {
            b.reads(v, e + 1);
            b.mem_coalesced(sizeof(float));
            if (v[u + 1] == v[u]) return prim::GainDir{};
          }
          const auto seg = static_cast<std::size_t>(s);
          const auto slot = static_cast<std::size_t>(s / n_attr);
          const double node_g = stats[slot].g;
          const double node_h = stats[slot].h;
          const std::int64_t cnt = stats[slot].cnt;
          b.flop(16);
          const std::int64_t seg_len = seg_hi - seg_lo;
          const std::int64_t miss = cnt - seg_len;
          const double miss_g = node_g - tot[seg].g;
          const double miss_h = node_h - tot[seg].h;
          const std::int64_t pos = e - seg_lo + 1;  // left presents
          const double glp = scan[u].g;
          const double hlp = scan[u].h;

          // Missing values default right.
          double gain_r = 0.0;
          if (pos > 0 && cnt - pos > 0) {
            gain_r = split_gain(glp, hlp, node_g - glp, node_h - hlp, lambda);
          }
          // Missing values default left.
          // With no missing instances the default direction is irrelevant;
          // evaluating only one keeps it deterministic across the
          // sparse/RLE/CPU paths.
          double gain_l = 0.0;
          if (miss > 0 && seg_len - pos > 0) {
            gain_l = split_gain(glp + miss_g, hlp + miss_h,
                                node_g - glp - miss_g, node_h - hlp - miss_h,
                                lambda);
          }
          if (gain_l > gain_r) return prim::GainDir{gain_l, 1};
          return prim::GainDir{gain_r, 0};
        },
        "fused_gain_argmax");
  }

  // Best candidate per segment, then best attribute per node (paper step iii:
  // segmented reduction + reduction).  The gain walk above already produced
  // the per-segment winners.
  auto d_node_offs = device_node_offsets(st, st.n_active(), n_attr);
  auto best_node_val = st.arena.alloc<double>(st.active.size());
  auto best_node_idx = st.arena.alloc<std::int64_t>(st.active.size());
  {
    obs::ScopedSpan span("setkey_argmax");
    prim::segmented_arg_max(dev, best_seg_val, d_node_offs, best_node_val,
                            best_node_idx, 1, "node_best_gain");
  }

  // Assemble per-node results on the host (tiny: one entry per active node;
  // the scalar buffer reads below are host glue over the simulated device).
  for (std::size_t s = 0; s < st.active.size(); ++s) {
    BestSplit& b = out[s];
    const std::int64_t seg = best_node_idx[s];
    if (seg < 0) continue;
    const std::int64_t pos = best_seg_idx[static_cast<std::size_t>(seg)];
    if (pos < 0) continue;
    const double gain = best_node_val[s];
    if (!(gain > 0.0)) continue;

    const ActiveNode& node = st.active[s];
    const auto useg = static_cast<std::size_t>(seg);
    const auto upos = static_cast<std::size_t>(pos);
    b.valid = true;
    b.gain = gain;
    b.seg = seg;
    b.pos = pos;
    b.attr = static_cast<std::int32_t>(seg % n_attr);
    b.split_value = st.values[upos];
    b.default_left = best_seg_dir[useg] != 0;

    const std::int64_t seg_lo = st.seg_offsets[useg];
    const std::int64_t seg_hi = st.seg_offsets[useg + 1];
    const std::int64_t present_left = pos - seg_lo + 1;
    const std::int64_t seg_len = seg_hi - seg_lo;
    const std::int64_t miss = node.count - seg_len;
    double left_g = ghl[upos].g;
    double left_h = ghl[upos].h;
    std::int64_t left_cnt = present_left;
    if (b.default_left) {
      left_g += node.sum_g - seg_tot[useg].g;
      left_h += node.sum_h - seg_tot[useg].h;
      left_cnt += miss;
    }
    b.left.sum_g = left_g;
    b.left.sum_h = left_h;
    b.left.count = left_cnt;
    b.right.sum_g = node.sum_g - left_g;
    b.right.sum_h = node.sum_h - left_h;
    b.right.count = node.count - left_cnt;
  }
  return out;
}

void apply_mark_sides_sparse(TrainState& st, const LevelPlan& plan) {
  obs::ScopedSpan span("mark_sides");
  auto& dev = st.dev;
  const std::int64_t n = st.n_elems;
  const std::int64_t n_attr = st.n_attr;

  assign_default_children(st, plan);

  // Per-slot split commands for the element-side exact assignment, packed
  // into one per-level upload.
  auto d_cmd = upload_split_cmds(st, plan);

  // Exact side for instances present on the winning attribute: the sorted
  // prefix up to the split position goes left (high values), the rest right.
  {
    auto k = st.keys.span();
    auto inst = st.inst.span();
    auto node_of = st.node_of.span();
    auto cmd = d_cmd.span();
    dev.launch("assign_exact_side", device::grid_for(n, kBlockDim), kBlockDim,
               [&](BlockCtx& b) {
                 std::uint64_t writes = 0;
                 b.for_each_thread([&](std::int64_t e) {
                   if (e >= n) return;
                   const auto u = static_cast<std::size_t>(e);
                   const std::int64_t seg = k[u];
                   const auto slot = static_cast<std::size_t>(seg / n_attr);
                   if (cmd[slot].chosen_seg != seg) return;
                   node_of[static_cast<std::size_t>(inst[u])] =
                       e <= cmd[slot].best_pos ? cmd[slot].left_id
                                               : cmd[slot].right_id;
                   // An instance appears once per attribute and only the
                   // winning attribute's segment writes, so these scattered
                   // stores are block-disjoint; the auditor verifies it.
                   b.writes(node_of, inst[u]);
                   ++writes;
                 });
                 b.reads_tile(k, n);
                 b.reads_tile(inst, n);
                 const auto m = elems_in_block(b, n);
                 b.mem_coalesced(m * 8);
                 b.mem_irregular(writes + m / 8);
               });
  }
}

void apply_partition_sparse(TrainState& st, const LevelPlan& plan) {
  obs::ScopedSpan span("partition");
  auto& dev = st.dev;
  const std::int64_t n = st.n_elems;
  const std::int64_t n_attr = st.n_attr;

  // Partition ids: (next node slot, attribute) per element; -1 drops the
  // elements of nodes that became leaves.
  const auto n_new_slots = static_cast<std::int64_t>(plan.next_active.size());
  const std::int64_t n_parts = n_new_slots * n_attr;
  auto d_next_slot = upload_pooled(dev, st.arena, plan.next_slot_of_tree);
  auto part_ids = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(n));
  {
    auto k = st.keys.span();
    auto inst = st.inst.span();
    auto node_of = st.node_of.span();
    auto ns = d_next_slot.span();
    auto p = part_ids.span();
    dev.launch("compute_part_ids", device::grid_for(n, kBlockDim), kBlockDim,
               [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t e) {
                   if (e >= n) return;
                   const auto u = static_cast<std::size_t>(e);
                   const std::int32_t slot =
                       ns[static_cast<std::size_t>(node_of[static_cast<std::size_t>(inst[u])])];
                   p[u] = slot < 0 ? -1
                                   : static_cast<std::int32_t>(
                                         slot * n_attr + k[u] % n_attr);
                   b.reads(node_of, inst[u]);
                 });
                 b.reads_tile(k, n);
                 b.reads_tile(inst, n);
                 b.writes_tile(p, n);
                 const auto m = elems_in_block(b, n);
                 b.mem_coalesced(m * 12);
                 b.mem_irregular(m);  // node_of[inst[e]]
               });
  }

  // Order-preserving histogram partition (paper Figures 2-3).
  const auto pplan = prim::plan_partition(
      n, n_parts, st.param.partition_counter_budget,
      st.param.use_custom_idxcomp_workload);
  auto scatter = st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n));
  auto new_offsets =
      st.arena.alloc<std::int64_t>(static_cast<std::size_t>(n_parts) + 1);
  prim::histogram_partition(dev, part_ids.span(), n_parts, scatter.span(),
                            new_offsets.span(), pplan, &st.arena);
  const std::int64_t new_n =
      new_offsets[static_cast<std::size_t>(n_parts)];

  auto new_values = st.arena.alloc<float>(static_cast<std::size_t>(new_n));
  auto new_inst = st.arena.alloc<std::int32_t>(static_cast<std::size_t>(new_n));
  {
    auto v = st.values.span();
    auto inst = st.inst.span();
    auto sc = scatter.span();
    auto nv = new_values.span();
    auto ni = new_inst.span();
    dev.launch("apply_scatter", device::grid_for(n, kBlockDim), kBlockDim,
               [&](BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t e) {
                   if (e >= n) return;
                   const auto u = static_cast<std::size_t>(e);
                   const std::int64_t dst = sc[u];
                   if (dst >= 0) {
                     nv[static_cast<std::size_t>(dst)] = v[u];
                     ni[static_cast<std::size_t>(dst)] = inst[u];
                     // Scatter targets are unique by construction of the
                     // order-preserving partition; the auditor verifies it.
                     b.writes(nv, dst);
                     b.writes(ni, dst);
                   }
                 });
                 b.reads_tile(v, n);
                 b.reads_tile(inst, n);
                 b.reads_tile(sc, n);
                 const auto m = elems_in_block(b, n);
                 b.mem_coalesced(m * 16);
                 b.mem_irregular(m / 4 + 1);  // scatter fronts
               });
  }

  st.values = std::move(new_values);
  st.inst = std::move(new_inst);
  st.seg_offsets = std::move(new_offsets);
  st.n_elems = new_n;
  st.keys.free();

  testing::maybe_inject_partition_fault(st);
  testing::check_sparse_layout(st, n_parts, "apply_partition_sparse");
}

void apply_splits_sparse(TrainState& st, const LevelPlan& plan) {
  apply_mark_sides_sparse(st, plan);
  apply_partition_sparse(st, plan);
}

}  // namespace gbdt::detail
