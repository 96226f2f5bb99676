#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>

namespace gbdt::data {

namespace {

/// Distinct value table for a categorical-ish attribute: k values spread over
/// [-1, 1], plus Zipf-like pick probabilities when requested.
struct ValueTable {
  std::vector<float> values;
  std::discrete_distribution<int> pick;
};

ValueTable make_value_table(int k, bool zipf, std::mt19937& rng) {
  ValueTable t;
  t.values.resize(static_cast<std::size_t>(k));
  std::uniform_real_distribution<float> u(-1.f, 1.f);
  for (auto& v : t.values) v = u(rng);
  std::vector<double> w(static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r) {
    w[static_cast<std::size_t>(r)] = zipf ? 1.0 / (r + 1) : 1.0;
  }
  t.pick = std::discrete_distribution<int>(w.begin(), w.end());
  return t;
}

}  // namespace

Dataset generate(const SyntheticSpec& spec) {
  if (spec.n_instances <= 0 || spec.n_attributes <= 0) {
    throw std::invalid_argument("synthetic spec needs positive dimensions");
  }
  if (spec.density <= 0.0 || spec.density > 1.0) {
    throw std::invalid_argument("synthetic density must be in (0, 1]");
  }
  std::mt19937 rng(spec.seed);
  Dataset ds(spec.n_attributes);

  // Signal: the first k_sig attributes carry the target.
  const int k_sig = static_cast<int>(std::min<std::int64_t>(8, spec.n_attributes));
  std::vector<float> weights(static_cast<std::size_t>(k_sig));
  std::normal_distribution<float> wdist(0.f, 1.f);
  for (auto& w : weights) w = wdist(rng);

  // Per-attribute value tables for the categorical case (shared table keeps
  // memory bounded for very high-dimensional analogs: attributes reuse one of
  // 64 tables).
  std::vector<ValueTable> tables;
  if (spec.distinct_values > 0) {
    const int n_tables =
        static_cast<int>(std::min<std::int64_t>(64, spec.n_attributes));
    tables.reserve(static_cast<std::size_t>(n_tables));
    for (int t = 0; t < n_tables; ++t) {
      tables.push_back(make_value_table(spec.distinct_values,
                                        spec.zipf_values, rng));
    }
  }

  std::uniform_real_distribution<float> cont(-1.f, 1.f);
  std::normal_distribution<float> noise(0.f, static_cast<float>(spec.label_noise));
  std::binomial_distribution<std::int64_t> nnz_dist(
      spec.n_attributes, spec.density);
  std::uniform_int_distribution<std::int64_t> attr_pick(0, spec.n_attributes - 1);

  std::vector<Entry> row;
  std::vector<std::int64_t> attrs;
  // Marks the attributes drawn for the current row: no allocation per draw.
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(spec.n_attributes));
  for (std::int64_t i = 0; i < spec.n_instances; ++i) {
    // Choose which attributes are present.
    attrs.clear();
    if (spec.density >= 1.0) {
      attrs.resize(static_cast<std::size_t>(spec.n_attributes));
      for (std::int64_t a = 0; a < spec.n_attributes; ++a) attrs[static_cast<std::size_t>(a)] = a;
    } else {
      const std::int64_t nnz = std::max<std::int64_t>(1, nnz_dist(rng));
      while (static_cast<std::int64_t>(attrs.size()) < nnz) {
        const std::int64_t a = attr_pick(rng);
        if (seen[static_cast<std::size_t>(a)] == 0) {
          seen[static_cast<std::size_t>(a)] = 1;
          attrs.push_back(a);
        }
      }
      for (const std::int64_t a : attrs) seen[static_cast<std::size_t>(a)] = 0;
      std::sort(attrs.begin(), attrs.end());
    }

    row.clear();
    row.reserve(attrs.size());
    float signal = 0.f;
    float first_two[2] = {0.f, 0.f};
    for (const std::int64_t a : attrs) {
      float v = 0.f;
      if (spec.distinct_values > 0) {
        auto& table = tables[static_cast<std::size_t>(a % static_cast<std::int64_t>(tables.size()))];
        v = table.values[static_cast<std::size_t>(table.pick(rng))];
      } else {
        v = cont(rng);
      }
      row.push_back({static_cast<std::int32_t>(a), v});
      if (a < k_sig) {
        signal += weights[static_cast<std::size_t>(a)] * v;
        if (a < 2) first_two[a] = v;
      }
    }
    signal += 0.5f * first_two[0] * first_two[1];  // interaction term
    float label = signal + noise(rng);
    if (spec.binary_labels) label = label > 0.f ? 1.f : 0.f;
    ds.add_instance(row, label);
  }
  return ds;
}

std::vector<PaperDatasetInfo> paper_datasets(double scale) {
  if (scale <= 0.0) throw std::invalid_argument("scale must be positive");
  // Analog shapes at scale = 1 (see DESIGN.md section 2): cardinality is
  // scaled down from the real datasets so the whole suite runs on one core;
  // density and value-repetition match the real data's regime.
  std::vector<PaperDatasetInfo> all;

  auto add = [&](std::string paper, std::int64_t card, std::int64_t dim,
                 double speedup, bool gpu_fails, std::int64_t n,
                 std::int64_t d, double density, int distinct, bool binary,
                 unsigned seed) {
    SyntheticSpec s;
    s.name = paper;
    s.n_instances = std::max<std::int64_t>(64, static_cast<std::int64_t>(
                                                   static_cast<double>(n) * scale));
    s.n_attributes = d;
    s.density = density;
    s.distinct_values = distinct;
    s.binary_labels = binary;
    s.seed = seed;
    all.push_back(PaperDatasetInfo{std::move(paper), card, dim, speedup,
                                   gpu_fails, std::move(s)});
  };

  // name          real card  real dim   x40   gpuOOM    n      d   density dist bin seed
  add("covtype",     581012,       54,  1.62,  true,  48000,   54, 0.22,  40, true,  101);
  add("e2006",        16087,   150360,  0.00,  true,   8000, 8000, 0.008,  0, false, 102);
  add("higgs",     11000000,       28,  1.75,  true,  50000,   28, 0.92,   0, true,  103);
  add("insurance",   250000,      298,  0.00,  true,  15000,  300, 0.15,   8, false, 104);
  add("log1p",        16087,  4272227,  0.00,  true,   8000,20000, 0.0015, 0, false, 105);
  add("news20",       19954,  1355191,  1.87,  true,   6000,40000, 0.002, 12, true,  106);
  add("real-sim",     72309,    20958,  1.42,  true,  12000, 3000, 0.017, 10, true,  107);
  add("susy",       5000000,       18,  1.56,  false, 50000,   18, 1.00,   0, true,  108);
  return all;
}

PaperDatasetInfo paper_dataset(const std::string& name, double scale) {
  for (auto& info : paper_datasets(scale)) {
    if (info.paper_name == name) return info;
  }
  throw std::out_of_range("unknown paper dataset: " + name);
}

}  // namespace gbdt::data
