#include "data/libsvm_io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace gbdt::data {

namespace {

[[noreturn]] void fail(std::int64_t line_no, const std::string& what) {
  throw std::runtime_error("libsvm parse error at line " +
                           std::to_string(line_no) + ": " + what);
}

/// Drops a trailing `#` comment and returns a stream over what is left.
std::istringstream without_comment(std::string& line) {
  if (const auto hash = line.find('#'); hash != std::string::npos) {
    line.resize(hash);
  }
  return std::istringstream(line);
}

/// Parses all of `tok` as a float; false if any character is left over.
bool parse_float(const std::string& tok, float& out) {
  try {
    std::size_t used = 0;
    out = std::stof(tok, &used);
    return used == tok.size();
  } catch (const std::exception&) {
    return false;
  }
}

/// Parses all of [first, last) as a base-10 integer.
bool parse_int(const char* first, const char* last, std::int64_t& out) {
  const auto [p, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && p == last;
}

}  // namespace

Dataset read_libsvm(std::istream& in) {
  Dataset ds;
  std::string line;
  std::vector<Entry> entries;
  std::int64_t line_no = 0;
  std::int64_t max_attr = 0;

  while (std::getline(in, line)) {
    ++line_no;
    auto ss = without_comment(line);
    std::string tok;
    if (!(ss >> tok)) continue;  // blank line
    float label = 0.f;
    if (!parse_float(tok, label)) fail(line_no, "bad label '" + tok + "'");
    if (!std::isfinite(label)) fail(line_no, "non-finite label '" + tok + "'");

    entries.clear();
    std::int64_t prev_idx = 0;
    while (ss >> tok) {
      const auto colon = tok.find(':');
      if (colon == std::string::npos) fail(line_no, "missing ':' in '" + tok + "'");
      std::int64_t idx = 0;
      if (!parse_int(tok.data(), tok.data() + colon, idx) || idx < 1) {
        fail(line_no, "bad feature index in '" + tok + "'");
      }
      if (idx <= prev_idx) fail(line_no, "indices not strictly increasing");
      prev_idx = idx;
      float value = 0.f;
      if (!parse_float(tok.substr(colon + 1), value)) {
        fail(line_no, "bad feature value in '" + tok + "'");
      }
      if (!std::isfinite(value)) {
        fail(line_no, "non-finite feature value in '" + tok + "'");
      }
      entries.push_back({static_cast<std::int32_t>(idx - 1), value});
      if (idx > max_attr) max_attr = idx;
    }
    ds.set_n_attributes(max_attr);
    ds.add_instance(entries, label);
  }
  ds.set_n_attributes(max_attr);
  return ds;
}

Dataset read_libsvm_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_libsvm(in);
}

void write_libsvm(const Dataset& ds, std::ostream& out) {
  out.precision(9);  // float round-trip precision
  for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
    out << ds.labels()[static_cast<std::size_t>(i)];
    for (const auto& e : ds.instance(i)) {
      out << ' ' << (e.attr + 1) << ':' << e.value;
    }
    out << '\n';
  }
}

void write_libsvm_file(const Dataset& ds, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_libsvm(ds, out);
}

void read_query_file(Dataset& ds, std::istream& in) {
  std::vector<std::int64_t> offsets{0};
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto ss = without_comment(line);
    std::string tok;
    if (!(ss >> tok)) continue;  // blank line
    std::int64_t count = 0;
    if (!parse_int(tok.data(), tok.data() + tok.size(), count)) {
      fail(line_no, "bad query group size '" + tok + "'");
    }
    if (ss >> tok) fail(line_no, "unexpected '" + tok + "' after the count");
    if (count < 1) fail(line_no, "query group size must be >= 1");
    offsets.push_back(offsets.back() + count);
  }
  if (offsets.back() != ds.n_instances()) {
    throw std::runtime_error(
        "query file covers " + std::to_string(offsets.back()) +
        " instances but the dataset has " + std::to_string(ds.n_instances()));
  }
  ds.set_query_offsets(std::move(offsets));
}

void read_query_file(Dataset& ds, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  read_query_file(ds, in);
}

}  // namespace gbdt::data
