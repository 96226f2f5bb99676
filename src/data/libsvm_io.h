// LibSVM text format I/O ("label idx:value idx:value ...", 1-based indices),
// the format of the eight datasets the paper downloads from the LibSVM site.
#pragma once

#include <iosfwd>
#include <string>

#include "data/dataset.h"

namespace gbdt::data {

/// Parses LibSVM text.  Lines may end with comments introduced by '#'; a line
/// that is blank once its comment is removed is skipped.  Every other line
/// must start with a numeric label, and every label, index and value token
/// must parse whole.  Labels and values must be finite: `nan` and `inf` are
/// rejected (a missing value is an absent `idx:value` pair, never a nan).
/// Indices must be strictly increasing within a line
/// (LibSVM convention); violations raise std::runtime_error with the
/// offending line number.
[[nodiscard]] Dataset read_libsvm(std::istream& in);
[[nodiscard]] Dataset read_libsvm_file(const std::string& path);

void write_libsvm(const Dataset& ds, std::ostream& out);
void write_libsvm_file(const Dataset& ds, const std::string& path);

/// Reads a LightGBM-style query file (one integer per line: the number of
/// consecutive instances belonging to each query) and installs the resulting
/// offsets on `ds`.  Blank and '#' comment lines are skipped; every other line
/// holds exactly one positive integer, and the counts must sum to
/// ds.n_instances().  A bad line raises std::runtime_error naming it.
void read_query_file(Dataset& ds, std::istream& in);
void read_query_file(Dataset& ds, const std::string& path);

}  // namespace gbdt::data
