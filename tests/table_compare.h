#ifndef RE2XOLAP_TESTS_TABLE_COMPARE_H_
#define RE2XOLAP_TESTS_TABLE_COMPARE_H_

#include <cstring>

#include <gtest/gtest.h>

#include "sparql/result_table.h"

namespace re2xolap::testing {

/// Bit-for-bit table identity: the same columns, and the same rows in the
/// same order, each cell of the same kind with the same term and display
/// term, or the same double down to its bits.
inline ::testing::AssertionResult IdenticalTables(
    const sparql::ResultTable& a, const sparql::ResultTable& b) {
  if (a.columns() != b.columns()) {
    return ::testing::AssertionFailure() << "columns differ";
  }
  if (a.row_count() != b.row_count()) {
    return ::testing::AssertionFailure()
           << a.row_count() << " rows vs " << b.row_count();
  }
  for (size_t r = 0; r < a.row_count(); ++r) {
    for (size_t c = 0; c < a.column_count(); ++c) {
      const sparql::Cell& x = a.at(r, c);
      const sparql::Cell& y = b.at(r, c);
      bool same = x.kind == y.kind && x.term == y.term;
      if (same && x.is_number()) {
        same = std::memcmp(&x.number, &y.number, sizeof(double)) == 0;
      } else if (same && x.is_term()) {
        same = x.display == y.display;
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "cell (" << r << ", " << c << "): " << a.CellToString(x)
               << " vs " << b.CellToString(y);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace re2xolap::testing

#endif  // RE2XOLAP_TESTS_TABLE_COMPARE_H_
