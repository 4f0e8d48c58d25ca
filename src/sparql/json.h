#ifndef RE2XOLAP_SPARQL_JSON_H_
#define RE2XOLAP_SPARQL_JSON_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "sparql/result_table.h"

namespace re2xolap::sparql {

/// Appends `s` to `out` as the body of a JSON string (no quotes): quote,
/// backslash and control bytes escaped, every other byte copied.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// Appends `v` in the "%.12g" form every JSON number in the server's
/// responses uses.
void AppendJsonNumber(double v, std::string* out);

/// Appends the table as the opening of a JSON object, without its
/// closing brace, so callers can add members after it:
///
///   {"columns": ["a", "b"], "row_count": N, "truncated": false,
///    "rows": [["Germany", 8030], ...]
///
/// (on one line, ", " between items). Term cells render as strings of
/// their display terms, number cells as numbers, null cells as null.
/// `limit` caps the rows written (0 = all); "row_count" stays the table's.
///
/// A full render (no cap, or a cap at or above row_count) is encoded once
/// per table: the first one publishes the encoding as the table's memo
/// (ResultTable::PublishJsonMemo) and every later one appends the memo,
/// leaving room in `out` for a short tail such as the server's "stats"
/// member. A capped render encodes its prefix directly and leaves the
/// memo alone.
void AppendTableJson(const ResultTable& table, size_t limit, std::string* out);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_JSON_H_
