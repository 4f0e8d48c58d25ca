#include "sparql/json.h"

#include <cstdio>

#include "obs/trace.h"

namespace re2xolap::sparql {

namespace {

/// Spare capacity a full render leaves in `out` for the members callers
/// append after the table (the server's "stats" member and closing
/// brace), so that they do not reallocate the body.
constexpr size_t kRoomAfterTable = 192;

/// Encodes the first `rows` rows of `table` (the AppendTableJson layout).
void EncodeTable(const ResultTable& table, size_t rows, std::string* out) {
  const std::vector<std::string>& columns = table.columns();
  const rdf::Dictionary* dict = table.dictionary();
  out->append("{\"columns\": [");
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out->append(", ");
    out->push_back('"');
    obs::AppendJsonEscaped(columns[c], out);
    out->push_back('"');
  }
  out->append("], \"row_count\": ");
  out->append(std::to_string(table.row_count()));
  out->append(rows < table.row_count() ? ", \"truncated\": true"
                                       : ", \"truncated\": false");
  out->append(", \"rows\": [");
  for (size_t r = 0; r < rows; ++r) {
    out->append(r > 0 ? ", [" : "[");
    const Row& row = table.rows()[r];
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out->append(", ");
      const Cell& cell = row[c];
      if (cell.is_null()) {
        out->append("null");
      } else if (cell.is_number()) {
        AppendJsonNumber(cell.number, out);
      } else {
        out->push_back('"');
        if (dict != nullptr) {
          obs::AppendJsonEscaped(dict->term(cell.shown()).value, out);
        } else {
          obs::AppendJsonEscaped(table.CellToString(cell), out);
        }
        out->push_back('"');
      }
    }
    out->push_back(']');
  }
  out->push_back(']');
}

}  // namespace

void AppendJsonNumber(double v, std::string* out) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.12g", v);
  out->append(buf, static_cast<size_t>(n));
}

void AppendTableJson(const ResultTable& table, size_t limit, std::string* out) {
  if (limit != 0 && limit < table.row_count()) {
    EncodeTable(table, limit, out);
    return;
  }
  if (const std::string* memo = table.json_memo()) {
    out->reserve(out->size() + memo->size() + kRoomAfterTable);
    out->append(*memo);
    return;
  }
  const size_t start = out->size();
  EncodeTable(table, table.row_count(), out);
  // An exact-size copy: the memo lives as long as the table and is
  // charged by its size.
  table.PublishJsonMemo(out->substr(start));
}

}  // namespace re2xolap::sparql
