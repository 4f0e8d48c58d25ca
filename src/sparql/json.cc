#include "sparql/json.h"

#include <cstdio>

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
    AppendJsonEscaped(columns[c], out);
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
          AppendJsonEscaped(dict->term(cell.shown()).value, out);
        } else {
          AppendJsonEscaped(table.CellToString(cell), out);
        }
        out->push_back('"');
      }
    }
    out->push_back(']');
  }
  out->push_back(']');
}

}  // namespace

void AppendJsonEscaped(std::string_view s, std::string* out) {
  size_t run = 0;  // start of the pending run of bytes copied verbatim
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out->append(buf);
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

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
