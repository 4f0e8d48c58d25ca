#include "sparql/result_table.h"

#include "util/string_utils.h"
#include "util/table_printer.h"

namespace re2xolap::sparql {

ResultTable& ResultTable::operator=(ResultTable&& other) noexcept {
  if (this == &other) return *this;
  const std::string* memo =
      other.json_.exchange(nullptr, std::memory_order_relaxed);
  delete json_.exchange(memo, std::memory_order_relaxed);
  dict_ = other.dict_;
  columns_ = std::move(other.columns_);
  rows_ = std::move(other.rows_);
  memo_observer_ = std::move(other.memo_observer_);
  return *this;
}

int ResultTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

double ResultTable::NumericValue(const Cell& cell) const {
  switch (cell.kind) {
    case Cell::Kind::kNumber:
      return cell.number;
    case Cell::Kind::kTerm:
      return dict_ ? dict_->numeric(cell.term) : 0.0;
    case Cell::Kind::kNull:
      return 0.0;
  }
  return 0.0;
}

std::string ResultTable::CellToString(const Cell& cell) const {
  switch (cell.kind) {
    case Cell::Kind::kNull:
      return "";
    case Cell::Kind::kNumber:
      return util::FormatDouble(cell.number);
    case Cell::Kind::kTerm:
      if (!dict_) return "#" + std::to_string(cell.term);
      return dict_->term(cell.shown()).value;
  }
  return "";
}

void ResultTable::Print(std::ostream& os, size_t max_rows) const {
  util::TablePrinter printer(columns_);
  size_t shown = 0;
  for (const Row& row : rows_) {
    if (shown++ >= max_rows) break;
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const Cell& c : row) cells.push_back(CellToString(c));
    printer.AddRow(std::move(cells));
  }
  printer.Print(os);
  if (rows_.size() > max_rows) {
    os << "... (" << rows_.size() - max_rows << " more rows)\n";
  }
}

const std::string& ResultTable::PublishJsonMemo(std::string json) const {
  const std::string* mine = new std::string(std::move(json));
  const std::string* expected = nullptr;
  if (!json_.compare_exchange_strong(expected, mine,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    delete mine;
    return *expected;  // a concurrent render won
  }
  if (memo_observer_) memo_observer_(mine->size());
  return *mine;
}

}  // namespace re2xolap::sparql
