#ifndef RE2XOLAP_SPARQL_RESULT_TABLE_H_
#define RE2XOLAP_SPARQL_RESULT_TABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "rdf/dictionary.h"

namespace re2xolap::sparql {

/// One cell of a query result: an RDF term (by id), a computed number
/// (aggregate output), or null (unbound). 16 bytes: a term cell keeps its
/// display term where a number cell keeps its value.
struct Cell {
  enum class Kind : uint8_t { kNull, kTerm, kNumber };
  Kind kind = Kind::kNull;
  rdf::TermId term = rdf::kInvalidTermId;
  union {
    /// kNumber: the value.
    double number = 0.0;
    /// kTerm: the term shown for `term` (its rdfs:label, or `term`
    /// itself), resolved by the executor under the query's epoch pin;
    /// kInvalidTermId in tables built outside sparql::Execute.
    rdf::TermId display;
  };

  static Cell Null() { return Cell{}; }
  static Cell OfTerm(rdf::TermId id) {
    Cell c;
    c.kind = Kind::kTerm;
    c.term = id;
    c.display = rdf::kInvalidTermId;
    return c;
  }
  static Cell OfNumber(double v) {
    Cell c;
    c.kind = Kind::kNumber;
    c.number = v;
    return c;
  }

  /// kTerm: the term a renderer shows, `display` when resolved.
  rdf::TermId shown() const {
    return display != rdf::kInvalidTermId ? display : term;
  }

  bool is_null() const { return kind == Kind::kNull; }
  bool is_term() const { return kind == Kind::kTerm; }
  bool is_number() const { return kind == Kind::kNumber; }

  friend bool operator==(const Cell& a, const Cell& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case Kind::kNull:
        return true;
      case Kind::kTerm:
        return a.term == b.term;
      case Kind::kNumber:
        return a.number == b.number;
    }
    return false;
  }
};
static_assert(sizeof(Cell) == 16);

using Row = std::vector<Cell>;

/// A materialized query result: named columns + rows of cells. Term cells
/// render through the store's dictionary, which is append-only and
/// epoch-independent, so a table reads the same however long it lives
/// and whatever the store publishes meanwhile; the dictionary must
/// outlive the table.
///
/// A table also carries a write-once memo of its JSON encoding
/// (sparql/json.h). Tables are shared immutably once materialized (the
/// engine's result cache hands one table to every caller), so the memo is
/// published with a compare-and-swap and read with one acquire load.
class ResultTable {
 public:
  ResultTable() = default;
  ResultTable(const rdf::Dictionary* dict, std::vector<std::string> columns)
      : dict_(dict), columns_(std::move(columns)) {}
  ~ResultTable() { delete json_.load(std::memory_order_relaxed); }

  /// Copies and moves carry the cells; a copy starts without a memo or
  /// observer, a move takes both.
  ResultTable(const ResultTable& other)
      : dict_(other.dict_), columns_(other.columns_), rows_(other.rows_) {}
  ResultTable(ResultTable&& other) noexcept { *this = std::move(other); }
  ResultTable& operator=(const ResultTable& other) {
    if (this != &other) *this = ResultTable(other);
    return *this;
  }
  ResultTable& operator=(ResultTable&& other) noexcept;

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>& mutable_rows() { return rows_; }
  size_t row_count() const { return rows_.size(); }
  size_t column_count() const { return columns_.size(); }
  const rdf::Dictionary* dictionary() const { return dict_; }

  void AddRow(Row row) { rows_.push_back(std::move(row)); }

  /// Index of a column by name; -1 when absent.
  int ColumnIndex(const std::string& name) const;

  const Cell& at(size_t row, size_t col) const { return rows_[row][col]; }

  /// Numeric view of a cell: number cells directly, term cells via the
  /// literal's numeric value, null as 0.
  double NumericValue(const Cell& cell) const;

  /// Human-readable rendering of a cell ("Germany", "8030", "" for null):
  /// a term cell shows its display term, or the term itself when none
  /// was resolved.
  std::string CellToString(const Cell& cell) const;

  /// Pretty-prints as an aligned ASCII table (Table 2 style).
  void Print(std::ostream& os, size_t max_rows = 50) const;

  /// The memoized full-table JSON encoding, or nullptr before the first
  /// full render.
  const std::string* json_memo() const {
    return json_.load(std::memory_order_acquire);
  }
  /// Publishes `json` as the memo unless a concurrent render published
  /// first; returns the memo in place either way. The winner passes the
  /// memo's size to the memo observer.
  const std::string& PublishJsonMemo(std::string json) const;
  /// Sets the callback PublishJsonMemo runs once, with the memo's byte
  /// size, when the memo attaches (the engine charges its result cache
  /// with it). Must be set before the table is shared.
  void set_memo_observer(std::function<void(size_t)> observer) {
    memo_observer_ = std::move(observer);
  }

 private:
  const rdf::Dictionary* dict_ = nullptr;
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
  mutable std::atomic<const std::string*> json_{nullptr};  // owned
  std::function<void(size_t)> memo_observer_;
};

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_RESULT_TABLE_H_
