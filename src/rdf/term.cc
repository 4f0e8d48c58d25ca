#include "rdf/term.h"

#include <cstdio>
#include <cstdint>
#include <cstdlib>

namespace re2xolap::rdf {

Term Term::DoubleLiteral(double v) {
  // %.17g guarantees the lexical form round-trips to the same double —
  // filter thresholds computed from aggregates must compare exactly.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return Term(TermKind::kLiteral, buf, LiteralType::kDouble);
}

namespace {

/// strtod of a numeric lexical form. Plain decimals ("-123", "45.678")
/// with at most 15 significant digits take an exact fast path: the digits
/// form an integer m < 2^53 and 10^k is exact for k <= 15, so m / 10^k is
/// the correctly rounded value — the double glibc's strtod returns, at a
/// fraction of its cost (the dictionary parses every numeric literal
/// while a snapshot loads). Everything else (exponents, a leading '+',
/// longer mantissas, trailing garbage) goes through strtod itself.
double ParseNumeric(const std::string& s) {
  static constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                      1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                      1e12, 1e13, 1e14, 1e15};
  const bool negative = !s.empty() && s[0] == '-';
  uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = -1;  // -1 until the decimal point
  for (size_t i = negative ? 1 : 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c >= '0' && c <= '9') {
      mantissa = mantissa * 10 + static_cast<uint64_t>(c - '0');
      if (++digits > 15) return std::strtod(s.c_str(), nullptr);
      if (frac_digits >= 0) ++frac_digits;
    } else if (c == '.' && frac_digits < 0) {
      frac_digits = 0;
    } else {
      return std::strtod(s.c_str(), nullptr);
    }
  }
  if (digits == 0) return std::strtod(s.c_str(), nullptr);
  double v = static_cast<double>(mantissa);
  if (frac_digits > 0) v /= kPow10[frac_digits];
  return negative ? -v : v;
}

}  // namespace

double Term::AsDouble() const {
  if (!is_literal()) return 0.0;
  switch (literal_type) {
    case LiteralType::kInteger:
    case LiteralType::kDouble:
      return ParseNumeric(value);
    default:
      return 0.0;
  }
}

std::string Term::ToString() const {
  switch (kind) {
    case TermKind::kIri:
      return "<" + value + ">";
    case TermKind::kBlankNode:
      return "_:" + value;
    case TermKind::kLiteral:
      switch (literal_type) {
        case LiteralType::kString:
          return "\"" + value + "\"";
        case LiteralType::kInteger:
          return "\"" + value + "\"^^xsd:integer";
        case LiteralType::kDouble:
          return "\"" + value + "\"^^xsd:double";
        case LiteralType::kBoolean:
          return "\"" + value + "\"^^xsd:boolean";
        case LiteralType::kDate:
          return "\"" + value + "\"^^xsd:date";
        case LiteralType::kOther:
          return "\"" + value + "\"^^<unknown>";
      }
  }
  return value;
}

}  // namespace re2xolap::rdf
