#ifndef RE2XOLAP_SPARQL_LABELS_H_
#define RE2XOLAP_SPARQL_LABELS_H_

#include "rdf/triple_store.h"
#include "sparql/result_table.h"

namespace re2xolap::sparql {

/// The display-label rule, in one place: an IRI displays as the first
/// literal object of its rdfs:label triples (in index order); an IRI
/// without one, and every literal, displays as itself.
///
/// The resolver reads the store, so a caller on a live store constructs
/// and uses it under one ReadPin: the executor does so under the query's
/// pin, which is what makes a result's labels come from the epoch its
/// rows come from.
class LabelResolver {
 public:
  /// Looks the rdfs:label predicate up once.
  explicit LabelResolver(const rdf::TripleStore& store);

  /// The rdfs:label literal of `term`, or kInvalidTermId when it has
  /// none (literals never do).
  rdf::TermId Label(rdf::TermId term) const;

  /// Label(term) when there is one, else `term`.
  rdf::TermId Display(rdf::TermId term) const {
    const rdf::TermId label = Label(term);
    return label != rdf::kInvalidTermId ? label : term;
  }

 private:
  const rdf::TripleStore& store_;
  rdf::TermId label_pred_;
};

/// Sets Cell::display on every term cell of `table`, resolving each
/// distinct term once.
void ResolveDisplayTerms(const rdf::TripleStore& store, ResultTable* table);

}  // namespace re2xolap::sparql

#endif  // RE2XOLAP_SPARQL_LABELS_H_
