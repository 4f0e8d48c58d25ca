#include "sparql/labels.h"

#include <unordered_map>

namespace re2xolap::sparql {

namespace {
constexpr char kRdfsLabelIri[] = "http://www.w3.org/2000/01/rdf-schema#label";
}  // namespace

LabelResolver::LabelResolver(const rdf::TripleStore& store)
    : store_(store),
      label_pred_(store.Lookup(rdf::Term::Iri(kRdfsLabelIri))) {}

rdf::TermId LabelResolver::Label(rdf::TermId term) const {
  if (label_pred_ == rdf::kInvalidTermId || store_.term(term).is_literal()) {
    return rdf::kInvalidTermId;
  }
  for (const rdf::EncodedTriple& t :
       store_.Match({term, label_pred_, rdf::kInvalidTermId})) {
    if (store_.term(t.o).is_literal()) return t.o;
  }
  return rdf::kInvalidTermId;
}

void ResolveDisplayTerms(const rdf::TripleStore& store, ResultTable* table) {
  const LabelResolver labels(store);
  std::unordered_map<rdf::TermId, rdf::TermId> resolved;
  for (Row& row : table->mutable_rows()) {
    for (Cell& cell : row) {
      if (!cell.is_term()) continue;
      auto [it, inserted] = resolved.try_emplace(cell.term);
      if (inserted) it->second = labels.Display(cell.term);
      cell.display = it->second;
    }
  }
}

}  // namespace re2xolap::sparql
