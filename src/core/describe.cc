#include "core/describe.h"

#include "sparql/labels.h"

namespace re2xolap::core {

std::string DisplayName(const rdf::TripleStore& store, rdf::TermId term) {
  const rdf::Term& t = store.term(term);
  if (t.is_literal()) return t.value;
  const rdf::TermId label = sparql::LabelResolver(store).Label(term);
  if (label != rdf::kInvalidTermId) return store.term(label).value;
  return PrettifyIriLocalName(t.value);
}

std::string DisplayNameOfIri(const rdf::TripleStore& store,
                             const std::string& iri) {
  rdf::TermId id = store.Lookup(rdf::Term::Iri(iri));
  if (id != rdf::kInvalidTermId) return DisplayName(store, id);
  return PrettifyIriLocalName(iri);
}

std::string DescribePath(const rdf::TripleStore& store,
                         const LevelPath& path) {
  std::string out;
  for (size_t s = 0; s < path.predicates.size(); ++s) {
    if (s > 0) out += " / ";
    out += DisplayName(store, path.predicates[s]);
  }
  return out;
}

}  // namespace re2xolap::core
