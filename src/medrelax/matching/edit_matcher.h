#ifndef MEDRELAX_MATCHING_EDIT_MATCHER_H_
#define MEDRELAX_MATCHING_EDIT_MATCHER_H_

#include <cstddef>
#include <optional>
#include <string>

#include "medrelax/matching/matcher.h"
#include "medrelax/matching/name_index.h"

namespace medrelax {

/// Options for the EDIT mapping method.
struct EditMatcherOptions {
  /// Edit-distance acceptance threshold τ (paper uses τ = 2, Section 7.2).
  size_t max_distance = 2;
  /// Trigram-blocking fan-out: how many index entries are verified with the
  /// banded Levenshtein per query.
  size_t max_candidates = 256;
};

/// EDIT mapping method of Section 7.2: approximate string matching with an
/// edit-distance threshold. Exact hits (distance 0) win; otherwise the
/// candidate with the smallest distance, Jaro-Winkler as tie-break.
///
/// Map probes the index's exact table first: a term whose normalized form
/// is an indexed surface maps to FindExact's first concept with score 1.0
/// in one hash probe. That is the lowest entry index carrying the
/// surface, the candidate the scan picks whenever blocking keeps it
/// within max_candidates. Only a miss pays trigram blocking and the
/// banded Levenshtein over the candidates.
class EditDistanceMatcher : public MappingFunction {
 public:
  /// Borrows `index`, which must outlive the matcher.
  EditDistanceMatcher(const NameIndex* index, EditMatcherOptions options)
      : index_(index), options_(options) {}

  std::string name() const override { return "EDIT"; }

  std::optional<ConceptMatch> Map(std::string_view term) const override;

 private:
  const NameIndex* index_;
  EditMatcherOptions options_;
};

}  // namespace medrelax

#endif  // MEDRELAX_MATCHING_EDIT_MATCHER_H_
