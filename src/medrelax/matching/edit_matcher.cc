#include "medrelax/matching/edit_matcher.h"

#include <vector>

#include "medrelax/text/edit_distance.h"
#include "medrelax/text/normalize.h"

namespace medrelax {

std::optional<ConceptMatch> EditDistanceMatcher::Map(
    std::string_view term) const {
  std::string normalized = NormalizeTerm(term);
  if (normalized.empty()) return std::nullopt;

  // An exact key is distance 0, which no candidate can beat, and entries
  // sharing a surface tie on trigrams, so the scan below would stop at
  // the lowest-index one: FindExact's first concept. The hash probe gives
  // that answer without blocking or Levenshtein.
  std::vector<ConceptId> exact = index_->FindExact(normalized);
  if (!exact.empty()) return ConceptMatch{exact.front(), 1.0};

  size_t best_distance = options_.max_distance + 1;
  double best_tiebreak = -1.0;
  ConceptId best = kInvalidConcept;

  for (size_t entry_index :
       index_->CandidatesByTrigram(normalized, options_.max_candidates)) {
    const NameEntry& entry = index_->entries()[entry_index];
    std::optional<size_t> d =
        BoundedLevenshtein(normalized, entry.surface, options_.max_distance);
    if (!d.has_value()) continue;
    if (*d < best_distance) {
      best_distance = *d;
      best = entry.concept_id;
      best_tiebreak = JaroWinkler(normalized, entry.surface);
      if (best_distance == 0) break;
    } else if (*d == best_distance) {
      double jw = JaroWinkler(normalized, entry.surface);
      if (jw > best_tiebreak) {
        best_tiebreak = jw;
        best = entry.concept_id;
      }
    }
  }
  if (best == kInvalidConcept) return std::nullopt;
  double span = static_cast<double>(options_.max_distance) + 1.0;
  return ConceptMatch{best, 1.0 - static_cast<double>(best_distance) / span};
}

}  // namespace medrelax
