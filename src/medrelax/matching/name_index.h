#ifndef MEDRELAX_MATCHING_NAME_INDEX_H_
#define MEDRELAX_MATCHING_NAME_INDEX_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "medrelax/graph/concept_dag.h"

namespace medrelax {

/// One indexed surface form of an external concept.
struct NameEntry {
  /// Normalized surface form (canonical name or synonym).
  std::string surface;
  ConceptId concept_id = kInvalidConcept;
  /// True for the canonical name, false for synonyms.
  bool is_canonical = false;
};

/// Normalized-name index over an external knowledge source, shared by all
/// mapping functions (Section 3: "matching the instance data and external
/// concepts with exactly the same names, very similar names in terms of
/// edit distance, or similar names in terms of word embeddings").
///
/// Exact lookup is hash-based; fuzzy lookups use character-trigram blocking
/// so the edit-distance matcher does not scan the whole vocabulary.
/// Trigrams are packed into integer keys (length tag + up to 3 bytes)
/// rather than heap strings: index construction is on the snapshot load
/// path, where a 64k-concept vocabulary means millions of postings.
class NameIndex {
 public:
  /// Builds the index from every concept's canonical name and synonyms.
  /// Borrows `dag`, which must outlive the index.
  explicit NameIndex(const ConceptDag* dag);

  /// Concepts whose canonical name or synonym normalizes to exactly the
  /// normalized input (usually 0 or 1; synonym collisions can yield more).
  [[nodiscard]]
  std::vector<ConceptId> FindExact(std::string_view surface) const;

  /// Entry indexes of surface forms sharing at least one character trigram
  /// with the normalized input, ordered by shared-trigram count
  /// descending, then entry index ascending (blocking set for the fuzzy
  /// matchers). A trigram repeated in the input counts once per
  /// occurrence. At most `max_candidates` entries.
  ///
  /// Counting uses a dense per-entry uint32_t counter sized to
  /// entries(), allocated per call, plus the list of entries it touched;
  /// only the top `max_candidates` of that list are selected
  /// (nth_element) and sorted. The per-call cost is one zeroed
  /// vocabulary-sized buffer (~0.4 MB at 64k concepts) plus the postings
  /// walk — no hidden per-thread state.
  ///
  /// The postings table behind this is built lazily on first call (under
  /// std::call_once — concurrent queries are safe): exact-matcher
  /// deployments never look at trigrams, so booting a snapshot from a
  /// flat image stays free of the one vocabulary-sized pass this needs.
  /// EDIT deployments probe FindExact first, so they pay it on their
  /// first *fuzzy* lookup (a term that is not an exact key), not on
  /// their first lookup.
  std::vector<size_t> CandidatesByTrigram(std::string_view normalized,
                                          size_t max_candidates) const;

  /// All indexed entries.
  [[nodiscard]]
  const std::vector<NameEntry>& entries() const { return entries_; }

  [[nodiscard]] const ConceptDag& dag() const { return *dag_; }

 private:
  /// Trigram -> postings, stored CSR. A 64k-concept vocabulary produces
  /// ~3M postings over only a few thousand distinct trigram keys, and
  /// index construction sits directly on the snapshot image load path —
  /// so the table is built in two counting passes into one flat postings
  /// array (no per-key vector growth, cursor writes stay cache-resident)
  /// with keys resolved by linear probing over a flat power-of-two slot
  /// array instead of a node-based map.
  class TrigramTable {
   public:
    /// Builds the table over the (already normalized) entry surfaces.
    void Build(const std::vector<NameEntry>& entries);
    /// The entry indexes containing `key`, in ascending entry order;
    /// empty when the trigram was never seen.
    [[nodiscard]] std::span<const uint32_t> Find(uint32_t key) const;

   private:
    /// Dense id of `key`, interning it on first sight.
    uint32_t Intern(uint32_t key);
    /// Slot index of `key`, or of the empty slot where it would insert.
    [[nodiscard]] size_t Probe(uint32_t key) const;
    void Grow();

    static constexpr int32_t kEmpty = -1;
    /// (key, dense id) pairs; id kEmpty marks a free slot. Capacity is a
    /// power of two, load kept under 1/2.
    std::vector<std::pair<uint32_t, int32_t>> slots_;
    /// Postings of dense id k live in
    /// postings_[offsets_[k] .. offsets_[k + 1]).
    std::vector<uint32_t> offsets_;
    std::vector<uint32_t> postings_;
  };

  const ConceptDag* dag_;
  std::vector<NameEntry> entries_;
  /// Keys view into entries_' surfaces (no second copy of the
  /// vocabulary). Safe because entries_ is reserved to its exact final
  /// size before the first insert and never touched afterwards — small
  /// (SSO) strings live inside the vector's buffer, so a reallocation
  /// would dangle these views.
  std::unordered_map<std::string_view, std::vector<ConceptId>> exact_;
  /// Lazily built by CandidatesByTrigram (see its contract); mutable so
  /// the logically-const first lookup can materialize it.
  mutable std::once_flag trigram_once_;
  mutable TrigramTable trigram_postings_;
};

}  // namespace medrelax

#endif  // MEDRELAX_MATCHING_NAME_INDEX_H_
