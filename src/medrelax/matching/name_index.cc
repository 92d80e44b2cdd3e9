#include "medrelax/matching/name_index.h"

#include <algorithm>
#include <cstddef>

#include "medrelax/text/normalize.h"

namespace medrelax {

namespace {

/// Packs a 1-3 character gram into one integer key. The length tag in the
/// top byte keeps short surface forms (CharNgrams returns the whole
/// string when it is <= n chars) distinct from true trigrams that happen
/// to share a byte prefix.
uint32_t PackGram(std::string_view gram) {
  uint32_t key = static_cast<uint32_t>(gram.size()) << 24;
  for (size_t i = 0; i < gram.size(); ++i) {
    key |= static_cast<uint32_t>(static_cast<unsigned char>(gram[i]))
           << (8 * (2 - i));
  }
  return key;
}

/// Visits exactly the grams CharNgrams(s, 3) would return, as packed
/// keys, without materializing a string per gram — index construction is
/// the hot half of booting a snapshot from a flat image.
template <typename Fn>
void ForEachTrigramKey(std::string_view s, Fn&& fn) {
  if (s.empty()) return;
  if (s.size() <= 3) {
    fn(PackGram(s));
    return;
  }
  for (size_t i = 0; i + 3 <= s.size(); ++i) fn(PackGram(s.substr(i, 3)));
}

}  // namespace

size_t NameIndex::TrigramTable::Probe(uint32_t key) const {
  // Fibonacci hashing spreads the packed byte patterns; capacity is a
  // power of two so the mask replaces a modulo.
  const size_t mask = slots_.size() - 1;
  size_t slot = (key * 2654435761u) & mask;
  while (slots_[slot].second != kEmpty && slots_[slot].first != key) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void NameIndex::TrigramTable::Grow() {
  std::vector<std::pair<uint32_t, int32_t>> old = std::move(slots_);
  slots_.assign(old.empty() ? 1024 : old.size() * 2, {0, kEmpty});
  for (const auto& [key, id] : old) {
    if (id != kEmpty) slots_[Probe(key)] = {key, id};
  }
}

uint32_t NameIndex::TrigramTable::Intern(uint32_t key) {
  if (slots_.empty() || (offsets_.size() - 1) * 2 >= slots_.size()) Grow();
  size_t slot = Probe(key);
  if (slots_[slot].second == kEmpty) {
    slots_[slot] = {key, static_cast<int32_t>(offsets_.size() - 1)};
    offsets_.push_back(0);  // counts accumulate here during pass 1
  }
  return static_cast<uint32_t>(slots_[slot].second);
}

void NameIndex::TrigramTable::Build(const std::vector<NameEntry>& entries) {
  // Pass 1: intern keys, count postings per key (counts staged in
  // offsets_[id + 1]), and record each posting's dense id — grams arrive
  // in entry order, so pass 2 can replay the ids against per-entry gram
  // counts without probing the slot table a second time.
  offsets_.assign(1, 0);
  // The id buffer is sized exactly up front: grown by doubling, its
  // copies and freed blocks depend on the allocator's state at the time,
  // and a lazily built table in a serving process then leaves a resident
  // size that differs from one start to the next.
  size_t total_grams = 0;
  for (const NameEntry& entry : entries) {
    const size_t length = entry.surface.size();
    total_grams += length == 0 ? 0 : (length <= 3 ? 1 : length - 2);
  }
  std::vector<uint32_t> ids;
  ids.reserve(total_grams);
  for (const NameEntry& entry : entries) {
    ForEachTrigramKey(entry.surface, [&](uint32_t key) {
      const uint32_t id = Intern(key);
      ++offsets_[id + 1];
      ids.push_back(id);
    });
  }
  // Exclusive scan turns counts into CSR offsets.
  for (size_t k = 1; k < offsets_.size(); ++k) offsets_[k] += offsets_[k - 1];
  postings_.resize(offsets_.back());
  // Pass 2: place each posting at its key's cursor. The live cursors are
  // one per distinct trigram, so the writes stay cache-resident even
  // with millions of postings.
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  size_t next = 0;
  for (size_t e = 0; e < entries.size(); ++e) {
    const size_t length = entries[e].surface.size();
    if (length == 0) continue;
    const size_t grams = length <= 3 ? 1 : length - 2;
    for (size_t g = 0; g < grams; ++g) {
      postings_[cursor[ids[next++]]++] = static_cast<uint32_t>(e);
    }
  }
}

std::span<const uint32_t> NameIndex::TrigramTable::Find(uint32_t key) const {
  if (slots_.empty()) return {};
  size_t slot = Probe(key);
  if (slots_[slot].second == kEmpty) return {};
  const auto id = static_cast<size_t>(slots_[slot].second);
  return std::span<const uint32_t>(postings_).subspan(
      offsets_[id], offsets_[id + 1] - offsets_[id]);
}

NameIndex::NameIndex(const ConceptDag* dag) : dag_(dag) {
  size_t num_surfaces = dag_->num_concepts();
  for (ConceptId id = 0; id < dag_->num_concepts(); ++id) {
    num_surfaces += dag_->synonyms(id).size();
  }
  entries_.reserve(num_surfaces);
  exact_.reserve(num_surfaces);
  for (ConceptId id = 0; id < dag_->num_concepts(); ++id) {
    auto add_entry = [&](const std::string& raw, bool canonical) {
      std::string normalized = NormalizeTerm(raw);
      if (normalized.empty()) return;
      entries_.push_back({std::move(normalized), id, canonical});
      exact_[entries_.back().surface].push_back(id);
    };
    add_entry(dag_->name(id), /*canonical=*/true);
    for (const std::string& syn : dag_->synonyms(id)) {
      add_entry(syn, /*canonical=*/false);
    }
  }
}

std::vector<ConceptId> NameIndex::FindExact(std::string_view surface) const {
  auto it = exact_.find(NormalizeTerm(surface));
  if (it == exact_.end()) return {};
  // Dedup while preserving order (canonical-first insertion order).
  std::vector<ConceptId> out;
  for (ConceptId id : it->second) {
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

std::vector<size_t> NameIndex::CandidatesByTrigram(
    std::string_view normalized, size_t max_candidates) const {
  std::call_once(trigram_once_, [this] { trigram_postings_.Build(entries_); });
  // Dense per-entry counters plus the list of entries they touched: one
  // flat allocation per call instead of a node per touched entry, and
  // only the kept head of the ranking is ever sorted.
  std::vector<uint32_t> shared(entries_.size(), 0);
  std::vector<uint32_t> touched;
  ForEachTrigramKey(normalized, [&](uint32_t gram) {
    for (uint32_t entry : trigram_postings_.Find(gram)) {
      if (shared[entry]++ == 0) touched.push_back(entry);
    }
  });
  auto ranks_before = [&shared](uint32_t a, uint32_t b) {
    if (shared[a] != shared[b]) return shared[a] > shared[b];
    return a < b;
  };
  const auto keep = touched.begin() +
                    static_cast<std::ptrdiff_t>(
                        std::min(max_candidates, touched.size()));
  std::nth_element(touched.begin(), keep, touched.end(), ranks_before);
  std::sort(touched.begin(), keep, ranks_before);
  return std::vector<size_t>(touched.begin(), keep);
}

}  // namespace medrelax
