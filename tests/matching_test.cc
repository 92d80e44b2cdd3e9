// Tests of the name index and the three mapping functions of Section 7.2.

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "medrelax/datasets/kb_generator.h"
#include "medrelax/datasets/paper_fixtures.h"
#include "medrelax/datasets/query_generator.h"
#include "medrelax/embedding/word_vectors.h"
#include "medrelax/matching/edit_matcher.h"
#include "medrelax/matching/embedding_matcher.h"
#include "medrelax/matching/exact_matcher.h"
#include "medrelax/matching/name_index.h"
#include "medrelax/text/edit_distance.h"
#include "medrelax/text/normalize.h"
#include "medrelax/text/tokenize.h"

namespace medrelax {
namespace {

TEST(NameIndex, ExactFindsCanonicalAndSynonyms) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  std::vector<ConceptId> hits = index.FindExact("Kidney Disease");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], fx->kidney_disease);
  // Synonym lookup.
  hits = index.FindExact("nephropathy");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], fx->kidney_disease);
  EXPECT_TRUE(index.FindExact("unknown thing").empty());
}

TEST(NameIndex, TrigramBlockingFindsSimilarSurfaces) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  std::vector<size_t> candidates =
      index.CandidatesByTrigram("kidney diseas", 10);
  ASSERT_FALSE(candidates.empty());
  // The top candidate shares the most trigrams: "kidney disease".
  EXPECT_EQ(index.entries()[candidates[0]].surface, "kidney disease");
}

TEST(ExactMatcher, MapsOnlyExactNormalizedNames) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  ExactMatcher matcher(&index);
  EXPECT_EQ(matcher.name(), "EXACT");
  auto m = matcher.Map("KIDNEY-DISEASE");  // normalization handles case/punct
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, fx->kidney_disease);
  EXPECT_DOUBLE_EQ(m->score, 1.0);
  EXPECT_FALSE(matcher.Map("kidny disease").has_value());  // typo: no match
}

TEST(EditMatcher, MapsWithinThreshold) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  EXPECT_EQ(matcher.name(), "EDIT");
  auto m = matcher.Map("kidny disease");  // distance 1
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, fx->kidney_disease);
  EXPECT_LT(m->score, 1.0);
  // Exact surfaces still map with the top score.
  m = matcher.Map("kidney disease");
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->score, 1.0);
}

TEST(EditMatcher, RejectsBeyondTau) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  EditMatcherOptions opts;
  opts.max_distance = 1;
  EditDistanceMatcher matcher(&index, opts);
  EXPECT_FALSE(matcher.Map("kidny diseaze").has_value());  // distance 2
}

TEST(EditMatcher, MatchesSynonymSurfaces) {
  auto fx = BuildFigure5Fixture();
  ASSERT_TRUE(fx.ok());
  NameIndex index(&fx->dag);
  EditDistanceMatcher matcher(&index, EditMatcherOptions{});
  auto m = matcher.Map("nephropathy");  // synonym, distance 0
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, fx->kidney_disease);
}

// Embedding matcher needs word vectors; train a small model on a corpus
// built from the fixture names so every word is in-vocabulary.
struct EmbeddingRig {
  Figure5Fixture fx;
  WordVectors vectors;
  std::unique_ptr<SifModel> sif;
  std::unique_ptr<NameIndex> index;
};

EmbeddingRig MakeEmbeddingRig() {
  EmbeddingRig rig;
  auto fx = BuildFigure5Fixture();
  EXPECT_TRUE(fx.ok());
  rig.fx = std::move(*fx);
  Corpus corpus;
  for (int rep = 0; rep < 12; ++rep) {
    Document doc;
    doc.name = "d" + std::to_string(rep);
    DocumentSection s;
    s.context = kNoContext;
    for (ConceptId id = 0; id < rig.fx.dag.num_concepts(); ++id) {
      for (const std::string& tok : Tokenize(rig.fx.dag.name(id))) {
        s.tokens.push_back(tok);
      }
    }
    doc.sections.push_back(std::move(s));
    corpus.AddDocument(std::move(doc));
  }
  WordVectorOptions opts;
  opts.dimensions = 16;
  rig.vectors = WordVectors::Train(corpus, opts);

  std::vector<std::vector<std::string>> reference;
  for (ConceptId id = 0; id < rig.fx.dag.num_concepts(); ++id) {
    reference.push_back(Tokenize(rig.fx.dag.name(id)));
  }
  rig.sif = std::make_unique<SifModel>(&rig.vectors, reference, SifOptions{});
  rig.index = std::make_unique<NameIndex>(&rig.fx.dag);
  return rig;
}

TEST(EmbeddingMatcher, ExactHitShortCircuits) {
  EmbeddingRig rig = MakeEmbeddingRig();
  EmbeddingMatcher matcher(rig.index.get(), rig.sif.get(),
                           EmbeddingMatcherOptions{});
  EXPECT_EQ(matcher.name(), "EMBEDDING");
  auto m = matcher.Map("kidney disease");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, rig.fx.kidney_disease);
  EXPECT_DOUBLE_EQ(m->score, 1.0);
}

TEST(EmbeddingMatcher, PartialPhraseMapsToNearestConcept) {
  EmbeddingRig rig = MakeEmbeddingRig();
  EmbeddingMatcherOptions opts;
  opts.min_similarity = 0.3;
  EmbeddingMatcher matcher(rig.index.get(), rig.sif.get(), opts);
  // A word-order / token-subset variant of a fixture name: pure string
  // matchers miss it, the embedding sees shared tokens.
  auto m = matcher.Map("hypertension chronic kidney disease stage 1");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->id, rig.fx.ckd_stage1_due_to_hypertension);
}

TEST(EmbeddingMatcher, FullyOovTermAbstains) {
  EmbeddingRig rig = MakeEmbeddingRig();
  EmbeddingMatcher matcher(rig.index.get(), rig.sif.get(),
                           EmbeddingMatcherOptions{});
  EXPECT_FALSE(matcher.Map("zzz qqq www").has_value());
}

// --- EDIT parity against the straightforward algorithm -------------------
//
// ReferenceEdit is the EDIT mapping written the plain way: string-keyed
// postings with one entry per gram occurrence, a hash map of shared
// counts, a full sort by (count desc, entry index asc), and a scan of the
// top candidates that stops at the first distance-0 hit. NameIndex and
// EditDistanceMatcher take shortcuts (packed keys, a dense counter with a
// partial selection, an exact-key probe before any blocking); these tests
// pin that the shortcuts change no answer.

class ReferenceEdit {
 public:
  explicit ReferenceEdit(const NameIndex* index) : index_(index) {
    const std::vector<NameEntry>& entries = index_->entries();
    for (size_t e = 0; e < entries.size(); ++e) {
      for (const std::string& gram : CharNgrams(entries[e].surface, 3)) {
        postings_[gram].push_back(e);
      }
    }
  }

  /// Every entry sharing a gram, fully ranked, with its shared count.
  std::vector<std::pair<size_t, size_t>> Ranked(
      std::string_view normalized) const {
    std::unordered_map<size_t, size_t> shared;
    for (const std::string& gram : CharNgrams(normalized, 3)) {
      auto it = postings_.find(gram);
      if (it == postings_.end()) continue;
      for (size_t entry : it->second) ++shared[entry];
    }
    std::vector<std::pair<size_t, size_t>> ranked(shared.begin(),
                                                  shared.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    return ranked;
  }

  std::vector<size_t> Candidates(std::string_view normalized,
                                 size_t max_candidates) const {
    std::vector<size_t> out;
    for (const auto& [entry, count] : Ranked(normalized)) {
      if (out.size() >= max_candidates) break;
      out.push_back(entry);
    }
    return out;
  }

  std::optional<ConceptMatch> Map(std::string_view term,
                                  const EditMatcherOptions& options) const {
    std::string normalized = NormalizeTerm(term);
    if (normalized.empty()) return std::nullopt;
    size_t best_distance = options.max_distance + 1;
    double best_tiebreak = -1.0;
    ConceptId best = kInvalidConcept;
    for (size_t entry_index :
         Candidates(normalized, options.max_candidates)) {
      const NameEntry& entry = index_->entries()[entry_index];
      std::optional<size_t> d =
          BoundedLevenshtein(normalized, entry.surface, options.max_distance);
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
    double span = static_cast<double>(options.max_distance) + 1.0;
    return ConceptMatch{best,
                        1.0 - static_cast<double>(best_distance) / span};
  }

 private:
  const NameIndex* index_;
  std::unordered_map<std::string, std::vector<size_t>> postings_;
};

/// Asserts the matcher and the reference agree on `term`: both abstain,
/// or both pick the same concept with the bit-identical score.
void ExpectSameMapping(const EditDistanceMatcher& matcher,
                       const ReferenceEdit& reference,
                       const EditMatcherOptions& options,
                       std::string_view term) {
  std::optional<ConceptMatch> got = matcher.Map(term);
  std::optional<ConceptMatch> want = reference.Map(term, options);
  ASSERT_EQ(got.has_value(), want.has_value()) << "term '" << term << "'";
  if (!got.has_value()) return;
  EXPECT_EQ(got->id, want->id) << "term '" << term << "'";
  EXPECT_EQ(got->score, want->score) << "term '" << term << "'";
}

/// The 4k-concept synthetic world the parity tests share.
const GeneratedWorld& ParityWorld() {
  static const GeneratedWorld world = [] {
    SnomedGeneratorOptions eks;
    eks.num_concepts = 4000;
    eks.seed = 7;
    Result<GeneratedWorld> generated = GenerateWorld(eks, KbGeneratorOptions{});
    EXPECT_TRUE(generated.ok()) << generated.status();
    return std::move(*generated);
  }();
  return world;
}

// The reference costs ~1 ms per term on this world (each term's grams
// touch most of its ~7k entries), so the 4k-world checks are split into
// shards that ctest runs in parallel; shard k takes every kShards-th
// index surface and noisy query.
constexpr size_t kShards = 8;

class EditParity4kWorld : public testing::TestWithParam<size_t> {};

TEST_P(EditParity4kWorld, IndexSurfacesAndNoisyQueriesMapAsTheReference) {
  const size_t shard = GetParam();
  const GeneratedWorld& world = ParityWorld();
  NameIndex index(&world.eks.dag);
  ReferenceEdit reference(&index);
  EditMatcherOptions options;
  EditDistanceMatcher matcher(&index, options);
  ASSERT_GT(index.entries().size(), 4000u);
  for (size_t e = shard; e < index.entries().size(); e += kShards) {
    ExpectSameMapping(matcher, reference, options, index.entries()[e].surface);
  }

  MappingWorkloadOptions workload;
  workload.num_queries = 1000;
  std::vector<MappingQuery> queries =
      GenerateMappingQueries(world.eks, workload);
  ASSERT_GT(queries.size(), 900u);
  size_t fuzzy = 0;
  for (size_t q = shard; q < queries.size(); q += kShards) {
    if (index.FindExact(queries[q].surface).empty()) ++fuzzy;
    ExpectSameMapping(matcher, reference, options, queries[q].surface);
  }
  // The workload must reach the blocking path, not just the exact probe.
  EXPECT_GT(fuzzy, 10u);
}

INSTANTIATE_TEST_SUITE_P(Shards, EditParity4kWorld,
                         testing::Range(size_t{0}, kShards));

TEST(EditParity, PaperFixturesMapAsTheReference) {
  auto f4 = BuildFigure4Fixture();
  auto f5 = BuildFigure5Fixture();
  auto f6 = BuildFigure6Fixture();
  ASSERT_TRUE(f4.ok() && f5.ok() && f6.ok());
  for (const ConceptDag* dag : {&f4->dag, &f5->dag, &f6->dag}) {
    NameIndex index(dag);
    ReferenceEdit reference(&index);
    for (size_t max_distance : {size_t{1}, size_t{2}}) {
      EditMatcherOptions options;
      options.max_distance = max_distance;
      EditDistanceMatcher matcher(&index, options);
      for (const NameEntry& entry : index.entries()) {
        const std::string& s = entry.surface;
        ExpectSameMapping(matcher, reference, options, s);
        // A deletion, a substitution and a transposition of each surface.
        ExpectSameMapping(matcher, reference, options, s.substr(1));
        std::string substituted = s;
        substituted[substituted.size() / 2] = 'x';
        ExpectSameMapping(matcher, reference, options, substituted);
        if (s.size() >= 2) {
          std::string swapped = s;
          std::swap(swapped[0], swapped[1]);
          ExpectSameMapping(matcher, reference, options, swapped);
        }
      }
      ExpectSameMapping(matcher, reference, options, "");
      ExpectSameMapping(matcher, reference, options, "zzzz qqqq");
    }
  }
}

/// A hand-built vocabulary with the shapes the generator rarely makes:
/// surfaces shared across concepts (by case, by synonym, and by one
/// concept carrying the same synonym twice), repeated grams, and 1-3
/// character surfaces.
ConceptDag BuildTinyVocabulary() {
  ConceptDag dag;
  auto add = [&dag](const std::string& name,
                    const std::vector<std::string>& synonyms) {
    Result<ConceptId> id = dag.AddConcept(name);
    EXPECT_TRUE(id.ok()) << id.status();
    for (const std::string& syn : synonyms) {
      EXPECT_TRUE(dag.AddSynonym(*id, syn).ok());
    }
  };
  add("root", {});
  add("fever", {"pyrexia", "high temperature"});
  add("Fever", {"febrile"});                   // same surface as "fever"
  add("drug fever", {"fever", "fever"});       // shares "fever" twice
  add("aaaaaa", {"aaa", "aaaa"});
  add("baaab", {"aaab aaa"});
  add("a", {"ab", "abc"});
  add("abcd", {"bcd"});
  add("pain in throat", {"sore throat", "throat"});
  add("throat", {"Throat"});                   // shares "throat"
  return dag;
}

TEST(EditParity, SharedSurfacesMapToTheLowestEntryWithFullScore) {
  ConceptDag tiny_dag = BuildTinyVocabulary();
  NameIndex index(&tiny_dag);
  ReferenceEdit reference(&index);
  EditMatcherOptions options;
  EditDistanceMatcher matcher(&index, options);

  // Group entry indexes by surface; a group naming two or more concepts
  // is a shared surface.
  std::map<std::string, std::vector<size_t>> by_surface;
  for (size_t e = 0; e < index.entries().size(); ++e) {
    by_surface[index.entries()[e].surface].push_back(e);
  }
  size_t shared_surfaces = 0;
  for (const auto& [surface, group] : by_surface) {
    std::vector<ConceptId> concepts;
    for (size_t e : group) concepts.push_back(index.entries()[e].concept_id);
    std::sort(concepts.begin(), concepts.end());
    concepts.erase(std::unique(concepts.begin(), concepts.end()),
                   concepts.end());
    if (concepts.size() < 2) continue;
    ++shared_surfaces;
    std::optional<ConceptMatch> m = matcher.Map(surface);
    ASSERT_TRUE(m.has_value()) << surface;
    EXPECT_EQ(m->id, index.entries()[group.front()].concept_id) << surface;
    EXPECT_EQ(m->score, 1.0) << surface;
  }
  EXPECT_EQ(shared_surfaces, 2u);  // "fever" and "throat"

  for (const auto& [surface, group] : by_surface) {
    ExpectSameMapping(matcher, reference, options, surface);
    ExpectSameMapping(matcher, reference, options, surface + "s");
  }
}

TEST(EditParity, CandidatesMatchTheReferenceOnEdgeCases) {
  ConceptDag tiny_dag = BuildTinyVocabulary();
  NameIndex tiny(&tiny_dag);
  ReferenceEdit tiny_reference(&tiny);
  const GeneratedWorld& world = ParityWorld();
  NameIndex big(&world.eks.dag);
  ReferenceEdit big_reference(&big);

  const std::vector<std::string> terms = {
      "",       "a",       "ab",      "abc",          "aaa",
      "aaaaaa", "aaaa",    "aaab a",  "fever",        "zzzq",
      "qqqqqq", "throat",  "thr",     "pain in throa", "e",
  };
  const std::vector<std::pair<const NameIndex*, const ReferenceEdit*>>
      indexes = {{&tiny, &tiny_reference}, {&big, &big_reference}};
  for (const auto& [index, reference] : indexes) {
    for (const std::string& term : terms) {
      for (size_t max : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                         size_t{256}, size_t{1} << 20}) {
        EXPECT_EQ(index->CandidatesByTrigram(term, max),
                  reference->Candidates(term, max))
            << "term '" << term << "' max " << max;
      }
    }
  }

  // Repeated query grams count once per occurrence: "aaaaaa" holds "aaa"
  // four times, so the entry "aaaaaa" (4 x 4 = 16 shared) outranks
  // "aaaa" (4 x 2) and "aaa" (4 x 1).
  std::vector<size_t> repeated = tiny.CandidatesByTrigram("aaaaaa", 3);
  ASSERT_EQ(repeated.size(), 3u);
  EXPECT_EQ(tiny.entries()[repeated[0]].surface, "aaaaaa");
  EXPECT_EQ(tiny.entries()[repeated[1]].surface, "aaaa");

  // A term sharing no trigram with any entry has no candidates.
  EXPECT_TRUE(big.CandidatesByTrigram("zzzq", 256).empty());
  EXPECT_TRUE(big_reference.Candidates("zzzq", 256).empty());
  EXPECT_TRUE(tiny.CandidatesByTrigram("", 256).empty());

  // A cut inside a tie group: the kept prefix must be the lowest entry
  // indexes of the tied count. Find such cuts in the full ranking of
  // word prefixes from the vocabulary, then compare at exactly that width.
  size_t cuts_checked = 0;
  for (size_t e = 0; e < big.entries().size() && cuts_checked < 20;
       e += 53) {
    const std::string term = big.entries()[e].surface.substr(0, 6);
    std::vector<std::pair<size_t, size_t>> ranked = big_reference.Ranked(term);
    for (size_t cut = 1; cut < ranked.size(); ++cut) {
      if (ranked[cut - 1].second != ranked[cut].second) continue;
      EXPECT_EQ(big.CandidatesByTrigram(term, cut),
                big_reference.Candidates(term, cut))
          << "term '" << term << "' cut " << cut;
      ++cuts_checked;
      break;
    }
  }
  EXPECT_EQ(cuts_checked, 20u);
}

TEST(EditParity, ConcurrentFirstLookupsAgree) {
  const GeneratedWorld& world = ParityWorld();
  // A fresh index: the four threads race the lazy trigram build as well
  // as the per-call counting state.
  NameIndex index(&world.eks.dag);
  std::vector<std::string> terms;
  for (size_t e = 0; e < index.entries().size(); e += 97) {
    std::string term = index.entries()[e].surface;
    term[term.size() / 2] = 'q';
    terms.push_back(std::move(term));
  }
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::vector<size_t>>> results(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&index, &terms, &results, t] {
      for (const std::string& term : terms) {
        results[t].push_back(index.CandidatesByTrigram(term, 256));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ReferenceEdit reference(&index);
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(results[0][i], reference.Candidates(terms[i], 256))
        << terms[i];
    for (size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(results[t][i], results[0][i]) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace medrelax
