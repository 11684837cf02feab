#include "snapshot/serving_state.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/string_util.h"
#include "graph/graph_io.h"
#include "snapshot/byte_io.h"
#include "snapshot/codec.h"

namespace rpg::snapshot {

namespace {

using graph::PaperId;

Status Malformed(const char* what) {
  return Status::InvalidArgument(
      StrFormat("snapshot: malformed %s section", what));
}

/// A fixed-width per-paper array section must be exactly n elements.
template <typename T>
Result<std::vector<T>> DecodeArray(std::span<const uint8_t> bytes, size_t n,
                                   const char* what) {
  if (bytes.size() != n * sizeof(T)) return Malformed(what);
  std::vector<T> out(n);
  std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

Result<std::vector<std::string>> DecodeTitles(std::span<const uint8_t> bytes,
                                              size_t n) {
  ByteReader r(bytes);
  uint64_t count = 0;
  if (!r.Get(&count) || count != n) return Malformed("titles");
  if ((count + 1) * sizeof(uint64_t) > r.remaining()) {
    return Malformed("titles");
  }
  std::vector<uint64_t> offsets(count + 1);
  if (!r.GetBytes(offsets.data(), offsets.size() * sizeof(uint64_t))) {
    return Malformed("titles");
  }
  const size_t blob_size = r.remaining();
  if (offsets.front() != 0 || offsets.back() != blob_size) {
    return Malformed("titles");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) return Malformed("titles");
  }
  std::vector<std::string> titles;
  titles.reserve(n);
  const char* blob =
      reinterpret_cast<const char*>(bytes.data() + (bytes.size() - blob_size));
  for (size_t i = 0; i < n; ++i) {
    titles.emplace_back(blob + offsets[i], offsets[i + 1] - offsets[i]);
  }
  return titles;
}

Result<text::Vocabulary> DecodeVocab(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  uint64_t count = 0;
  // Each term costs at least one length byte, so a claimed count larger
  // than the section itself is a lie — reject before reserving.
  if (!r.Get(&count) || count > r.remaining()) return Malformed("vocab");
  std::vector<std::string> terms;
  terms.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string term;
    if (!r.GetString(&term)) return Malformed("vocab");
    terms.push_back(std::move(term));
  }
  if (!r.AtEnd()) return Malformed("vocab");
  return text::Vocabulary::FromTerms(std::move(terms));
}

Result<std::vector<std::vector<search::Posting>>> DecodePostings(
    std::span<const uint8_t> bytes, size_t num_terms, size_t num_docs) {
  ByteReader r(bytes);
  std::vector<std::vector<search::Posting>> postings(num_terms);
  for (size_t t = 0; t < num_terms; ++t) {
    uint64_t count = 0;
    if (!r.GetVarint(&count)) return Malformed("postings");
    // A posting is at least one delta byte plus a 4-byte tf.
    if (count > r.remaining() / 5) return Malformed("postings");
    auto& list = postings[t];
    list.reserve(static_cast<size_t>(count));
    uint64_t doc = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t delta = 0;
      float tf = 0.0f;
      if (!r.GetVarint(&delta) || !r.Get(&tf)) return Malformed("postings");
      doc = (i == 0) ? delta : doc + delta;
      if (doc >= num_docs) return Malformed("postings");
      list.push_back({static_cast<search::DocId>(doc), tf});
    }
  }
  if (!r.AtEnd()) return Malformed("postings");
  return postings;
}

}  // namespace

Result<std::unique_ptr<ServingState>> ServingState::Load(
    const std::string& path, const SnapshotReaderOptions& options) {
  auto state = std::unique_ptr<ServingState>(new ServingState());
  RPG_ASSIGN_OR_RETURN(state->reader_, SnapshotReader::Open(path, options));
  RPG_RETURN_NOT_OK(state->Build());
  return state;
}

Result<std::unique_ptr<ServingState>> ServingState::LoadFromBuffer(
    std::vector<uint8_t> bytes, const SnapshotReaderOptions& options) {
  auto state = std::unique_ptr<ServingState>(new ServingState());
  RPG_ASSIGN_OR_RETURN(state->reader_,
                       SnapshotReader::FromBuffer(std::move(bytes), options));
  RPG_RETURN_NOT_OK(state->Build());
  return state;
}

Status ServingState::Build() {
  const SnapshotReader& reader = *reader_;
  const uint64_t num_papers = reader.num_papers();
  if (num_papers > std::numeric_limits<PaperId>::max()) {
    return Status::InvalidArgument("snapshot: paper count exceeds PaperId");
  }
  const size_t n = static_cast<size_t>(num_papers);

  // Graph: decode out-adjacency, rebuild in-adjacency as the transpose.
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kGraphOut));
    std::vector<uint64_t> offsets;
    std::vector<PaperId> targets;
    RPG_RETURN_NOT_OK(DecodeAdjacency(bytes, num_papers, reader.num_edges(),
                                      &offsets, &targets));
    RPG_ASSIGN_OR_RETURN(
        graph_, graph::GraphIo::FromOutCsr(std::move(offsets),
                                           std::move(targets)));
  }

  // The Eq. (2) con column is served straight out of the mapping. It
  // is validated (one byte per stored edge, each a possible count) and
  // never recomputed: recomputing would cost a full pass of set
  // intersections on every load.
  {
    RPG_ASSIGN_OR_RETURN(con_column_, reader.Section(SectionId::kConColumn));
    if (con_column_.size() != graph_.num_edges() ||
        std::any_of(con_column_.begin(), con_column_.end(), [](uint8_t c) {
          return c < 1 || c > rank::kConCap;
        })) {
      return Malformed("con_column");
    }
  }

  // Per-paper arrays.
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kTitles));
    RPG_ASSIGN_OR_RETURN(titles_, DecodeTitles(bytes, n));
  }
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kYears));
    RPG_ASSIGN_OR_RETURN(years_, DecodeArray<uint16_t>(bytes, n, "years"));
  }
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kVenueScores));
    RPG_ASSIGN_OR_RETURN(venue_scores_,
                         DecodeArray<double>(bytes, n, "venue_scores"));
  }
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kPagerank));
    RPG_ASSIGN_OR_RETURN(pagerank_, DecodeArray<double>(bytes, n, "pagerank"));
  }

  // Inverted index + engine.
  text::Vocabulary vocab;
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kVocab));
    RPG_ASSIGN_OR_RETURN(vocab, DecodeVocab(bytes));
  }
  std::vector<std::vector<search::Posting>> postings;
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kPostings));
    RPG_ASSIGN_OR_RETURN(postings, DecodePostings(bytes, vocab.size(), n));
  }
  std::vector<float> doc_lengths;
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kDocLengths));
    RPG_ASSIGN_OR_RETURN(doc_lengths,
                         DecodeArray<float>(bytes, n, "doc_lengths"));
  }
  search::InvertedIndexOptions index_options;
  double avg_doc_length = 0.0;
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kIndexMeta));
    ByteReader r(bytes);
    if (!r.Get(&avg_doc_length) || !r.Get(&index_options.title_weight) ||
        !r.AtEnd()) {
      return Malformed("index_meta");
    }
  }
  search::EngineProfile profile;
  uint64_t max_citations = 0;
  int32_t min_year = 0, max_year = 0;
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kEngineMeta));
    ByteReader r(bytes);
    if (!r.Get(&max_citations) || !r.Get(&min_year) || !r.Get(&max_year) ||
        !r.Get(&profile.bm25.k1) || !r.Get(&profile.bm25.b) ||
        !r.Get(&profile.citation_boost) || !r.Get(&profile.recency_boost) ||
        !r.GetString(&profile.name) || !r.AtEnd()) {
      return Malformed("engine_meta");
    }
  }

  // Embeddings: options + the zero-copy matrix view.
  match::HashedEmbedderOptions embed_options;
  std::span<const float> embeddings;
  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kEmbedMeta));
    ByteReader r(bytes);
    uint32_t dim = 0, use_bigrams = 0;
    if (!r.Get(&dim) || !r.Get(&use_bigrams) ||
        !r.Get(&embed_options.title_weight) || !r.AtEnd()) {
      return Malformed("embed_meta");
    }
    if (dim == 0 || dim > (1u << 20)) return Malformed("embed_meta");
    embed_options.dim = static_cast<int>(dim);
    embed_options.use_bigrams = use_bigrams != 0;
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> matrix,
                         reader.Section(SectionId::kEmbeddings));
    if (matrix.size() != n * static_cast<size_t>(dim) * sizeof(float)) {
      return Malformed("embeddings");
    }
    embeddings = {reinterpret_cast<const float*>(matrix.data()),
                  matrix.size() / sizeof(float)};
  }

  {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kParams));
    ByteReader r(bytes);
    if (!r.Get(&params_.alpha) || !r.Get(&params_.beta) ||
        !r.Get(&params_.gamma) || !r.Get(&params_.a) || !r.Get(&params_.b) ||
        !r.AtEnd()) {
      return Malformed("params");
    }
  }

  if (reader.relabeled()) {
    RPG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                         reader.Section(SectionId::kIdMap));
    RPG_ASSIGN_OR_RETURN(new_to_old_, DecodeArray<PaperId>(bytes, n, "id_map"));
    // Must be a permutation of [0, n): anything else silently corrupts
    // every mapped-back result.
    std::vector<uint8_t> seen(n, 0);
    for (PaperId old_id : new_to_old_) {
      if (old_id >= n || seen[old_id]) return Malformed("id_map");
      seen[old_id] = 1;
    }
  }

  // Wire the substrate together. Per-doc metadata the engine consults at
  // query time: year from kYears, citation count = in-degree (the
  // CitationGraph::CitationCount identity the build side also uses).
  std::vector<search::EngineDocument> docs(n);
  for (size_t i = 0; i < n; ++i) {
    docs[i].year = years_[i];
    docs[i].citations = graph_.InDegree(static_cast<PaperId>(i));
  }
  RPG_ASSIGN_OR_RETURN(
      search::InvertedIndex index,
      search::InvertedIndex::Restore(index_options, std::move(vocab),
                                     std::move(postings),
                                     std::move(doc_lengths), avg_doc_length));
  RPG_ASSIGN_OR_RETURN(
      engine_, search::SearchEngine::Restore(std::move(docs), profile,
                                             std::move(index), max_citations,
                                             min_year, max_year));
  matcher_ = match::SemanticMatcher::FromPrecomputed(embeddings, n,
                                                     embed_options);
  weights_ = std::make_unique<rank::WeightModel>(
      &graph_, pagerank_, venue_scores_, con_column_, params_);
  repager_ = std::make_unique<core::RePaGer>(&graph_, engine_.get(),
                                             weights_.get(), &years_);
  return Status::OK();
}

}  // namespace rpg::snapshot
