#include "snapshot/snapshot_writer.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <numeric>
#include <utility>

#include "common/string_util.h"
#include "graph/graph_io.h"
#include "search/inverted_index.h"
#include "snapshot/byte_io.h"
#include "snapshot/checksum.h"
#include "snapshot/codec.h"
#include "snapshot/format.h"

namespace rpg::snapshot {

namespace {

using graph::PaperId;

/// Streams sections to the file with 8-byte alignment, accumulating TOC
/// entries; Finish() appends the TOC and back-patches the header.
class SnapshotFile {
 public:
  explicit SnapshotFile(const std::string& path)
      : os_(path, std::ios::binary | std::ios::trunc) {
    // Reserve the header slot; Finish() rewrites it with real contents.
    const char zeros[kHeaderSize] = {};
    os_.write(zeros, sizeof(zeros));
    pos_ = kHeaderSize;
  }

  bool ok() const { return static_cast<bool>(os_); }

  void AddSection(SectionId id, const void* data, size_t size) {
    PadTo8();
    SectionEntry entry;
    entry.id = static_cast<uint32_t>(id);
    entry.offset = pos_;
    entry.size = size;
    entry.checksum = Fnv1a64(data, size);
    toc_.push_back(entry);
    os_.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    pos_ += size;
  }

  void AddSection(SectionId id, const std::vector<uint8_t>& bytes) {
    AddSection(id, bytes.data(), bytes.size());
  }

  Status Finish(uint64_t num_papers, uint64_t num_edges, uint32_t flags,
                uint64_t corpus_seed) {
    PadTo8();
    SnapshotHeader header;
    header.flags = flags;
    header.num_papers = num_papers;
    header.num_edges = num_edges;
    header.corpus_seed = corpus_seed;
    header.section_count = static_cast<uint32_t>(toc_.size());
    header.toc_offset = pos_;
    header.toc_size = toc_.size() * sizeof(SectionEntry);
    os_.write(reinterpret_cast<const char*>(toc_.data()),
              static_cast<std::streamsize>(header.toc_size));
    header.toc_checksum = Fnv1a64(toc_.data(), header.toc_size);
    header.header_checksum =
        Fnv1a64(&header, offsetof(SnapshotHeader, header_checksum));
    os_.seekp(0);
    os_.write(reinterpret_cast<const char*>(&header), sizeof(header));
    os_.flush();
    if (!os_) return Status::IoError("snapshot: short write");
    return Status::OK();
  }

 private:
  void PadTo8() {
    static const char zeros[8] = {};
    if (pos_ % 8 != 0) {
      const size_t pad = 8 - pos_ % 8;
      os_.write(zeros, static_cast<std::streamsize>(pad));
      pos_ += pad;
    }
  }

  std::ofstream os_;
  uint64_t pos_ = 0;
  std::vector<SectionEntry> toc_;
};

/// new-id order applied to one per-paper array (new[i] = old[perm[i]]).
template <typename T>
std::vector<T> Permute(const std::vector<T>& v,
                       const std::vector<PaperId>& perm) {
  std::vector<T> out;
  out.reserve(v.size());
  for (PaperId old_id : perm) out.push_back(v[old_id]);
  return out;
}

std::vector<uint8_t> EncodeTitles(const std::vector<std::string>& titles,
                                  const std::vector<PaperId>& perm) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.Put<uint64_t>(titles.size());
  uint64_t offset = 0;
  for (PaperId old_id : perm) {
    w.Put<uint64_t>(offset);
    offset += titles[old_id].size();
  }
  w.Put<uint64_t>(offset);  // end sentinel == blob size
  for (PaperId old_id : perm) {
    w.PutBytes(titles[old_id].data(), titles[old_id].size());
  }
  return buf;
}

std::vector<uint8_t> EncodeVocab(const text::Vocabulary& vocab) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.Put<uint64_t>(vocab.size());
  for (text::TermId id = 0; id < vocab.size(); ++id) {
    w.PutString(vocab.TermOf(id));
  }
  return buf;
}

std::vector<uint8_t> EncodePostings(
    const std::vector<std::vector<search::Posting>>& postings,
    const std::vector<PaperId>& inv, bool relabel) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  std::vector<search::Posting> scratch;
  for (const auto& plist : postings) {
    const std::vector<search::Posting>* list = &plist;
    if (relabel) {
      scratch.assign(plist.begin(), plist.end());
      for (auto& p : scratch) p.doc = inv[p.doc];
      std::sort(scratch.begin(), scratch.end(),
                [](const search::Posting& a, const search::Posting& b) {
                  return a.doc < b.doc;
                });
      list = &scratch;
    }
    w.PutVarint(list->size());
    uint32_t prev = 0;
    for (size_t i = 0; i < list->size(); ++i) {
      const search::Posting& p = (*list)[i];
      w.PutVarint(i == 0 ? p.doc : p.doc - prev);
      w.Put<float>(p.weighted_tf);
      prev = p.doc;
    }
  }
  return buf;
}

}  // namespace

std::vector<PaperId> BfsRelabelOrder(const graph::CitationGraph& g) {
  const size_t n = g.num_nodes();
  std::vector<PaperId> roots(n);
  std::iota(roots.begin(), roots.end(), 0);
  std::sort(roots.begin(), roots.end(), [&](PaperId a, PaperId b) {
    const size_t da = g.InDegree(a), db = g.InDegree(b);
    if (da != db) return da > db;
    return a < b;
  });
  std::vector<PaperId> order;
  order.reserve(n);
  std::vector<uint8_t> visited(n, 0);
  size_t head = 0;  // `order` doubles as the BFS queue
  for (PaperId root : roots) {
    if (visited[root]) continue;
    visited[root] = 1;
    order.push_back(root);
    while (head < order.size()) {
      const PaperId u = order[head++];
      for (PaperId v : g.OutNeighbors(u)) {
        if (!visited[v]) {
          visited[v] = 1;
          order.push_back(v);
        }
      }
      for (PaperId v : g.InNeighbors(u)) {
        if (!visited[v]) {
          visited[v] = 1;
          order.push_back(v);
        }
      }
    }
  }
  return order;
}

Status WriteSnapshot(const SnapshotInput& input, const std::string& path,
                     const SnapshotWriterOptions& options) {
  if (input.graph == nullptr || input.titles == nullptr ||
      input.years == nullptr || input.pagerank == nullptr ||
      input.venue_scores == nullptr || input.engine == nullptr ||
      input.matcher == nullptr) {
    return Status::InvalidArgument("snapshot: null input substrate");
  }
  const size_t n = input.graph->num_nodes();
  const search::InvertedIndex& index = input.engine->index();
  const size_t dim = static_cast<size_t>(input.matcher->embedder().dim());
  if (input.titles->size() != n || input.years->size() != n ||
      input.pagerank->size() != n || input.venue_scores->size() != n ||
      input.engine->num_documents() != n ||
      input.matcher->num_docs() != n ||
      index.doc_lengths().size() != n ||
      input.matcher->embeddings().size() != n * dim) {
    return Status::InvalidArgument(
        StrFormat("snapshot: substrate sizes disagree (graph has %zu "
                  "papers)",
                  n));
  }

  // perm[new] = old, inv[old] = new. Identity when not relabeling.
  std::vector<PaperId> perm;
  if (options.relabel) {
    perm = BfsRelabelOrder(*input.graph);
  } else {
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), 0);
  }
  std::vector<PaperId> inv(n);
  for (size_t i = 0; i < n; ++i) inv[perm[i]] = static_cast<PaperId>(i);

  SnapshotFile file(path);
  if (!file.ok()) return Status::IoError("snapshot: cannot open " + path);

  // Graph (out-direction only; the reader rebuilds the transpose) and
  // the Eq. (2) con column aligned with it. Con counts do not depend on
  // ids, so relabeling only moves each count along with its edge.
  {
    const graph::CitationGraph& g = *input.graph;
    std::vector<uint8_t> column = rank::BuildConColumn(g);
    std::vector<uint8_t> buf;
    if (options.relabel) {
      std::vector<uint64_t> offsets;
      std::vector<PaperId> targets;
      std::vector<uint8_t> permuted;
      offsets.reserve(n + 1);
      targets.reserve(g.num_edges());
      permuted.reserve(g.num_edges());
      offsets.push_back(0);
      std::vector<std::pair<PaperId, uint8_t>> row;
      for (size_t u = 0; u < n; ++u) {
        row.clear();
        uint64_t e = g.OutEdgeBegin(perm[u]);
        for (PaperId v : g.OutNeighbors(perm[u])) {
          row.emplace_back(inv[v], column[e++]);
        }
        std::sort(row.begin(), row.end());
        for (const auto& [v, con] : row) {
          targets.push_back(v);
          permuted.push_back(con);
        }
        offsets.push_back(targets.size());
      }
      EncodeAdjacency(offsets, targets, &buf);
      column = std::move(permuted);
    } else {
      EncodeAdjacency(graph::GraphIo::OutOffsets(g),
                      graph::GraphIo::OutTargets(g), &buf);
    }
    file.AddSection(SectionId::kGraphOut, buf);
    file.AddSection(SectionId::kConColumn, column);
  }

  file.AddSection(SectionId::kTitles, EncodeTitles(*input.titles, perm));
  {
    const std::vector<uint16_t> years = Permute(*input.years, perm);
    file.AddSection(SectionId::kYears, years.data(),
                    years.size() * sizeof(uint16_t));
    const std::vector<double> venue = Permute(*input.venue_scores, perm);
    file.AddSection(SectionId::kVenueScores, venue.data(),
                    venue.size() * sizeof(double));
    const std::vector<double> pagerank = Permute(*input.pagerank, perm);
    file.AddSection(SectionId::kPagerank, pagerank.data(),
                    pagerank.size() * sizeof(double));
  }

  // Inverted index + engine.
  file.AddSection(SectionId::kVocab, EncodeVocab(index.vocab()));
  file.AddSection(SectionId::kPostings,
                  EncodePostings(index.postings(), inv, options.relabel));
  {
    const std::vector<float> doc_lengths = Permute(index.doc_lengths(), perm);
    file.AddSection(SectionId::kDocLengths, doc_lengths.data(),
                    doc_lengths.size() * sizeof(float));
  }
  {
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    w.Put<double>(index.average_doc_length());
    w.Put<double>(index.options().title_weight);
    file.AddSection(SectionId::kIndexMeta, buf);
  }
  {
    const search::EngineProfile& profile = input.engine->profile();
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    w.Put<uint64_t>(input.engine->max_citations());
    w.Put<int32_t>(input.engine->min_year());
    w.Put<int32_t>(input.engine->max_year());
    w.Put<double>(profile.bm25.k1);
    w.Put<double>(profile.bm25.b);
    w.Put<double>(profile.citation_boost);
    w.Put<double>(profile.recency_boost);
    w.PutString(profile.name);
    file.AddSection(SectionId::kEngineMeta, buf);
  }

  // Embeddings: the dominant section, written raw so the reader can
  // serve it zero-copy out of the mapping.
  {
    const match::HashedEmbedderOptions& eo =
        input.matcher->embedder().options();
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    w.Put<uint32_t>(static_cast<uint32_t>(eo.dim));
    w.Put<uint32_t>(eo.use_bigrams ? 1 : 0);
    w.Put<double>(eo.title_weight);
    file.AddSection(SectionId::kEmbedMeta, buf);

    const std::span<const float> flat = input.matcher->embeddings();
    if (options.relabel) {
      std::vector<float> permuted(flat.size());
      for (size_t u = 0; u < n; ++u) {
        std::memcpy(permuted.data() + u * dim, flat.data() + perm[u] * dim,
                    dim * sizeof(float));
      }
      file.AddSection(SectionId::kEmbeddings, permuted.data(),
                      permuted.size() * sizeof(float));
    } else {
      file.AddSection(SectionId::kEmbeddings, flat.data(),
                      flat.size() * sizeof(float));
    }
  }

  {
    const double params[5] = {input.params.alpha, input.params.beta,
                              input.params.gamma, input.params.a,
                              input.params.b};
    file.AddSection(SectionId::kParams, params, sizeof(params));
  }
  if (options.relabel) {
    file.AddSection(SectionId::kIdMap, perm.data(),
                    perm.size() * sizeof(PaperId));
  }

  return file.Finish(n, input.graph->num_edges(),
                     options.relabel ? kFlagRelabeled : 0, input.corpus_seed);
}

}  // namespace rpg::snapshot
