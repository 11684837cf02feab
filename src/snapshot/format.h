#ifndef RPG_SNAPSHOT_FORMAT_H_
#define RPG_SNAPSHOT_FORMAT_H_

/// \file
/// On-disk layout of the serving snapshot (docs/snapshot.md has the
/// diagram). One file holds the complete immutable serving state:
///
///   [header 80 B][section]...[section][TOC]
///
/// The fixed-size little-endian header names a section table (TOC) at
/// the end of the file; each 32-byte TOC entry carries a section id, its
/// absolute offset (8-byte aligned), size, and FNV-1a checksum. Readers
/// validate header magic/version/checksum, then the TOC checksum and
/// every entry's bounds, before touching any section — a truncated or
/// bit-flipped file fails closed with a typed InvalidArgument.
///
/// Versioning rules: readers accept exactly kVersion. Any layout change
/// (new required section, changed encoding) bumps kVersion; adding an
/// OPTIONAL section id does not, because unknown ids are ignored by
/// readers (forward-compatible for additive features).

#include <cstdint>

namespace rpg::snapshot {

/// "RPGSNAP1" as little-endian u64.
inline constexpr uint64_t kMagic = 0x3150414E53475052ULL;
inline constexpr uint32_t kVersion = 2;

/// Header flag bits.
inline constexpr uint32_t kFlagRelabeled = 1u << 0;

/// Fixed 80-byte file header. `header_checksum` covers the first 72
/// bytes (everything before itself).
struct SnapshotHeader {
  uint64_t magic = kMagic;
  uint32_t version = kVersion;
  uint32_t flags = 0;
  uint64_t num_papers = 0;
  uint64_t num_edges = 0;
  /// Provenance only: the corpus generator seed (0 when unknown).
  uint64_t corpus_seed = 0;
  uint32_t section_count = 0;
  uint32_t pad0 = 0;
  uint64_t toc_offset = 0;
  uint64_t toc_size = 0;
  uint64_t toc_checksum = 0;
  uint64_t header_checksum = 0;
};
static_assert(sizeof(SnapshotHeader) == 80);
inline constexpr uint64_t kHeaderSize = sizeof(SnapshotHeader);

/// Section identifiers. Required sections must all be present; optional
/// ones depend on header flags. Unknown ids are skipped by readers.
enum class SectionId : uint32_t {
  /// Varint/delta-encoded out-adjacency (codec.h). In-edges are the
  /// exact transpose, rebuilt at load via a counting sort — storing one
  /// direction halves the graph bytes and makes inconsistency
  /// impossible by construction.
  kGraphOut = 1,
  /// u64 count, (count+1) u64 blob offsets, then the UTF-8 title blob.
  kTitles = 2,
  kYears = 3,        ///< u16[n] publication years
  kVenueScores = 4,  ///< f64[n] venue scores in [0, 1]
  kPagerank = 5,     ///< f64[n] max-normalized global PageRank
  kVocab = 6,        ///< u64 count, then per term varint len + bytes
  /// Per term: varint posting count, then doc-id delta varints (first
  /// absolute) each followed by a raw f32 weighted term frequency.
  kPostings = 7,
  kDocLengths = 8,   ///< f32[n] weighted document lengths
  kIndexMeta = 9,    ///< f64 avg_doc_length, f64 title_weight
  /// Engine scalars: u64 max_citations, i32 min/max year, f64 bm25 k1,
  /// f64 bm25 b, f64 citation_boost, f64 recency_boost, varint-string
  /// profile name. Per-doc years come from kYears; per-doc citation
  /// counts are the graph's in-degrees.
  kEngineMeta = 10,
  /// u32 dim, u32 use_bigrams, f64 title_weight (embedder options).
  kEmbedMeta = 11,
  /// Raw f32[n * dim] row-major document embeddings. 8-byte aligned and
  /// served zero-copy straight out of the mapping (lazy page-in); its
  /// checksum is verified only by VerifyAllChecksums(), not at load.
  kEmbeddings = 12,
  kParams = 13,      ///< f64[5] NEWST {alpha, beta, gamma, a, b}
  /// u32[n] new-id -> original-id map; present iff kFlagRelabeled.
  kIdMap = 14,
  /// u8[num_edges] Eq. (2) con counts aligned with the stored out-CSR
  /// (rank::BuildConColumn), each in [1, rank::kConCap]. Added in
  /// version 2. Loading validates it and never recomputes it.
  kConColumn = 15,
};

/// One TOC entry. `offset` is absolute from file start, 8-byte aligned;
/// `checksum` is FNV-1a over the section's `size` bytes.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t pad0 = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};
static_assert(sizeof(SectionEntry) == 32);

/// Defensive cap: no valid snapshot has more sections than ids exist
/// (with margin for future optional ids).
inline constexpr uint32_t kMaxSections = 64;

}  // namespace rpg::snapshot

#endif  // RPG_SNAPSHOT_FORMAT_H_
