// Round-trip property tests for the varint/delta adjacency codec and
// fail-closed tests for the section-table reader: random CSR graphs
// survive encode->decode bit-exactly, and every corruption mode —
// truncation at each section boundary, bad magic/version, checksum
// flips, offsets past EOF — yields a typed InvalidArgument, never a
// crash or out-of-bounds read (the suite runs under ASan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rank/weight_model.h"
#include "snapshot/byte_io.h"
#include "snapshot/checksum.h"  // Fnv1a64 for re-sealing forged headers
#include "snapshot/codec.h"
#include "snapshot/format.h"
#include "snapshot/serving_state.h"
#include "snapshot/snapshot_reader.h"

#include "snapshot_test_util.h"

namespace rpg::snapshot {
namespace {

using graph::PaperId;

// ------------------------------------------------------------- varints

TEST(VarintTest, RoundTripBoundaries) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             129,
                             16383,
                             16384,
                             (1ull << 21) - 1,
                             1ull << 21,
                             (1ull << 35) + 7,
                             (1ull << 56) - 1,
                             UINT64_MAX - 1,
                             UINT64_MAX};
  for (uint64_t v : values) {
    std::vector<uint8_t> buf;
    ByteWriter w(&buf);
    w.PutVarint(v);
    ByteReader r(buf);
    uint64_t out = 0;
    ASSERT_TRUE(r.GetVarint(&out)) << v;
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(VarintTest, RejectsTruncation) {
  std::vector<uint8_t> buf;
  ByteWriter w(&buf);
  w.PutVarint(UINT64_MAX);
  for (size_t len = 0; len < buf.size(); ++len) {
    ByteReader r(std::span<const uint8_t>(buf.data(), len));
    uint64_t out = 0;
    EXPECT_FALSE(r.GetVarint(&out)) << len;
  }
}

TEST(VarintTest, RejectsOverlongAndOverflow) {
  // 11 continuation bytes: unterminated within the 10-byte budget.
  std::vector<uint8_t> overlong(11, 0x80);
  ByteReader r1(overlong);
  uint64_t out = 0;
  EXPECT_FALSE(r1.GetVarint(&out));
  // Ten bytes whose tenth contributes more than the top bit (2^64+).
  std::vector<uint8_t> overflow(10, 0x80);
  overflow[9] = 0x02;
  ByteReader r2(overflow);
  EXPECT_FALSE(r2.GetVarint(&out));
}

// ----------------------------------------------------- adjacency codec

struct RandomCsr {
  std::vector<uint64_t> offsets;
  std::vector<PaperId> targets;
};

RandomCsr MakeRandomCsr(Rng* rng, size_t max_nodes) {
  RandomCsr csr;
  const size_t n = 1 + rng->NextBounded(max_nodes);
  csr.offsets.push_back(0);
  std::vector<PaperId> span;
  for (size_t u = 0; u < n; ++u) {
    span.clear();
    const size_t degree = rng->NextBounded(8);
    for (size_t k = 0; k < degree; ++k) {
      span.push_back(static_cast<PaperId>(rng->NextBounded(n)));
    }
    std::sort(span.begin(), span.end());
    span.erase(std::unique(span.begin(), span.end()), span.end());
    csr.targets.insert(csr.targets.end(), span.begin(), span.end());
    csr.offsets.push_back(csr.targets.size());
  }
  return csr;
}

TEST(AdjacencyCodecTest, RandomGraphsRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    RandomCsr csr = MakeRandomCsr(&rng, 300);
    std::vector<uint8_t> bytes;
    EncodeAdjacency(csr.offsets, csr.targets, &bytes);
    std::vector<uint64_t> offsets;
    std::vector<PaperId> targets;
    Status status = DecodeAdjacency(bytes, csr.offsets.size() - 1,
                                    csr.targets.size(), &offsets, &targets);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(offsets, csr.offsets);
    EXPECT_EQ(targets, csr.targets);
  }
}

TEST(AdjacencyCodecTest, TruncationAtEveryByteFailsClosed) {
  Rng rng(7);
  RandomCsr csr = MakeRandomCsr(&rng, 40);
  std::vector<uint8_t> bytes;
  EncodeAdjacency(csr.offsets, csr.targets, &bytes);
  const uint64_t n = csr.offsets.size() - 1;
  const uint64_t m = csr.targets.size();
  ASSERT_GT(bytes.size(), 0u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint64_t> offsets;
    std::vector<PaperId> targets;
    Status status = DecodeAdjacency(
        std::span<const uint8_t>(bytes.data(), len), n, m, &offsets, &targets);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << len;
  }
}

TEST(AdjacencyCodecTest, RejectsStructuralLies) {
  Rng rng(9);
  RandomCsr csr = MakeRandomCsr(&rng, 40);
  const uint64_t n = csr.offsets.size() - 1;
  const uint64_t m = csr.targets.size();
  std::vector<uint8_t> bytes;
  EncodeAdjacency(csr.offsets, csr.targets, &bytes);
  std::vector<uint64_t> offsets;
  std::vector<PaperId> targets;
  // Wrong edge totals (both directions).
  EXPECT_EQ(DecodeAdjacency(bytes, n, m + 1, &offsets, &targets).code(),
            StatusCode::kInvalidArgument);
  if (m > 0) {
    EXPECT_EQ(DecodeAdjacency(bytes, n, m - 1, &offsets, &targets).code(),
              StatusCode::kInvalidArgument);
  }
  // Wrong node count: decoded targets point past the claimed range.
  if (n > 1) {
    EXPECT_FALSE(DecodeAdjacency(bytes, 1, m, &offsets, &targets).ok());
  }
  // Trailing garbage after a valid stream.
  std::vector<uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(DecodeAdjacency(padded, n, m, &offsets, &targets).code(),
            StatusCode::kInvalidArgument);
  // A node count so large the section cannot possibly hold it.
  EXPECT_EQ(DecodeAdjacency(bytes, bytes.size() + 1, m, &offsets, &targets)
                .code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------- reader fail-closed

StatusCode OpenCode(std::vector<uint8_t> bytes) {
  auto reader_or = SnapshotReader::FromBuffer(std::move(bytes));
  return reader_or.ok() ? StatusCode::kOk : reader_or.status().code();
}

TEST(SnapshotReaderTest, ValidImageOpens) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  auto reader_or = SnapshotReader::FromBuffer(image);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  EXPECT_TRUE(reader_or.value()->VerifyAllChecksums().ok());
  EXPECT_GT(reader_or.value()->num_papers(), 0u);
}

TEST(SnapshotReaderTest, TruncationAtEverySectionBoundaryFailsClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));

  // All header prefixes, and one byte past the header.
  std::vector<size_t> cuts;
  for (size_t len = 0; len <= kHeaderSize + 1; ++len) cuts.push_back(len);
  // Every section boundary +/- 1, and the TOC boundary.
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), image.data() + header.toc_offset,
              header.toc_size);
  for (const SectionEntry& e : entries) {
    for (long d = -1; d <= 1; ++d) {
      cuts.push_back(static_cast<size_t>(e.offset + d));
      cuts.push_back(static_cast<size_t>(e.offset + e.size + d));
    }
  }
  cuts.push_back(header.toc_offset);
  cuts.push_back(header.toc_offset + 1);
  cuts.push_back(image.size() - 1);

  for (size_t cut : cuts) {
    if (cut >= image.size()) continue;
    std::vector<uint8_t> truncated(image.begin(), image.begin() + cut);
    EXPECT_EQ(OpenCode(std::move(truncated)), StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST(SnapshotReaderTest, BadMagicAndVersionFailClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  {
    auto bad = image;
    bad[0] ^= 0xff;
    EXPECT_EQ(OpenCode(std::move(bad)), StatusCode::kInvalidArgument);
  }
  {
    auto bad = image;
    const uint32_t version = kVersion + 1;
    std::memcpy(bad.data() + offsetof(SnapshotHeader, version), &version,
                sizeof(version));
    // Version is checked before the header checksum so future formats
    // get a clear "unsupported version", not "corrupt".
    auto status_or = SnapshotReader::FromBuffer(std::move(bad));
    ASSERT_FALSE(status_or.ok());
    EXPECT_EQ(status_or.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status_or.status().ToString().find("version"),
              std::string::npos);
  }
}

TEST(SnapshotReaderTest, HeaderAndTocChecksumFlipsFailClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  {
    // Flip a covered header byte (num_papers) without fixing the sum.
    auto bad = image;
    bad[offsetof(SnapshotHeader, num_papers)] ^= 0x01;
    EXPECT_EQ(OpenCode(std::move(bad)), StatusCode::kInvalidArgument);
  }
  {
    // Flip one TOC byte.
    SnapshotHeader header;
    std::memcpy(&header, image.data(), sizeof(header));
    auto bad = image;
    bad[header.toc_offset] ^= 0x01;
    EXPECT_EQ(OpenCode(std::move(bad)), StatusCode::kInvalidArgument);
  }
}

TEST(SnapshotReaderTest, SectionChecksumFlipFailsClosedUnlessDisabled) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), image.data() + header.toc_offset,
              header.toc_size);
  // Corrupt the first byte of the graph section.
  for (const SectionEntry& e : entries) {
    if (e.id != static_cast<uint32_t>(SectionId::kGraphOut)) continue;
    auto bad = image;
    bad[e.offset] ^= 0x01;
    EXPECT_EQ(OpenCode(bad), StatusCode::kInvalidArgument);
    // With checksums off the reader admits the bytes; the decoders must
    // still fail closed (ServingState validates structure).
    SnapshotReaderOptions lax;
    lax.verify_checksums = false;
    auto reader_or = SnapshotReader::FromBuffer(std::move(bad), lax);
    EXPECT_TRUE(reader_or.ok());
    return;
  }
  FAIL() << "graph section not found";
}

TEST(SnapshotReaderTest, EmbeddingsCorruptionCaughtOnlyByFullVerify) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), image.data() + header.toc_offset,
              header.toc_size);
  for (const SectionEntry& e : entries) {
    if (e.id != static_cast<uint32_t>(SectionId::kEmbeddings)) continue;
    ASSERT_GT(e.size, 0u);
    auto bad = image;
    bad[e.offset] ^= 0x01;
    // Lazy by design: open succeeds (embeddings are not hashed at load,
    // preserving page-in laziness) ...
    auto reader_or = SnapshotReader::FromBuffer(std::move(bad));
    ASSERT_TRUE(reader_or.ok());
    // ... but the explicit full verification catches it.
    Status status = reader_or.value()->VerifyAllChecksums();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    return;
  }
  FAIL() << "embeddings section not found";
}

TEST(SnapshotReaderTest, TocLiesFailClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));

  // Helper: rewrite header fields and re-seal the header checksum so the
  // lie survives step 1 and must be caught by the later checks.
  auto reseal = [&](SnapshotHeader h, std::vector<uint8_t> bytes) {
    h.header_checksum =
        Fnv1a64(&h, offsetof(SnapshotHeader, header_checksum));
    std::memcpy(bytes.data(), &h, sizeof(h));
    return bytes;
  };

  {
    auto h = header;
    h.toc_offset = image.size() + 8;  // past EOF
    EXPECT_EQ(OpenCode(reseal(h, image)), StatusCode::kInvalidArgument);
  }
  {
    auto h = header;
    h.section_count = kMaxSections + 1;
    EXPECT_EQ(OpenCode(reseal(h, image)), StatusCode::kInvalidArgument);
  }
  {
    auto h = header;
    h.toc_size += sizeof(SectionEntry);  // count/size disagree
    EXPECT_EQ(OpenCode(reseal(h, image)), StatusCode::kInvalidArgument);
  }
  {
    // Section offset past EOF: patch one TOC entry and re-seal the TOC
    // checksum (header stays valid).
    auto bad = image;
    std::vector<SectionEntry> entries(header.section_count);
    std::memcpy(entries.data(), bad.data() + header.toc_offset,
                header.toc_size);
    entries[0].offset = (image.size() + 8) & ~7ull;
    std::memcpy(bad.data() + header.toc_offset, entries.data(),
                header.toc_size);
    auto h = header;
    h.toc_checksum = Fnv1a64(bad.data() + h.toc_offset, h.toc_size);
    EXPECT_EQ(OpenCode(reseal(h, std::move(bad))),
              StatusCode::kInvalidArgument);
  }
  {
    // Misaligned section offset.
    auto bad = image;
    std::vector<SectionEntry> entries(header.section_count);
    std::memcpy(entries.data(), bad.data() + header.toc_offset,
                header.toc_size);
    entries[0].offset += 1;
    std::memcpy(bad.data() + header.toc_offset, entries.data(),
                header.toc_size);
    auto h = header;
    h.toc_checksum = Fnv1a64(bad.data() + h.toc_offset, h.toc_size);
    EXPECT_EQ(OpenCode(reseal(h, std::move(bad))),
              StatusCode::kInvalidArgument);
  }
  {
    // Duplicate section id.
    auto bad = image;
    std::vector<SectionEntry> entries(header.section_count);
    std::memcpy(entries.data(), bad.data() + header.toc_offset,
                header.toc_size);
    ASSERT_GE(entries.size(), 2u);
    entries[1].id = entries[0].id;
    std::memcpy(bad.data() + header.toc_offset, entries.data(),
                header.toc_size);
    auto h = header;
    h.toc_checksum = Fnv1a64(bad.data() + h.toc_offset, h.toc_size);
    EXPECT_EQ(OpenCode(reseal(h, std::move(bad))),
              StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------- con column section

/// A snapshot image with its TOC parsed, so a test can forge section
/// bytes or bounds and re-seal every checksum: the lie then passes the
/// reader's armor and must be caught by the loader's own validation.
struct ForgeableImage {
  explicit ForgeableImage(std::vector<uint8_t> image)
      : bytes(std::move(image)) {
    std::memcpy(&header, bytes.data(), sizeof(header));
    entries.resize(header.section_count);
    std::memcpy(entries.data(), bytes.data() + header.toc_offset,
                header.toc_size);
  }

  SectionEntry& Entry(SectionId id) {
    for (SectionEntry& e : entries) {
      if (e.id == static_cast<uint32_t>(id)) return e;
    }
    ADD_FAILURE() << "section " << static_cast<uint32_t>(id) << " missing";
    return entries.front();
  }

  /// Recomputes every section, TOC and header checksum.
  std::vector<uint8_t> Sealed() {
    for (SectionEntry& e : entries) {
      e.checksum = Fnv1a64(bytes.data() + e.offset, e.size);
    }
    std::memcpy(bytes.data() + header.toc_offset, entries.data(),
                header.toc_size);
    header.toc_checksum = Fnv1a64(bytes.data() + header.toc_offset,
                                  header.toc_size);
    header.header_checksum =
        Fnv1a64(&header, offsetof(SnapshotHeader, header_checksum));
    std::memcpy(bytes.data(), &header, sizeof(header));
    return bytes;
  }

  std::vector<uint8_t> bytes;
  SnapshotHeader header;
  std::vector<SectionEntry> entries;
};

/// Loads `bytes` with checksums verified; expects a typed
/// InvalidArgument whose message names `section`.
void ExpectRejectedNaming(std::vector<uint8_t> bytes, const char* section,
                          const char* what) {
  auto state_or = ServingState::LoadFromBuffer(std::move(bytes));
  ASSERT_FALSE(state_or.ok()) << what;
  EXPECT_EQ(state_or.status().code(), StatusCode::kInvalidArgument) << what;
  EXPECT_NE(state_or.status().ToString().find(section), std::string::npos)
      << what << ": " << state_or.status().ToString();
}

TEST(ConColumnSectionTest, WrongLengthFailsClosed) {
  for (int delta : {-1, +1}) {
    ForgeableImage image(TestSnapshotImage(/*relabel=*/false));
    SectionEntry& e = image.Entry(SectionId::kConColumn);
    ASSERT_GT(e.size, 0u);
    e.size += delta;  // +1 still ends inside the file (padding or TOC)
    ExpectRejectedNaming(image.Sealed(), "con_column",
                         delta < 0 ? "one byte short" : "one byte long");
  }
}

TEST(ConColumnSectionTest, OutOfRangeCountsFailClosed) {
  for (uint8_t bad : {uint8_t{0}, uint8_t{rank::kConCap + 1}}) {
    for (bool last : {false, true}) {
      ForgeableImage image(TestSnapshotImage(/*relabel=*/false));
      const SectionEntry& e = image.Entry(SectionId::kConColumn);
      image.bytes[e.offset + (last ? e.size - 1 : 0)] = bad;
      ExpectRejectedNaming(image.Sealed(), "con_column",
                           bad == 0 ? "count 0" : "count 8");
    }
  }
}

TEST(ConColumnSectionTest, FlippedByteFailsClosed) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  ForgeableImage parsed(image);
  const SectionEntry& e = parsed.Entry(SectionId::kConColumn);
  image[e.offset + e.size / 2] ^= 0x01;  // not re-sealed
  ExpectRejectedNaming(std::move(image), "con_column", "flipped byte");
}

/// The loader validates the stored column and serves it as stored,
/// straight out of the snapshot bytes: a count that is in range but
/// differs from what the graph implies is taken as given, which is
/// what shows load never recomputes the column.
TEST(ConColumnSectionTest, LoadServesStoredColumnWithoutRecomputing) {
  ForgeableImage image(TestSnapshotImage(/*relabel=*/false));
  const SectionEntry& e = image.Entry(SectionId::kConColumn);
  const uint8_t stored = image.bytes[e.offset];
  const uint8_t forged = static_cast<uint8_t>(stored % rank::kConCap + 1);
  image.bytes[e.offset] = forged;
  auto state_or = ServingState::LoadFromBuffer(image.Sealed());
  ASSERT_TRUE(state_or.ok()) << state_or.status().ToString();
  const ServingState& state = *state_or.value();
  EXPECT_EQ(state.weights().con_column()[0], forged);
  auto section = state.reader().Section(SectionId::kConColumn).value();
  EXPECT_EQ(state.weights().con_column().data(), section.data());
}

TEST(ConColumnSectionTest, VersionOneFileReportsUnsupportedVersion) {
  ForgeableImage image(TestSnapshotImage(/*relabel=*/false));
  image.header.version = 1;
  auto reader_or = SnapshotReader::FromBuffer(image.Sealed());
  ASSERT_FALSE(reader_or.ok());
  EXPECT_EQ(reader_or.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader_or.status().ToString().find("unsupported version 1"),
            std::string::npos)
      << reader_or.status().ToString();
}

TEST(ConColumnSectionTest, MissingSectionFailsClosed) {
  ForgeableImage image(TestSnapshotImage(/*relabel=*/false));
  // Renumber the section to an id readers skip: the required-section
  // check must notice it is gone.
  image.Entry(SectionId::kConColumn).id = 63;
  ExpectRejectedNaming(image.Sealed(), "con_column", "missing section");
}

/// ServingState over a checksum-disabled reader must still reject
/// structurally corrupt sections (the fuzz harness drives this path).
TEST(SnapshotReaderTest, ServingStateFailsClosedOnCorruptSections) {
  auto image = TestSnapshotImage(/*relabel=*/false);
  SnapshotHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), image.data() + header.toc_offset,
              header.toc_size);
  SnapshotReaderOptions lax;
  lax.verify_checksums = false;
  Rng rng(123);
  int rejected = 0, accepted = 0;
  for (const SectionEntry& e : entries) {
    if (e.size == 0) continue;
    auto bad = image;
    bad[e.offset + rng.NextBounded(e.size)] ^= 0x40;
    auto state_or = ServingState::LoadFromBuffer(std::move(bad), lax);
    // Either the corruption was structural (rejected with a typed error)
    // or it landed in payload values (loads fine) — never a crash/OOB.
    if (state_or.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(state_or.status().code(), StatusCode::kInvalidArgument);
      ++rejected;
    }
  }
  EXPECT_GT(rejected + accepted, 0);
}

}  // namespace
}  // namespace rpg::snapshot
