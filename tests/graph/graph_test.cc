#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/citation_graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"

namespace rpg::graph {
namespace {

std::vector<uint32_t> ToVector(std::span<const uint32_t> s) {
  return {s.begin(), s.end()};
}

CitationGraph BuildDiamond() {
  // 0 cites 1 and 2; 1 and 2 cite 3.
  GraphBuilder b(4);
  b.AddCitation(0, 1);
  b.AddCitation(0, 2);
  b.AddCitation(1, 3);
  b.AddCitation(2, 3);
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(GraphBuilderTest, BasicCounts) {
  CitationGraph g = BuildDiamond();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(3), 2u);
  EXPECT_EQ(g.CitationCount(3), 2u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(0), 0u);
}

TEST(GraphBuilderTest, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.AddCitation(0, 4);
  b.AddCitation(0, 2);
  b.AddCitation(0, 3);
  b.AddCitation(4, 0);
  b.AddCitation(2, 0);
  auto g = b.Build().value();
  auto out = g.OutNeighbors(0);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  auto in = g.InNeighbors(0);
  EXPECT_TRUE(std::is_sorted(in.begin(), in.end()));
}

TEST(GraphBuilderTest, DropsDuplicatesAndSelfLoops) {
  GraphBuilder b(3);
  b.AddCitation(0, 1);
  b.AddCitation(0, 1);
  b.AddCitation(1, 1);
  auto g = b.Build().value();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.OutDegree(1), 0u);
}

TEST(GraphBuilderTest, RejectsOutOfRangeIds) {
  GraphBuilder b(2);
  b.AddCitation(0, 5);
  EXPECT_TRUE(b.Build().status().IsInvalidArgument());
}

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(3);
  auto g = b.Build().value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.OutNeighbors(0).empty());
}

TEST(GraphTest, HasEdge) {
  CitationGraph g = BuildDiamond();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 3));
  EXPECT_FALSE(g.HasEdge(1, 0));  // direction matters
  EXPECT_FALSE(g.HasEdge(0, 3));
}

// ------------------------------------------------------------- traversal

TEST(TraversalTest, KHopOutLevels) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {0}, 2, Direction::kOut);
  ASSERT_EQ(r.levels.size(), 3u);
  EXPECT_EQ(r.levels[0], (std::vector<PaperId>{0}));
  EXPECT_EQ(r.levels[1], (std::vector<PaperId>{1, 2}));
  EXPECT_EQ(r.levels[2], (std::vector<PaperId>{3}));
  EXPECT_EQ(r.TotalCount(), 4u);
  EXPECT_EQ(r.AllNodes().size(), 4u);
}

TEST(TraversalTest, KHopInDirection) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {3}, 2, Direction::kIn);
  EXPECT_EQ(r.levels[1], (std::vector<PaperId>{1, 2}));
  EXPECT_EQ(r.levels[2], (std::vector<PaperId>{0}));
}

TEST(TraversalTest, KHopDeduplicatesSeeds) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {0, 0, 0}, 1, Direction::kOut);
  EXPECT_EQ(r.levels[0].size(), 1u);
}

TEST(TraversalTest, KHopSkipsInvalidSeeds) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {99}, 1, Direction::kOut);
  EXPECT_TRUE(r.levels[0].empty());
}

TEST(TraversalTest, KHopZeroHops) {
  CitationGraph g = BuildDiamond();
  KHopResult r = KHopNeighborhood(g, {0}, 0, Direction::kOut);
  EXPECT_EQ(r.levels.size(), 1u);
}

TEST(TraversalTest, NodesVisitedOnceAcrossLevels) {
  // 0 -> 1 -> 2 and 0 -> 2: node 2 is reachable at hop 1 and 2 but must
  // appear only once (at hop 1).
  GraphBuilder b(3);
  b.AddCitation(0, 1);
  b.AddCitation(1, 2);
  b.AddCitation(0, 2);
  auto g = b.Build().value();
  KHopResult r = KHopNeighborhood(g, {0}, 2, Direction::kOut);
  EXPECT_EQ(r.levels[1], (std::vector<PaperId>{1, 2}));
  EXPECT_TRUE(r.levels[2].empty());
}

TEST(TraversalTest, KHopScratchReuseMatchesOneShot) {
  CitationGraph g = BuildDiamond();
  TraversalScratch scratch;
  KHopResult reused;
  // Successive traversals with one scratch/result pair — including a
  // wider run followed by a narrower one — must match fresh calls.
  struct Case {
    std::vector<PaperId> seeds;
    int hops;
    Direction dir;
  };
  std::vector<Case> cases = {{{0}, 2, Direction::kOut},
                             {{3}, 2, Direction::kIn},
                             {{0}, 0, Direction::kOut},
                             {{1, 2}, 1, Direction::kUndirected},
                             {{0}, 2, Direction::kOut}};
  for (const Case& c : cases) {
    KHopNeighborhood(g, c.seeds, c.hops, c.dir, &scratch, &reused);
    KHopResult fresh = KHopNeighborhood(g, c.seeds, c.hops, c.dir);
    EXPECT_EQ(reused.levels, fresh.levels);
  }
}

TEST(TraversalTest, ConnectedComponents) {
  GraphBuilder b(6);
  b.AddCitation(0, 1);
  b.AddCitation(2, 3);
  // 4 and 5 isolated.
  auto g = b.Build().value();
  size_t n = 0;
  auto comp = ConnectedComponents(g, &n);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[5]);
  EXPECT_EQ(LargestComponentSize(g), 2u);
}

TEST(TraversalTest, ComponentsIgnoreDirection) {
  GraphBuilder b(3);
  b.AddCitation(0, 1);
  b.AddCitation(2, 1);
  auto g = b.Build().value();
  EXPECT_EQ(LargestComponentSize(g), 3u);
}

// -------------------------------------------------------------- subgraph

TEST(SubgraphTest, InducedEdgesOnly) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {0, 1, 3});
  EXPECT_EQ(sg.num_nodes(), 3u);
  // Edges 0->1 and 1->3 survive; 0->2->3 is cut.
  EXPECT_EQ(sg.num_edges(), 2u);
  uint32_t l0 = sg.ToLocal(0), l1 = sg.ToLocal(1), l3 = sg.ToLocal(3);
  EXPECT_EQ(ToVector(sg.OutNeighbors(l0)), (std::vector<uint32_t>{l1}));
  EXPECT_EQ(ToVector(sg.InNeighbors(l3)), (std::vector<uint32_t>{l1}));
}

TEST(SubgraphTest, LocalGlobalRoundTrip) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {3, 1});
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    EXPECT_EQ(sg.ToLocal(sg.ToGlobal(local)), local);
  }
  // Locals assigned in first-appearance order.
  EXPECT_EQ(sg.ToGlobal(0), 3u);
  EXPECT_EQ(sg.ToGlobal(1), 1u);
}

TEST(SubgraphTest, ContainsAndMisses) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {0, 2});
  EXPECT_TRUE(sg.Contains(0));
  EXPECT_FALSE(sg.Contains(1));
  EXPECT_EQ(sg.ToLocal(1), UINT32_MAX);
}

TEST(SubgraphTest, DuplicatesAndInvalidIdsIgnored) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {0, 0, 99, 2});
  EXPECT_EQ(sg.num_nodes(), 2u);
}

TEST(SubgraphTest, UndirectedNeighborsMergesBothDirections) {
  CitationGraph g = BuildDiamond();
  Subgraph sg(g, {0, 1, 3});
  uint32_t l1 = sg.ToLocal(1);
  auto undirected = sg.UndirectedNeighbors(l1);
  EXPECT_EQ(undirected.size(), 2u);  // 0 (citer) and 3 (cited)
}

TEST(SubgraphTest, AssignWithSharedScratchMatchesFreshBuilds) {
  CitationGraph g = BuildDiamond();
  SubgraphScratch scratch;
  Subgraph reused;
  // Re-assigning the same object with one scratch must reproduce every
  // fresh single-shot build, including after shrinking node sets.
  std::vector<std::vector<PaperId>> node_sets = {
      {0, 1, 2, 3}, {0, 1, 3}, {3, 1}, {2}, {0, 1, 2, 3}};
  for (const auto& nodes : node_sets) {
    reused.Assign(g, nodes, &scratch);
    Subgraph fresh(g, nodes);
    ASSERT_EQ(reused.num_nodes(), fresh.num_nodes());
    ASSERT_EQ(reused.num_edges(), fresh.num_edges());
    for (uint32_t local = 0; local < fresh.num_nodes(); ++local) {
      EXPECT_EQ(reused.ToGlobal(local), fresh.ToGlobal(local));
      EXPECT_EQ(ToVector(reused.OutNeighbors(local)),
                ToVector(fresh.OutNeighbors(local)));
      EXPECT_EQ(ToVector(reused.InNeighbors(local)),
                ToVector(fresh.InNeighbors(local)));
    }
    for (PaperId p = 0; p < g.num_nodes(); ++p) {
      EXPECT_EQ(reused.ToLocal(p), fresh.ToLocal(p));
    }
  }
}

TEST(SubgraphTest, OutEdgePositionsPointAtTheGlobalEdge) {
  // Locals are assigned out of global order, so the per-span sort must
  // carry each edge's global out-CSR position along with its target.
  GraphBuilder b(40);
  uint64_t state = 7;
  for (int e = 0; e < 400; ++e) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto u = static_cast<PaperId>((state >> 33) % 40);
    const auto v = static_cast<PaperId>((state >> 13) % 40);
    if (u != v) b.AddCitation(u, v);
  }
  CitationGraph g = b.Build().value();
  const std::vector<PaperId>& targets = GraphIo::OutTargets(g);
  Subgraph sg(g, {31, 4, 17, 0, 22, 9, 38, 13, 26, 5, 35, 11});
  size_t seen = 0;
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    const PaperId gu = sg.ToGlobal(local);
    auto cited = sg.OutNeighbors(local);
    auto positions = sg.OutEdgePositions(local);
    ASSERT_EQ(cited.size(), positions.size());
    for (size_t k = 0; k < cited.size(); ++k) {
      EXPECT_GE(positions[k], g.OutEdgeBegin(gu));
      EXPECT_LT(positions[k], g.OutEdgeBegin(gu) + g.OutDegree(gu));
      EXPECT_EQ(targets[positions[k]], sg.ToGlobal(cited[k]));
      ++seen;
    }
  }
  EXPECT_EQ(seen, sg.num_edges());
  EXPECT_GT(seen, 10u);
}

TEST(SubgraphTest, DefaultConstructedIsEmpty) {
  Subgraph sg;
  EXPECT_EQ(sg.num_nodes(), 0u);
  EXPECT_EQ(sg.num_edges(), 0u);
  EXPECT_FALSE(sg.Contains(0));
}

// -------------------------------------------------------------- graph io

TEST(GraphIoTest, BinaryRoundTrip) {
  CitationGraph g = BuildDiamond();
  std::string path =
      (std::filesystem::temp_directory_path() / "rpg_graph_test.bin").string();
  ASSERT_TRUE(GraphIo::WriteBinary(g, path).ok());
  auto loaded = GraphIo::ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  for (PaperId p = 0; p < g.num_nodes(); ++p) {
    auto a = g.OutNeighbors(p);
    auto b = loaded->OutNeighbors(p);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, ReadMissingFileFails) {
  EXPECT_TRUE(GraphIo::ReadBinary("/nonexistent/graph.bin").status()
                  .IsIoError());
}

TEST(GraphIoTest, ReadCorruptHeaderFails) {
  std::string path =
      (std::filesystem::temp_directory_path() / "rpg_graph_bad.bin").string();
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a graph file at all";
  }
  EXPECT_TRUE(GraphIo::ReadBinary(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

// ------------------------------------------- adversarial input framing
// Regressions for the bugs the fuzz_graph_io harness found (the same
// inputs are checked in under fuzz/corpus/graph_io/): a length prefix
// claiming 2^60 elements used to be resize()d before any byte was read
// (multi-GB allocation from a 20-byte file), and CSR structure was
// never validated, so a lying offsets array meant out-of-bounds reads
// on first traversal.

/// Assembles a graph file image in the exact wire format:
/// magic u64 | version u32 | 4 x (count u64 + elements).
class WireImage {
 public:
  WireImage& Magic(uint64_t magic = 0x5250475f47524146ULL) {
    return Raw64(magic);
  }
  WireImage& Version(uint32_t version = 1) {
    bytes_.append(reinterpret_cast<const char*>(&version), sizeof(version));
    return *this;
  }
  WireImage& Vec64(const std::vector<uint64_t>& v) {
    Raw64(v.size());
    for (uint64_t x : v) Raw64(x);
    return *this;
  }
  WireImage& Vec32(const std::vector<uint32_t>& v) {
    Raw64(v.size());
    for (uint32_t x : v) {
      bytes_.append(reinterpret_cast<const char*>(&x), sizeof(x));
    }
    return *this;
  }
  WireImage& Raw64(uint64_t x) {
    bytes_.append(reinterpret_cast<const char*>(&x), sizeof(x));
    return *this;
  }
  Result<CitationGraph> Read() const {
    std::istringstream is(bytes_, std::ios::binary);
    return GraphIo::ReadBinaryFromStream(is, "test image");
  }
  WireImage& Truncate(size_t keep) {
    bytes_.resize(keep);
    return *this;
  }
  size_t size() const { return bytes_.size(); }

 private:
  std::string bytes_;
};

TEST(GraphIoTest, WellFormedImageAccepted) {
  // 0 -> 1, 1 -> 0 assembled by hand: the wire helper itself is sane.
  auto g = WireImage()
               .Magic()
               .Version()
               .Vec64({0, 1, 2})
               .Vec32({1, 0})
               .Vec64({0, 1, 2})
               .Vec32({1, 0})
               .Read();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 2u);
  EXPECT_EQ(ToVector(g->OutNeighbors(0)), std::vector<uint32_t>{1});
}

TEST(GraphIoTest, ResizeBombLengthPrefixRejectedCheaply) {
  // A 28-byte file claiming 2^60 out_offsets: must fail on the first
  // short read, not allocate.
  auto g = WireImage().Magic().Version().Raw64(uint64_t{1} << 60).Read();
  EXPECT_TRUE(g.status().IsInvalidArgument()) << g.status().ToString();
  // The overflow edge: a count whose byte size wraps uint64.
  auto wrap = WireImage().Magic().Version().Raw64(UINT64_MAX).Read();
  EXPECT_TRUE(wrap.status().IsInvalidArgument());
}

TEST(GraphIoTest, NonMonotonicOffsetsRejected) {
  auto g = WireImage()
               .Magic()
               .Version()
               .Vec64({0, 2, 1})  // walks backwards
               .Vec32({1, 0, 1})
               .Vec64({0, 1, 2})
               .Vec32({1, 0})
               .Read();
  ASSERT_TRUE(g.status().IsInvalidArgument());
  EXPECT_NE(g.status().ToString().find("monotonic"), std::string::npos);
}

TEST(GraphIoTest, OffsetsNotStartingAtZeroRejected) {
  auto g = WireImage()
               .Magic()
               .Version()
               .Vec64({1, 1, 2})
               .Vec32({1, 0})
               .Vec64({0, 1, 2})
               .Vec32({1, 0})
               .Read();
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphIoTest, TargetOutOfRangeRejected) {
  // Node 1 cites node 9 of a 2-node graph: traversal would read
  // out_offsets_[10] off the end.
  auto g = WireImage()
               .Magic()
               .Version()
               .Vec64({0, 1, 2})
               .Vec32({1, 9})
               .Vec64({0, 1, 2})
               .Vec32({1, 0})
               .Read();
  ASSERT_TRUE(g.status().IsInvalidArgument());
  EXPECT_NE(g.status().ToString().find("out of range"), std::string::npos);
}

TEST(GraphIoTest, OffsetsTargetsLengthMismatchRejected) {
  // offsets.back() says 3 edges, targets has 2.
  auto g = WireImage()
               .Magic()
               .Version()
               .Vec64({0, 1, 3})
               .Vec32({1, 0})
               .Vec64({0, 1, 2})
               .Vec32({1, 0})
               .Read();
  EXPECT_TRUE(g.status().IsInvalidArgument());
}

TEST(GraphIoTest, TruncatedImageRejectedAtEveryPrefix) {
  WireImage full;
  full.Magic().Version().Vec64({0, 1, 2}).Vec32({1, 0}).Vec64({0, 1, 2})
      .Vec32({1, 0});
  const size_t total = full.size();
  // Every proper prefix must fail cleanly (never crash, never accept).
  for (size_t keep = 0; keep < total; ++keep) {
    WireImage image;
    image.Magic().Version().Vec64({0, 1, 2}).Vec32({1, 0}).Vec64({0, 1, 2})
        .Vec32({1, 0});
    auto g = image.Truncate(keep).Read();
    EXPECT_TRUE(g.status().IsInvalidArgument()) << "prefix " << keep;
  }
}

TEST(GraphIoTest, UnsupportedVersionRejected) {
  auto g = WireImage()
               .Magic()
               .Version(9)
               .Vec64({0, 1, 2})
               .Vec32({1, 0})
               .Vec64({0, 1, 2})
               .Vec32({1, 0})
               .Read();
  ASSERT_TRUE(g.status().IsInvalidArgument());
  EXPECT_NE(g.status().ToString().find("version"), std::string::npos);
}

TEST(GraphIoTest, DotContainsInducedEdgesOnly) {
  CitationGraph g = BuildDiamond();
  std::string dot = GraphIo::ToDot(g, {0, 1});
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_EQ(dot.find("n1 -> n3"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(GraphIoTest, DotUsesLabelsWhenProvided) {
  CitationGraph g = BuildDiamond();
  std::string dot = GraphIo::ToDot(g, {0}, {"BERT paper"});
  EXPECT_NE(dot.find("BERT paper"), std::string::npos);
}

}  // namespace
}  // namespace rpg::graph
