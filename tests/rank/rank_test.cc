#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "graph/graph_builder.h"
#include "rank/pagerank.h"
#include "rank/weight_model.h"

namespace rpg::rank {
namespace {

graph::CitationGraph Star() {
  // Papers 1..4 all cite paper 0.
  graph::GraphBuilder b(5);
  for (graph::PaperId u = 1; u < 5; ++u) b.AddCitation(u, 0);
  return b.Build().value();
}

TEST(PageRankTest, ScoresSumToOne) {
  auto g = Star();
  auto pr = PageRank(g);
  double sum = std::accumulate(pr.begin(), pr.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(PageRankTest, HighlyCitedPaperDominates) {
  auto g = Star();
  auto pr = PageRank(g);
  for (graph::PaperId u = 1; u < 5; ++u) EXPECT_GT(pr[0], pr[u]);
}

TEST(PageRankTest, SymmetricNodesGetEqualScores) {
  auto g = Star();
  auto pr = PageRank(g);
  for (graph::PaperId u = 2; u < 5; ++u) EXPECT_NEAR(pr[1], pr[u], 1e-9);
}

TEST(PageRankTest, EmptyGraphNoScores) {
  graph::GraphBuilder b(0);
  auto g = b.Build().value();
  EXPECT_TRUE(PageRank(g).empty());
}

TEST(PageRankTest, NoEdgesIsUniform) {
  graph::GraphBuilder b(4);
  auto g = b.Build().value();
  auto pr = PageRank(g);
  for (double s : pr) EXPECT_NEAR(s, 0.25, 1e-9);
}

TEST(PageRankTest, CycleIsUniform) {
  graph::GraphBuilder b(3);
  b.AddCitation(0, 1);
  b.AddCitation(1, 2);
  b.AddCitation(2, 0);
  auto g = b.Build().value();
  auto pr = PageRank(g);
  EXPECT_NEAR(pr[0], 1.0 / 3.0, 1e-6);
  EXPECT_NEAR(pr[1], 1.0 / 3.0, 1e-6);
}

TEST(PageRankTest, ChainAccumulatesDownstream) {
  // 2 cites 1 cites 0: rank(0) > rank(1) > rank(2).
  graph::GraphBuilder b(3);
  b.AddCitation(2, 1);
  b.AddCitation(1, 0);
  auto g = b.Build().value();
  auto pr = PageRank(g);
  EXPECT_GT(pr[0], pr[1]);
  EXPECT_GT(pr[1], pr[2]);
}

TEST(PageRankTest, SubgraphVariantAgreesOnWholeGraph) {
  auto g = Star();
  std::vector<graph::PaperId> all = {0, 1, 2, 3, 4};
  graph::Subgraph sg(g, all);
  auto whole = PageRank(g);
  auto sub = PageRankOnSubgraph(sg);
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    EXPECT_NEAR(sub[local], whole[sg.ToGlobal(local)], 1e-9);
  }
}

TEST(NormalizeByMaxTest, TopBecomesOne) {
  auto norm = NormalizeByMax({0.1, 0.4, 0.2});
  EXPECT_DOUBLE_EQ(norm[1], 1.0);
  EXPECT_DOUBLE_EQ(norm[0], 0.25);
}

TEST(NormalizeByMaxTest, DegenerateInputs) {
  EXPECT_TRUE(NormalizeByMax({}).empty());
  auto zeros = NormalizeByMax({0.0, 0.0});
  EXPECT_DOUBLE_EQ(zeros[0], 0.0);
}

// ------------------------------------------------------------ WeightModel

class WeightModelFixture : public ::testing::Test {
 protected:
  WeightModelFixture()
      : graph_(BuildGraph()), column_(BuildConColumn(graph_)) {}

  static graph::CitationGraph BuildGraph() {
    // 0 and 1 both cite 2 and 3 (strong coupling); 4 isolated-ish.
    graph::GraphBuilder b(5);
    b.AddCitation(0, 2);
    b.AddCitation(0, 3);
    b.AddCitation(1, 2);
    b.AddCitation(1, 3);
    b.AddCitation(4, 0);
    return b.Build().value();
  }

  graph::CitationGraph graph_;
  std::vector<uint8_t> column_;
};

TEST_F(WeightModelFixture, NodeWeightFollowsEquation3) {
  std::vector<double> pr = {1.0, 0.5, 0.2, 0.2, 0.0};
  std::vector<double> venue = {1.0, 0.0, 0.5, 0.0, 0.0};
  NewstParams params;  // {3, 2, 5, 0.7, 0.3}
  WeightModel model(&graph_, pr, venue, column_, params);
  // w(0) = 5 / (0.7 * 1 + 0.3 * 1) = 5.
  EXPECT_NEAR(model.NodeWeight(0), 5.0, 1e-9);
  // w(1) = 5 / 0.35.
  EXPECT_NEAR(model.NodeWeight(1), 5.0 / 0.35, 1e-9);
  // Node 4 has zero signals -> floored denominator, finite weight.
  EXPECT_NEAR(model.NodeWeight(4), model.MaxNodeWeight(), 1e-9);
  EXPECT_LT(model.NodeWeight(4), 1e9);
}

TEST_F(WeightModelFixture, MoreImportantNodesAreCheaper) {
  std::vector<double> pr = {1.0, 0.1, 0.5, 0.5, 0.0};
  std::vector<double> venue(5, 0.0);
  WeightModel model(&graph_, pr, venue, column_);
  EXPECT_LT(model.NodeWeight(0), model.NodeWeight(1));
}

TEST_F(WeightModelFixture, ConCountsSharedNeighborsSymmetrically) {
  std::vector<double> zero(5, 0.0);
  WeightModel model(&graph_, zero, zero, column_);
  // 0 and 1 share two references (2, 3): con = 1 + 2 = 3.
  EXPECT_EQ(model.Con(0, 1), 3);
  EXPECT_EQ(model.Con(1, 0), 3);
  // 2 and 3 share two citers (0, 1): con = 3 as well.
  EXPECT_EQ(model.Con(2, 3), 3);
  // 4 shares nothing with 2.
  EXPECT_EQ(model.Con(4, 2), 1);
}

TEST_F(WeightModelFixture, EdgeCostFollowsEquation2) {
  std::vector<double> zero(5, 0.0);
  NewstParams params;
  WeightModel model(&graph_, zero, zero, column_, params);
  // c = alpha / con^beta = 3 / 3^2.
  EXPECT_NEAR(model.EdgeCost(0, 1), 3.0 / 9.0, 1e-9);
  EXPECT_NEAR(model.EdgeCost(4, 2), 3.0, 1e-9);
  // Stronger relation -> cheaper edge.
  EXPECT_LT(model.EdgeCost(0, 1), model.EdgeCost(4, 2));
}

TEST_F(WeightModelFixture, CustomParamsPropagate) {
  std::vector<double> zero(5, 0.0);
  NewstParams params;
  params.alpha = 10.0;
  params.beta = 1.0;
  params.gamma = 2.0;
  WeightModel model(&graph_, zero, zero, column_, params);
  EXPECT_NEAR(model.EdgeCost(4, 2), 10.0, 1e-9);
  EXPECT_NEAR(model.NodeWeight(4), 2.0 / 0.02, 1e-9);
  EXPECT_EQ(model.params().alpha, 10.0);
}

/// Random graph with `hubs` papers that cite and are cited by ~`hub_degree`
/// others, so rows with >= 64 neighbours (and saturated counts) occur.
graph::CitationGraph RandomGraph(uint32_t n, int edges, uint32_t hubs,
                                 uint32_t hub_degree, uint64_t seed) {
  graph::GraphBuilder b(n);
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(state >> 33);
  };
  for (int e = 0; e < edges; ++e) {
    uint32_t u = next() % n, v = next() % n;
    if (u != v) b.AddCitation(u, v);
  }
  for (uint32_t h = 0; h < hubs; ++h) {
    for (uint32_t k = 0; k < hub_degree; ++k) {
      uint32_t v = next() % n;
      if (v == h) continue;
      b.AddCitation(h, v);
      b.AddCitation(v, h);
    }
  }
  return b.Build().value();
}

TEST_F(WeightModelFixture, ConAndEdgeCostAreSymmetricOnRandomGraph) {
  // Regression for the two-phase capped count: both phases are
  // symmetric intersections and each phase's clamp is a semantic min, so
  // Con(i, j) == Con(j, i) and EdgeCost(i, j) == EdgeCost(j, i) must
  // hold for every pair — including pairs that saturate the cap, where a
  // scan-cutoff bug would break order independence.
  const uint32_t n = 100;
  auto g = RandomGraph(n, 900, /*hubs=*/1, /*hub_degree=*/n, 12345);
  std::vector<uint8_t> column = BuildConColumn(g);
  std::vector<double> zero(n, 0.0);
  WeightModel model(&g, zero, zero, column);
  for (graph::PaperId i = 0; i < n; ++i) {
    for (graph::PaperId j = i + 1; j < n; ++j) {
      const int forward = model.Con(i, j);
      EXPECT_EQ(forward, model.Con(j, i)) << i << "," << j;
      EXPECT_DOUBLE_EQ(model.EdgeCost(i, j), model.EdgeCost(j, i));
      EXPECT_GE(forward, 1);
      EXPECT_LE(forward, kConCap);
    }
  }
}

TEST(ConColumnTest, MatchesOnTheFlyConOnEveryEdge) {
  // The column is what the query path reads instead of Con(i, j); it
  // must agree count-for-count, and the costs built from it must be
  // bit-identical to the on-the-fly Eq. (2). The graphs span sparse to
  // dense, with hub rows of 64+ neighbours on both sides, and are large
  // enough that the parallel build splits them into many row blocks.
  struct Shape {
    uint32_t n;
    int edges;
    uint32_t hubs, hub_degree;
  };
  const Shape shapes[] = {
      {1, 0, 0, 0},        {2, 4, 0, 0},       {50, 60, 0, 0},
      {300, 3000, 3, 90},  {200, 8000, 0, 0},  {1000, 6000, 8, 200},
  };
  uint64_t seed = 1;
  size_t saturated = 0, hub_rows = 0;
  for (const Shape& shape : shapes) {
    auto g = RandomGraph(shape.n, shape.edges, shape.hubs, shape.hub_degree,
                         seed++);
    std::vector<uint8_t> column = BuildConColumn(g);
    ASSERT_EQ(column.size(), g.num_edges());
    EXPECT_EQ(column, BuildConColumn(g));  // independent of scheduling
    std::vector<double> zero(shape.n, 0.0);
    WeightModel model(&g, zero, zero, column);
    for (graph::PaperId u = 0; u < shape.n; ++u) {
      if (g.OutDegree(u) >= 64 || g.InDegree(u) >= 64) ++hub_rows;
      uint64_t e = g.OutEdgeBegin(u);
      for (graph::PaperId v : g.OutNeighbors(u)) {
        ASSERT_EQ(column[e], model.Con(u, v)) << u << "->" << v;
        EXPECT_EQ(model.EdgeCostAt(e), model.EdgeCost(u, v));
        if (column[e] == kConCap) ++saturated;
        ++e;
      }
    }
  }
  EXPECT_GT(hub_rows, 0u);
  EXPECT_GT(saturated, 0u);
}

TEST(ConColumnTest, EmptyGraphHasEmptyColumn) {
  EXPECT_TRUE(BuildConColumn(graph::CitationGraph()).empty());
  graph::GraphBuilder b(3);
  EXPECT_TRUE(BuildConColumn(b.Build().value()).empty());
}

TEST_F(WeightModelFixture, AllWeightsPositive) {
  std::vector<double> pr = {1.0, 0.5, 0.2, 0.2, 0.0};
  std::vector<double> venue = {1.0, 0.0, 0.5, 0.0, 0.0};
  WeightModel model(&graph_, pr, venue, column_);
  for (graph::PaperId p = 0; p < 5; ++p) {
    EXPECT_GT(model.NodeWeight(p), 0.0);
    for (graph::PaperId q = 0; q < 5; ++q) {
      if (p != q) EXPECT_GT(model.EdgeCost(p, q), 0.0);
    }
  }
}

}  // namespace
}  // namespace rpg::rank
