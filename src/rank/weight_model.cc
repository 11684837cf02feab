#include "rank/weight_model.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <thread>

#include "common/intersect.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace rpg::rank {

namespace {

/// WeightModel::Con without a model: the count reads only the graph.
int CountCon(const graph::CitationGraph& g, graph::PaperId i,
             graph::PaperId j) {
  // 1 for the citation relation itself + bibliographic coupling (shared
  // references) + co-citation (shared citers); see the header for the
  // exact two-phase cap contract.
  int common = static_cast<int>(intersect::CountCommon(
      g.OutNeighbors(i), g.OutNeighbors(j), static_cast<size_t>(kConCap)));
  if (common < kConCap) {
    common += static_cast<int>(intersect::CountCommon(
        g.InNeighbors(i), g.InNeighbors(j),
        static_cast<size_t>(kConCap - common)));
  }
  return 1 + std::min(common, kConCap - 1);
}

}  // namespace

std::vector<uint8_t> BuildConColumn(const graph::CitationGraph& g) {
  const size_t n = g.num_nodes();
  std::vector<uint8_t> column(g.num_edges());
  const size_t threads =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  // Blocks of about equal edge count, several per worker so one block
  // of hub rows does not leave the others idle. Each block writes its
  // own disjoint slice of the column.
  const uint64_t target = std::max<uint64_t>(1, column.size() / (threads * 8));
  ThreadPool pool(threads);
  std::vector<std::future<void>> blocks;
  graph::PaperId begin = 0;
  while (begin < n) {
    graph::PaperId end = begin;
    uint64_t edges = 0;
    while (end < n && edges < target) edges += g.OutDegree(end++);
    blocks.push_back(pool.Submit([&g, &column, begin, end] {
      for (graph::PaperId u = begin; u < end; ++u) {
        uint64_t e = g.OutEdgeBegin(u);
        for (graph::PaperId v : g.OutNeighbors(u)) {
          column[e++] = static_cast<uint8_t>(CountCon(g, u, v));
        }
      }
    }));
    begin = end;
  }
  for (std::future<void>& block : blocks) block.get();
  return column;
}

WeightModel::WeightModel(const graph::CitationGraph* g,
                         std::vector<double> pagerank_norm,
                         std::vector<double> venue_scores,
                         std::span<const uint8_t> con_column,
                         const NewstParams& params)
    : g_(g),
      pagerank_norm_(std::move(pagerank_norm)),
      venue_scores_(std::move(venue_scores)),
      con_column_(con_column),
      params_(params) {
  RPG_CHECK(g_ != nullptr);
  RPG_CHECK(pagerank_norm_.size() == g_->num_nodes());
  RPG_CHECK(venue_scores_.size() == g_->num_nodes());
  RPG_CHECK(con_column_.size() == g_->num_edges());
  for (int c = 1; c <= kConCap; ++c) {
    cost_of_con_[c] =
        params_.alpha / std::pow(static_cast<double>(c), params_.beta);
  }
}

double WeightModel::NodeWeight(graph::PaperId i) const {
  double denom =
      params_.a * pagerank_norm_[i] + params_.b * venue_scores_[i];
  denom = std::max(denom, kDenomFloor);
  return params_.gamma / denom;
}

int WeightModel::Con(graph::PaperId i, graph::PaperId j) const {
  return CountCon(*g_, i, j);
}

double WeightModel::MaxNodeWeight() const { return params_.gamma / kDenomFloor; }

}  // namespace rpg::rank
