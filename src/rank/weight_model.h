#ifndef RPG_RANK_WEIGHT_MODEL_H_
#define RPG_RANK_WEIGHT_MODEL_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/citation_graph.h"

namespace rpg::rank {

/// The NEWST constants of Eq. (2) and Eq. (3); defaults are the paper's
/// experimental setting {α, β, γ, a, b} = {3, 2, 5, 0.7, 0.3} (§VI-A).
struct NewstParams {
  double alpha = 3.0;
  double beta = 2.0;
  double gamma = 5.0;
  double a = 0.7;
  double b = 0.3;
};

/// Upper bound of the Eq. (2) relatedness count con(i, j); every count
/// lies in [1, kConCap].
inline constexpr int kConCap = 7;

/// Eq. (2)'s con(i, j) for every citation edge of `g`, aligned with the
/// out-CSR: entry e is the count of the e-th out-edge in (source,
/// position-in-OutNeighbors) order. One byte per edge, values in
/// [1, kConCap]. A pure function of the graph, so it is computed once
/// per graph (eval::Workbench, snapshot::WriteSnapshot) and stored with
/// the snapshot; the query path only looks counts up. Rows are split
/// into blocks run on a ThreadPool of hardware_concurrency() workers;
/// the result does not depend on the split.
std::vector<uint8_t> BuildConColumn(const graph::CitationGraph& g);

/// Node and edge weights for the weighted citation graph (§IV-A step 2).
///
///   w(i)    = γ / (a · pgscore(i) + b · venue(i))          (Eq. 3)
///   c(i, j) = α / con(i, j)^β                              (Eq. 2)
///
/// pgscore is the max-normalized PageRank over the full citation network
/// and venue(i) the CCF/AMiner venue score in [0, 1]. The paper measures
/// con(i, j) as the number of times paper j is mentioned in paper i's
/// full text (or inversely); full text is not modeled here, so con is
/// derived from the citation structure: 1 for the citation itself plus
/// the number of common graph neighbors (a standard co-citation /
/// bibliographic-coupling relatedness proxy — see DESIGN.md §2).
class WeightModel {
 public:
  /// `pagerank_norm` and `venue_scores` are per-paper arrays (same size
  /// as g.num_nodes()), both on a [0, 1] scale. `con_column` is
  /// BuildConColumn(*g), or the same bytes loaded from a snapshot. The
  /// graph and the column must outlive the model.
  WeightModel(const graph::CitationGraph* g, std::vector<double> pagerank_norm,
              std::vector<double> venue_scores,
              std::span<const uint8_t> con_column,
              const NewstParams& params = {});

  /// Eq. (3). The denominator is floored so papers with no venue and
  /// negligible PageRank keep a finite weight.
  double NodeWeight(graph::PaperId i) const;

  /// Relatedness count used by Eq. (2): 1 + common neighbors, capped,
  /// computed on the fly from the adjacency. This is the kernel
  /// BuildConColumn runs and the oracle the column is tested against;
  /// the query path reads the column instead.
  ///
  /// Cap semantics, spelled out because every intersection kernel must
  /// honor them identically:
  ///  1. shared references (out ∩ out) are counted first, clamped to
  ///     kConCap — i.e. exactly min(|out_i ∩ out_j|, kConCap);
  ///  2. shared citers (in ∩ in) are counted only if budget remains,
  ///     clamped to the remainder kConCap - (phase-1 count);
  ///  3. the result is 1 + min(phase1 + phase2, kConCap - 1), so Con is
  ///     always in [1, kConCap] and the kernels may early-exit the
  ///     instant a phase's clamp is reached.
  /// Because each phase's clamp is a semantic min() (not a scan cutoff),
  /// the result is independent of kernel choice and of evaluation
  /// order within a phase; Con(i, j) == Con(j, i) by the symmetry of
  /// both intersections (regression-tested in tests/rank/rank_test.cc).
  int Con(graph::PaperId i, graph::PaperId j) const;

  /// Eq. (2) with an on-the-fly count; same value as EdgeCostAt on the
  /// edge's position.
  double EdgeCost(graph::PaperId i, graph::PaperId j) const {
    return cost_of_con_[Con(i, j)];
  }

  /// Eq. (2) for the citation edge at out-CSR position `edge` (see
  /// graph::Subgraph::OutEdgePositions): one column byte, one table
  /// lookup.
  double EdgeCostAt(uint64_t edge) const {
    return cost_of_con_[con_column_[edge]];
  }

  /// The per-edge con counts this model costs edges with.
  std::span<const uint8_t> con_column() const { return con_column_; }

  const NewstParams& params() const { return params_; }

  /// Maximum possible node weight (γ / floor); handy for tests.
  double MaxNodeWeight() const;

 private:
  const graph::CitationGraph* g_;
  std::vector<double> pagerank_norm_;
  std::vector<double> venue_scores_;
  std::span<const uint8_t> con_column_;
  NewstParams params_;
  /// cost_of_con_[c] = α / c^β for c in [1, kConCap] (entry 0 unused):
  /// Eq. (2) evaluated once per count value with the same expression.
  std::array<double, kConCap + 1> cost_of_con_{};

  static constexpr double kDenomFloor = 0.02;
};

}  // namespace rpg::rank

#endif  // RPG_RANK_WEIGHT_MODEL_H_
