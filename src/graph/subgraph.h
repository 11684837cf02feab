#ifndef RPG_GRAPH_SUBGRAPH_H_
#define RPG_GRAPH_SUBGRAPH_H_

/// \file
/// Node-induced subgraph with a local <-> global id mapping. The RePaGer
/// pipeline runs NEWST over the 1st/2nd-order neighborhood sub-citation
/// graph (§IV-A step 3), which is orders of magnitude smaller than the
/// whole graph; local dense ids keep the Steiner machinery simple.
///
/// Ownership / thread-safety model:
///  - A built Subgraph is immutable and self-contained (it does NOT
///    retain pointers into the CitationGraph or the scratch); concurrent
///    reads are safe.
///  - SubgraphScratch is transient build state only: a |V|-sized dense
///    global->local map plus CSR fill cursors, used during Assign() and
///    reset (in O(subgraph) time) before it returns. One scratch per
///    thread; reusing it across queries avoids the O(|V|) map allocation
///    per subgraph build.
///  - Assign() reuses the Subgraph's own CSR arrays (clear keeps
///    capacity), so a worker that keeps one Subgraph object alive pays
///    near-zero allocation after warm-up.

#include <span>
#include <vector>

#include "graph/citation_graph.h"

namespace rpg::graph {

class Subgraph;

/// Reusable build-time state for Subgraph::Assign. Treat as an opaque
/// token: default-construct once per worker and pass to every Assign
/// call. Never share one scratch between threads.
class SubgraphScratch {
 public:
  SubgraphScratch() = default;

 private:
  friend class Subgraph;
  std::vector<uint32_t> global_to_local_;  // UINT32_MAX = absent; lazily sized
  std::vector<uint64_t> out_cursor_;
  std::vector<uint64_t> in_cursor_;
};

/// Compressed-sparse-row induced subgraph (same storage design as
/// CitationGraph). Local ids are assigned in the order nodes first appear
/// in `nodes`; neighbor spans are sorted ascending by local id.
class Subgraph {
 public:
  /// Empty subgraph; populate with Assign().
  Subgraph() = default;

  /// Builds the subgraph of `g` induced by `nodes` (duplicates collapsed,
  /// out-of-range ids dropped) using a private transient scratch.
  Subgraph(const CitationGraph& g, const std::vector<PaperId>& nodes);

  /// Same, but build-time state lives in caller-owned `scratch`.
  Subgraph(const CitationGraph& g, const std::vector<PaperId>& nodes,
           SubgraphScratch* scratch);

  /// (Re)builds this subgraph in place, reusing existing array capacity.
  /// `scratch` is left reset and may be reused immediately.
  void Assign(const CitationGraph& g, const std::vector<PaperId>& nodes,
              SubgraphScratch* scratch);

  size_t num_nodes() const { return locals_to_global_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Global paper id for a local id.
  PaperId ToGlobal(uint32_t local) const { return locals_to_global_[local]; }

  /// Local id for a global paper id, or UINT32_MAX if not in the
  /// subgraph. O(log k) binary search over the sorted id index.
  uint32_t ToLocal(PaperId global) const;

  bool Contains(PaperId global) const {
    return ToLocal(global) != UINT32_MAX;
  }

  /// Local out-neighbors (cited papers inside the subgraph), sorted.
  std::span<const uint32_t> OutNeighbors(uint32_t local) const {
    return {out_targets_.data() + out_offsets_[local],
            out_offsets_[local + 1] - out_offsets_[local]};
  }
  /// Global out-CSR position (CitationGraph::OutEdgeBegin) of each
  /// out-edge of `local`, parallel to OutNeighbors(local): per-edge
  /// columns of the full graph are read at these positions.
  std::span<const uint64_t> OutEdgePositions(uint32_t local) const {
    return {out_positions_.data() + out_offsets_[local],
            out_offsets_[local + 1] - out_offsets_[local]};
  }
  /// Local in-neighbors (citing papers inside the subgraph), sorted.
  std::span<const uint32_t> InNeighbors(uint32_t local) const {
    return {in_targets_.data() + in_offsets_[local],
            in_offsets_[local + 1] - in_offsets_[local]};
  }

  /// Undirected adjacency (union of in and out), sorted.
  std::vector<uint32_t> UndirectedNeighbors(uint32_t local) const;

 private:
  std::vector<PaperId> locals_to_global_;
  // ToLocal index: globals sorted ascending + their local ids, parallel.
  std::vector<PaperId> sorted_globals_;
  std::vector<uint32_t> sorted_locals_;
  // Offsets hold num_nodes + 1 entries ({0} when empty) from default
  // construction on, so accessors stay in bounds for every valid local.
  std::vector<uint64_t> out_offsets_{0};
  std::vector<uint32_t> out_targets_;
  std::vector<uint64_t> out_positions_;  // parallel to out_targets_
  std::vector<uint64_t> in_offsets_{0};
  std::vector<uint32_t> in_targets_;
  size_t num_edges_ = 0;
};

}  // namespace rpg::graph

#endif  // RPG_GRAPH_SUBGRAPH_H_
