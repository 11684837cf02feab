#include "graph/subgraph.h"

#include <algorithm>
#include <numeric>

namespace rpg::graph {

Subgraph::Subgraph(const CitationGraph& g, const std::vector<PaperId>& nodes) {
  SubgraphScratch scratch;
  Assign(g, nodes, &scratch);
}

Subgraph::Subgraph(const CitationGraph& g, const std::vector<PaperId>& nodes,
                   SubgraphScratch* scratch) {
  Assign(g, nodes, scratch);
}

void Subgraph::Assign(const CitationGraph& g, const std::vector<PaperId>& nodes,
                      SubgraphScratch* scratch) {
  const size_t n = g.num_nodes();
  std::vector<uint32_t>& map = scratch->global_to_local_;
  if (map.size() < n) map.resize(n, UINT32_MAX);

  // Restore the map's all-UINT32_MAX invariant on every exit path
  // (including a bad_alloc mid-build), so a shared scratch can never
  // poison a later Assign. O(k), not O(n): exactly the mapped globals
  // are in locals_to_global_.
  locals_to_global_.clear();
  struct MapResetGuard {
    std::vector<uint32_t>& map;
    const std::vector<PaperId>& touched;
    ~MapResetGuard() {
      for (PaperId p : touched) map[p] = UINT32_MAX;
    }
  } guard{map, locals_to_global_};

  // Dedup + local id assignment in first-appearance order. push_back
  // before map[] so a throwing push never leaves an unrecorded entry.
  for (PaperId p : nodes) {
    if (p >= n || map[p] != UINT32_MAX) continue;
    locals_to_global_.push_back(p);
    map[p] = static_cast<uint32_t>(locals_to_global_.size() - 1);
  }
  const size_t k = locals_to_global_.size();

  // Counting pass over induced out-edges.
  num_edges_ = 0;
  out_offsets_.assign(k + 1, 0);
  in_offsets_.assign(k + 1, 0);
  for (uint32_t local = 0; local < k; ++local) {
    for (PaperId cited : g.OutNeighbors(locals_to_global_[local])) {
      uint32_t target = map[cited];
      if (target == UINT32_MAX) continue;
      ++out_offsets_[local + 1];
      ++in_offsets_[target + 1];
      ++num_edges_;
    }
  }
  std::partial_sum(out_offsets_.begin(), out_offsets_.end(),
                   out_offsets_.begin());
  std::partial_sum(in_offsets_.begin(), in_offsets_.end(), in_offsets_.begin());

  // Fill pass. In-spans come out sorted for free (the outer loop visits
  // citing locals in ascending order); out-spans are ordered by the cited
  // paper's *global* id and need a per-span sort to be ascending in local
  // ids. The sort key packs (local target, index in the global row) so
  // each edge's global CSR position travels with its target.
  out_targets_.resize(num_edges_);
  out_positions_.resize(num_edges_);
  in_targets_.resize(num_edges_);
  scratch->out_cursor_.assign(out_offsets_.begin(), out_offsets_.end() - 1);
  scratch->in_cursor_.assign(in_offsets_.begin(), in_offsets_.end() - 1);
  for (uint32_t local = 0; local < k; ++local) {
    std::span<const PaperId> row = g.OutNeighbors(locals_to_global_[local]);
    for (uint32_t index = 0; index < row.size(); ++index) {
      uint32_t target = map[row[index]];
      if (target == UINT32_MAX) continue;
      out_positions_[scratch->out_cursor_[local]++] =
          (uint64_t{target} << 32) | index;
      in_targets_[scratch->in_cursor_[target]++] = local;
    }
  }
  for (uint32_t local = 0; local < k; ++local) {
    const uint64_t begin = out_offsets_[local], end = out_offsets_[local + 1];
    std::sort(out_positions_.begin() + begin, out_positions_.begin() + end);
    const uint64_t row_begin = g.OutEdgeBegin(locals_to_global_[local]);
    for (uint64_t e = begin; e < end; ++e) {
      const uint64_t key = out_positions_[e];
      out_targets_[e] = static_cast<uint32_t>(key >> 32);
      out_positions_[e] = row_begin + (key & 0xFFFFFFFFu);
    }
  }

  // Sorted index for ToLocal.
  sorted_locals_.resize(k);
  std::iota(sorted_locals_.begin(), sorted_locals_.end(), 0u);
  std::sort(sorted_locals_.begin(), sorted_locals_.end(),
            [&](uint32_t a, uint32_t b) {
              return locals_to_global_[a] < locals_to_global_[b];
            });
  sorted_globals_.resize(k);
  for (size_t i = 0; i < k; ++i) {
    sorted_globals_[i] = locals_to_global_[sorted_locals_[i]];
  }
  // MapResetGuard leaves the scratch map clean for the next Assign.
}

uint32_t Subgraph::ToLocal(PaperId global) const {
  auto it = std::lower_bound(sorted_globals_.begin(), sorted_globals_.end(),
                             global);
  if (it == sorted_globals_.end() || *it != global) return UINT32_MAX;
  return sorted_locals_[static_cast<size_t>(it - sorted_globals_.begin())];
}

std::vector<uint32_t> Subgraph::UndirectedNeighbors(uint32_t local) const {
  std::span<const uint32_t> out = OutNeighbors(local);
  std::span<const uint32_t> in = InNeighbors(local);
  std::vector<uint32_t> merged;
  merged.reserve(out.size() + in.size());
  std::merge(out.begin(), out.end(), in.begin(), in.end(),
             std::back_inserter(merged));
  merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
  return merged;
}

}  // namespace rpg::graph
