#include "core/repager.h"

#include <algorithm>

#include "common/logging.h"
#include "common/timer.h"

namespace rpg::core {

using graph::PaperId;

RePaGer::RePaGer(const graph::CitationGraph* graph,
                 const search::SearchEngine* engine,
                 const rank::WeightModel* weights,
                 const std::vector<uint16_t>* years)
    : graph_(graph), engine_(engine), weights_(weights), years_(years) {
  RPG_CHECK(graph_ != nullptr && engine_ != nullptr && weights_ != nullptr &&
            years_ != nullptr);
  RPG_CHECK(years_->size() == graph_->num_nodes());
}

double RePaGer::Importance(PaperId p) const {
  // NodeWeight = gamma / max(denominator, floor); invert to recover the
  // (clamped) denominator, which *increases* with importance.
  return weights_->params().gamma / weights_->NodeWeight(p);
}

steiner::WeightedGraph BuildWeightedSubgraph(const graph::Subgraph& sg,
                                             const rank::WeightModel& weights) {
  steiner::WeightedGraphBuilder builder(sg.num_nodes());
  steiner::WeightedGraph out;
  BuildWeightedSubgraph(sg, weights, &builder, &out);
  return out;
}

void BuildWeightedSubgraph(const graph::Subgraph& sg,
                           const rank::WeightModel& weights,
                           steiner::WeightedGraphBuilder* builder,
                           steiner::WeightedGraph* out) {
  builder->Reset(sg.num_nodes());
  builder->ReserveEdges(sg.num_edges());
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    builder->SetNodeWeight(local, weights.NodeWeight(sg.ToGlobal(local)));
    // Out-edges only, so each undirected edge is added exactly once.
    std::span<const uint32_t> cited = sg.OutNeighbors(local);
    std::span<const uint64_t> positions = sg.OutEdgePositions(local);
    for (size_t k = 0; k < cited.size(); ++k) {
      builder->AddEdge(local, cited[k], weights.EdgeCostAt(positions[k]));
    }
  }
  builder->BuildInto(out);
}

Result<RePagerResult> RePaGer::Generate(const std::string& query,
                                        const RePagerOptions& options) const {
  QueryScratch scratch;
  return Generate(query, options, &scratch);
}

Result<RePagerResult> RePaGer::Generate(const std::string& query,
                                        const RePagerOptions& options,
                                        QueryScratch* scratch) const {
  if (query.empty()) return Status::InvalidArgument("empty query");
  if (options.num_initial_seeds <= 0) {
    return Status::InvalidArgument("num_initial_seeds must be positive");
  }
  Timer total_timer;
  RePagerResult result;
  // Pipeline trace: spans land in the scratch's preallocated SpanSet and
  // are copied onto the result at the end. A null trace (tracing
  // compiled out or runtime-disabled) skips every clock read.
  obs::TraceContext* trace = nullptr;
  if (obs::kTracingCompiledIn && obs::TracingEnabled()) {
    scratch->trace_.Reset(0);
    trace = &scratch->trace_;
  }
  uint64_t t0 = 0;

  // ---- Step 1: initial seeds from the engine -------------------------
  if (trace) t0 = trace->NowNs();
  auto hits = engine_->Search(query, options.num_initial_seeds,
                              options.year_cutoff, options.exclude);
  if (trace) {
    trace->AddSpan(obs::Stage::kSearch, t0, trace->NowNs() - t0,
                   hits.size());
  }
  if (hits.empty()) {
    return Status::NotFound("engine returned no results for: " + query);
  }
  for (const auto& h : hits) result.initial_seeds.push_back(h.doc);

  // ---- Step 3: sub-citation graph over 1st/2nd order neighbors -------
  if (trace) t0 = trace->NowNs();
  KHopNeighborhood(*graph_, result.initial_seeds, options.expansion_hops,
                   options.expansion_direction, &scratch->khop_scratch_,
                   &scratch->khop_);
  if (trace) {
    uint64_t visited = 0;
    for (const auto& level : scratch->khop_.levels) visited += level.size();
    trace->AddSpan(obs::Stage::kKhop, t0, trace->NowNs() - t0, visited);
    t0 = trace->NowNs();
  }
  std::vector<PaperId>& candidates = scratch->candidates_;
  candidates.clear();
  for (const auto& level : scratch->khop_.levels) {
    for (PaperId p : level) {
      if ((*years_)[p] <= options.year_cutoff) candidates.push_back(p);
    }
  }
  FlatSet<PaperId>& excluded = scratch->excluded_;
  excluded.clear();
  excluded.insert(options.exclude.begin(), options.exclude.end());
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [&](PaperId p) {
                                    return excluded.contains(p);
                                  }),
                   candidates.end());
  scratch->sg_.Assign(*graph_, candidates, &scratch->sg_scratch_);
  const graph::Subgraph& sg = scratch->sg_;
  result.subgraph_nodes = sg.num_nodes();
  result.subgraph_edges = sg.num_edges();
  if (trace) {
    trace->AddSpan(obs::Stage::kSubgraph, t0, trace->NowNs() - t0,
                   sg.num_nodes());
    t0 = trace->NowNs();
  }

  // ---- Step 4: seed reallocation by co-occurrence --------------------
  std::vector<PaperId> terminals =
      ReallocateSeeds(*graph_, result.initial_seeds, options.seed_mode,
                      options.min_cooccurrence);
  // Terminals must live inside the subgraph (they do by construction for
  // out-expansion, but year cutoffs / exclusions can drop them).
  terminals.erase(std::remove_if(terminals.begin(), terminals.end(),
                                 [&](PaperId p) { return !sg.Contains(p); }),
                  terminals.end());
  if (terminals.empty()) {
    // Degenerate query: fall back to whatever seeds survived.
    for (PaperId p : result.initial_seeds) {
      if (sg.Contains(p)) terminals.push_back(p);
    }
  }
  if (terminals.empty()) {
    return Status::NotFound("no usable terminals for: " + query);
  }
  result.terminals = terminals;

  // Query-specific evidence: how many distinct initial seeds cite each
  // candidate. This is the signal seed reallocation is built on; it also
  // drives the final ranking (a paper referenced by many query-relevant
  // articles is very likely on the survey's reference list).
  FlatMap<PaperId, int>& cooccurrence = scratch->cooccurrence_;
  cooccurrence.clear();
  FlatSet<PaperId>& seed_set = scratch->seed_set_;
  seed_set.clear();
  seed_set.insert(result.initial_seeds.begin(), result.initial_seeds.end());
  for (PaperId s : seed_set) {
    for (PaperId cited : graph_->OutNeighbors(s)) ++cooccurrence[cited];
  }
  if (trace) {
    trace->AddSpan(obs::Stage::kSeedRealloc, t0, trace->NowNs() - t0,
                   terminals.size());
  }
  // Unified candidate score: co-occurrence count, with a bonus for being
  // a direct engine hit (a seed without citation evidence still carries
  // lexical relevance worth roughly one co-citing seed).
  auto evidence_of = [&](PaperId p) {
    double score = 0.0;
    if (const int* count = cooccurrence.Find(p)) {
      score += static_cast<double>(*count);
    }
    if (seed_set.contains(p)) score += 1.2;
    return score;
  };

  std::vector<PaperId> tree_nodes;
  if (options.run_steiner) {
    // ---- Step 5: NEWST over the weighted sub-citation graph ----------
    Timer steiner_timer;
    if (trace) t0 = trace->NowNs();
    BuildWeightedSubgraph(sg, *weights_, &scratch->builder_, &scratch->wg_);
    const steiner::WeightedGraph& wg = scratch->wg_;
    if (trace) {
      trace->AddSpan(obs::Stage::kEdgeCost, t0, trace->NowNs() - t0,
                     wg.num_edges());
      t0 = trace->NowNs();
    }
    std::vector<uint32_t>& local_terminals = scratch->local_terminals_;
    local_terminals.clear();
    local_terminals.reserve(terminals.size());
    for (PaperId t : terminals) local_terminals.push_back(sg.ToLocal(t));
    RPG_ASSIGN_OR_RETURN(steiner::SteinerResult local_tree,
                         SolveNewst(wg, local_terminals, options.newst));
    result.steiner_seconds = steiner_timer.ElapsedSeconds();
    result.steiner_stats = local_tree.stats;
    if (trace) {
      trace->AddSpan(obs::Stage::kSteiner, t0, trace->NowNs() - t0,
                     local_tree.stats.nodes_settled);
      t0 = trace->NowNs();
    }

    // Map back to global ids.
    steiner::SteinerResult tree;
    tree.total_cost = local_tree.total_cost;
    for (uint32_t v : local_tree.nodes) tree.nodes.push_back(sg.ToGlobal(v));
    for (const auto& [a, b] : local_tree.edges) {
      PaperId ga = sg.ToGlobal(a), gb = sg.ToGlobal(b);
      tree.edges.emplace_back(std::min(ga, gb), std::max(ga, gb));
    }
    std::sort(tree.nodes.begin(), tree.nodes.end());
    std::sort(tree.edges.begin(), tree.edges.end());
    result.path = ReadingPath(tree, *years_);
    tree_nodes = tree.nodes;
    if (trace) {
      trace->AddSpan(obs::Stage::kReadingPath, t0, trace->NowNs() - t0,
                     tree.nodes.size());
    }
  } else {
    // NEWST-C: the reallocated seed set is the final result, no path.
    tree_nodes = terminals;
  }

  // ---- Ranked list: Steiner-tree papers first, then the remaining
  // engine seeds, then the rest of the sub-graph; every block ordered by
  // citation evidence. The tree-first property is what the Table III
  // ablations measure: a different terminal set / weight scheme yields a
  // different tree, and hence a different top of the list.
  if (trace) t0 = trace->NowNs();
  auto rank_by_evidence = [&](std::vector<PaperId>* v) {
    std::sort(v->begin(), v->end(), [&](PaperId a, PaperId b) {
      double ca = evidence_of(a), cb = evidence_of(b);
      if (ca != cb) return ca > cb;
      double ia = Importance(a), ib = Importance(b);
      if (ia != ib) return ia > ib;
      return a < b;
    });
  };
  rank_by_evidence(&tree_nodes);
  FlatSet<PaperId>& emitted = scratch->emitted_;
  emitted.clear();
  emitted.insert(tree_nodes.begin(), tree_nodes.end());
  result.ranked = std::move(tree_nodes);
  result.ranked.reserve(sg.num_nodes());
  std::vector<PaperId>& seed_block = scratch->seed_block_;
  seed_block.clear();
  seed_block.reserve(result.initial_seeds.size());
  for (PaperId s : result.initial_seeds) {
    if (sg.Contains(s) && !emitted.contains(s)) seed_block.push_back(s);
  }
  rank_by_evidence(&seed_block);
  for (PaperId s : seed_block) {
    emitted.insert(s);
    result.ranked.push_back(s);
  }
  std::vector<PaperId>& rest = scratch->rest_;
  rest.clear();
  rest.reserve(sg.num_nodes());
  for (uint32_t local = 0; local < sg.num_nodes(); ++local) {
    PaperId p = sg.ToGlobal(local);
    if (!emitted.contains(p)) rest.push_back(p);
  }
  rank_by_evidence(&rest);
  result.ranked.insert(result.ranked.end(), rest.begin(), rest.end());

  if (trace) {
    trace->AddSpan(obs::Stage::kRank, t0, trace->NowNs() - t0,
                   result.ranked.size());
    trace->AttachSteinerStats(result.steiner_stats);
    result.stages = trace->spans();
  }
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace rpg::core
