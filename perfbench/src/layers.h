#ifndef RPG_PERFBENCH_LAYERS_H_
#define RPG_PERFBENCH_LAYERS_H_

// The traced run: replays a sample of a workload's requests serially on
// one thread. The benchmark records a span (wall time and thread CPU
// time) around each public call that wraps a whole layer: the HTTP
// fetch, RePagerService::Handle, ServeEngine::Generate and
// RePaGer::Generate. The pipeline's stages have no public entry point of
// their own, so their times and counts are read from the stage spans and
// counters RePaGer::Generate records on its result.

#include <string>
#include <vector>

#include "common/result.h"
#include "setup.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Replays `sample` (indices into `keys`, all distinct keys) through the
/// ui, serve and core layers and returns the per-layer metrics, means
/// over the sample. Before each input an untimed RePaGer::Generate of
/// the same key warms the data it touches, and the serving cache is
/// cleared before each served call, so every timed call is a miss on
/// warm data. Spans are written as JSON to `spans_path` when it is not
/// empty.
rpg::Result<std::vector<Metric>> TraceLayers(ServingStack& stack,
                                             const std::vector<QueryKey>& keys,
                                             const std::vector<size_t>& sample,
                                             const std::string& spans_path);

}  // namespace perfbench

#endif  // RPG_PERFBENCH_LAYERS_H_
