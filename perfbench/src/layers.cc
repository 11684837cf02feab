#include "layers.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "common/json_writer.h"
#include "core/batch_engine.h"
#include "obs/trace.h"
#include "stats.h"
#include "ui/http_client.h"

namespace perfbench {
namespace {

using rpg::obs::Stage;

struct Span {
  std::string name;
  size_t input = 0;
  double start_ms = 0.0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Collects spans, and per-name samples of times and counts.
class Recorder {
 public:
  explicit Recorder(double origin) : origin_(origin) {}

  /// Calls `call` inside a span; its wall and CPU time are kept as
  /// `name`_ms and `name`_cpu_ms.
  template <typename F>
  auto Time(const std::string& name, size_t input, F&& call) {
    const double wall0 = NowSeconds();
    const double cpu0 = ThreadCpuSeconds();
    auto result = call();
    const double cpu = ThreadCpuSeconds() - cpu0;
    const double wall = NowSeconds() - wall0;
    spans_.push_back({name, input, 1e3 * (wall0 - origin_), 1e3 * wall, 1e3 * cpu});
    Add(name + "_ms", 1e3 * wall);
    Add(name + "_cpu_ms", 1e3 * cpu);
    return result;
  }

  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }

  double MeanOf(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : Mean(it->second);
  }

  void Write(const std::string& path) const {
    rpg::JsonWriter w;
    w.BeginArray();
    for (const Span& s : spans_) {
      w.BeginObject();
      w.Key("name").String(s.name);
      w.Key("input").UInt(s.input);
      w.Key("start_ms").Double(s.start_ms);
      w.Key("wall_ms").Double(s.wall_ms);
      w.Key("cpu_ms").Double(s.cpu_ms);
      w.EndObject();
    }
    w.EndArray();
    std::ofstream(path) << w.str() << "\n";
  }

 private:
  double origin_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> samples_;
};

/// The counter a stage span carries (see RePaGer::Generate), or 0.
double SpanValue(const rpg::obs::SpanSet& spans, Stage stage) {
  for (uint32_t i = 0; i < spans.count; ++i) {
    if (spans.spans[i].stage == stage) {
      return static_cast<double>(spans.spans[i].value);
    }
  }
  return 0.0;
}

/// Per-layer metric name of each pipeline stage's time.
struct StageMetric {
  Stage stage;
  const char* name;
};
constexpr StageMetric kStageMetrics[] = {
    {Stage::kSearch, "search.search_ms"},
    {Stage::kKhop, "graph.khop_ms"},
    {Stage::kSubgraph, "graph.subgraph_ms"},
    {Stage::kSeedRealloc, "core.realloc_ms"},
    {Stage::kEdgeCost, "rank.edge_cost_ms"},
    {Stage::kSteiner, "steiner.solve_ms"},
    {Stage::kReadingPath, "core.reading_path_ms"},
    {Stage::kRank, "core.rank_ms"},
};
static_assert(std::size(kStageMetrics) == rpg::obs::kNumPipelineStages);

}  // namespace

rpg::Result<std::vector<Metric>> TraceLayers(ServingStack& stack,
                                             const std::vector<QueryKey>& keys,
                                             const std::vector<size_t>& sample,
                                             const std::string& spans_path) {
  if (!rpg::obs::kTracingCompiledIn) {
    return rpg::Status::FailedPrecondition(
        "pipeline stage spans are compiled out (RPG_TRACING=OFF)");
  }
  rpg::obs::SetTracingEnabled(true);
  const rpg::core::RePaGer& repager = stack.epoch->repager();
  Recorder rec(NowSeconds());
  rpg::ui::HttpClient client;
  RPG_RETURN_NOT_OK(client.Connect(stack.port));
  rpg::core::QueryScratch query_scratch;

  for (size_t input = 0; input < sample.size(); ++input) {
    const QueryKey& key = keys[sample[input]];
    if (!repager.Generate(key.query, key.Options(), &query_scratch).ok()) {
      return rpg::Status::Internal("traced warm-up failed: " + key.target);
    }

    stack.engine->ClearCache();
    auto fetched = rec.Time("ui.http", input, [&] {
      return client.Fetch("GET", key.target);
    });
    if (!fetched.ok() || fetched->status != 200) {
      return rpg::Status::Internal("traced fetch failed: " + key.target);
    }
    rec.Add("ui.response_bytes", static_cast<double>(fetched->body.size()));

    stack.engine->ClearCache();
    rpg::ui::HttpRequest request;
    request.method = "GET";
    request.path = "/api/path";
    request.query = {{"q", key.query}, {"seeds", std::to_string(key.seeds)}};
    if (key.year > 0) request.query["year"] = std::to_string(key.year);
    rpg::ui::HttpResponse handled = rec.Time("ui.service", input, [&] {
      return stack.service->Handle(request);
    });
    if (handled.status != 200) {
      return rpg::Status::Internal("traced Handle failed: " + key.target);
    }

    stack.engine->ClearCache();
    auto served = rec.Time("serve.generate", input, [&] {
      return stack.engine->Generate(key.query, key.seeds, key.year);
    });
    if (!served.ok()) return served.status();

    auto generated = rec.Time("core.generate", input, [&] {
      return repager.Generate(key.query, key.Options(), &query_scratch);
    });
    if (!generated.ok()) return generated.status();
    const rpg::obs::SpanSet& stages = generated->stages;
    for (const StageMetric& m : kStageMetrics) {
      rec.Add(m.name, stages.StageMs(m.stage));
    }
    rec.Add("core.stages_ms", stages.TotalMs());
    rec.Add("search.hits", static_cast<double>(generated->initial_seeds.size()));
    rec.Add("graph.subgraph_nodes", static_cast<double>(generated->subgraph_nodes));
    rec.Add("graph.subgraph_edges", static_cast<double>(generated->subgraph_edges));
    rec.Add("rank.con_evals", SpanValue(stages, Stage::kEdgeCost));
    rec.Add("steiner.nodes_settled",
            static_cast<double>(generated->steiner_stats.nodes_settled));
    rec.Add("steiner.heap_pushes",
            static_cast<double>(generated->steiner_stats.heap_pushes));
  }

  // Per-query time inside a 4-thread batch versus alone: how much the
  // pipeline slows when it shares the machine with itself.
  std::vector<rpg::core::BatchQuery> batch;
  for (size_t k : sample) {
    rpg::core::BatchQuery query;
    query.query = keys[k].query;
    query.options = keys[k].Options();
    batch.push_back(std::move(query));
  }
  rpg::core::BatchEngineOptions batch_options;
  batch_options.num_threads = kEngineThreads;
  rpg::core::BatchEngine engine(&repager, batch_options);
  rpg::core::BatchResult batched = engine.Run(batch);
  if (batched.num_ok != batch.size()) {
    return rpg::Status::Internal("traced batch had failing queries");
  }
  const double batch_ms = 1e3 * batched.sum_query_seconds /
                          static_cast<double>(batched.num_ok);

  if (!spans_path.empty()) rec.Write(spans_path);

  const double http = rec.MeanOf("ui.http_ms");
  const double service = rec.MeanOf("ui.service_ms");
  const double serve = rec.MeanOf("serve.generate_ms");
  const double core = rec.MeanOf("core.generate_ms");
  std::fprintf(stderr,
               "  pipeline stages account for %.4f of %.4f ms of "
               "core.generate (%.1f%%)\n",
               rec.MeanOf("core.stages_ms"), core,
               100.0 * rec.MeanOf("core.stages_ms") / core);

  std::vector<Metric> m = {
      {"ui.http_ms", http, "ms"},
      {"ui.service_ms", service, "ms"},
      {"ui.reactor_ms", http - service, "ms"},
      {"ui.render_ms", service - serve, "ms"},
      {"ui.response_bytes", rec.MeanOf("ui.response_bytes"), "bytes"},
      {"serve.generate_ms", serve, "ms"},
      {"serve.overhead_ms", serve - core, "ms"},
      {"core.generate_ms", core, "ms"},
      {"core.generate_cpu_ms", rec.MeanOf("core.generate_cpu_ms"), "ms"},
      {"core.batch_inflation", batch_ms / core, "ratio"},
  };
  for (const StageMetric& s : kStageMetrics) {
    m.push_back({s.name, rec.MeanOf(s.name), "ms"});
  }
  for (const char* count :
       {"search.hits", "graph.subgraph_nodes", "graph.subgraph_edges",
        "rank.con_evals", "steiner.nodes_settled", "steiner.heap_pushes"}) {
    m.push_back({count, rec.MeanOf(count), "count"});
  }
  return m;
}

}  // namespace perfbench
