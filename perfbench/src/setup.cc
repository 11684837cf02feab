#include "setup.h"

#include <filesystem>
#include <unordered_set>

#include "eval/workbench.h"
#include "loadgen.h"
#include "serve/query_cache.h"
#include "snapshot/snapshot_writer.h"
#include "stats.h"

namespace perfbench {

// Rates come from a prototype on a 4-core machine. Cold's open-loop
// saturation is about 170 req/s; at 60 req/s queries rarely overlap and
// every batch holds one query. Reload adds a reload every 1.5 s to
// cold's traffic: 20 per run, each holding one poller for the load and
// audit while the other keeps serving; every key is new, so a flip
// costs no miss burst.
const WorkloadSpec* FindWorkload(const std::string& name) {
  static const WorkloadSpec kWorkloads[] = {
      {"cold", 60.0, 0.0},
      {"reload", 60.0, 1.5},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<QueryKey> AllKeys(const rpg::surveybank::SurveyBank& bank) {
  std::vector<QueryKey> keys;
  std::unordered_set<std::string> seen;
  for (const rpg::surveybank::SurveyEntry& entry : bank.entries()) {
    for (int year : {static_cast<int>(entry.year), 0}) {
      for (int seeds : {10, 20, 30, 40, 50}) {
        if (!seen.insert(rpg::serve::CanonicalQueryKey(entry.query, seeds, year))
                 .second) {
          continue;
        }
        QueryKey key{entry.query, seeds, year, ""};
        key.target = "/api/path?q=" + UrlEncode(key.query) +
                     "&seeds=" + std::to_string(seeds);
        if (year > 0) key.target += "&year=" + std::to_string(year);
        keys.push_back(std::move(key));
      }
    }
  }
  return keys;
}

ServingStack::~ServingStack() {
  if (server) server->Stop();
}

rpg::Result<SetupResult> SetUp(const std::string& dir) {
  const double start = NowSeconds();
  SetupResult out;
  out.snapshot_path = (std::filesystem::path(dir) / "corpus.snap").string();
  {
    // The substrate is built, persisted and dropped, as an offline
    // snapshot build would; the server boots from the file alone.
    rpg::eval::WorkbenchOptions options;
    RPG_ASSIGN_OR_RETURN(std::unique_ptr<rpg::eval::Workbench> wb,
                         rpg::eval::Workbench::Create(options));
    rpg::snapshot::SnapshotInput input;
    input.graph = &wb->corpus().citations;
    input.titles = &wb->titles();
    input.years = &wb->years();
    input.pagerank = &wb->pagerank();
    input.venue_scores = &wb->venue_scores();
    input.engine = &wb->google();
    input.matcher = &wb->matcher();
    input.params = options.params;
    input.corpus_seed = options.corpus.seed;
    const double write_start = NowSeconds();
    RPG_RETURN_NOT_OK(rpg::snapshot::WriteSnapshot(input, out.snapshot_path));
    out.write_ms = 1e3 * (NowSeconds() - write_start);
    out.keys = AllKeys(wb->bank());
  }
  out.snapshot_bytes = std::filesystem::file_size(out.snapshot_path);

  auto stack = std::make_unique<ServingStack>();
  const double load_start = NowSeconds();
  RPG_ASSIGN_OR_RETURN(stack->epoch,
                       rpg::serve::LoadEpochFromSnapshot(out.snapshot_path, 1));
  out.load_ms = 1e3 * (NowSeconds() - load_start);
  rpg::serve::ServeEngineOptions engine_options;
  engine_options.num_threads = kEngineThreads;
  stack->engine =
      std::make_unique<rpg::serve::ServeEngine>(stack->epoch, engine_options);
  stack->service = std::make_unique<rpg::ui::RePagerService>(stack->engine.get());
  rpg::ui::HttpServerOptions http_options;
  http_options.num_pollers = kPollers;
  rpg::ui::RePagerService* service = stack->service.get();
  stack->server = std::make_unique<rpg::ui::HttpServer>(
      [service](const rpg::ui::HttpRequest& request,
                rpg::ui::HttpServer::Done done) {
        service->HandleAsync(request, std::move(done));
      },
      http_options);
  stack->service->AttachServer(stack->server.get());
  RPG_ASSIGN_OR_RETURN(stack->port, stack->server->Start(0));

  out.stack = std::move(stack);
  out.seconds = NowSeconds() - start;
  return out;
}

}  // namespace perfbench
