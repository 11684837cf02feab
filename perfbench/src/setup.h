#ifndef RPG_PERFBENCH_SETUP_H_
#define RPG_PERFBENCH_SETUP_H_

// The workloads and the serving stack they drive: a snapshot-loaded
// serve::Epoch, then serve::ServeEngine, then ui::RePagerService, then
// ui::HttpServer on a loopback port, built the way serve_ui builds it.

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/epoch.h"
#include "serve/serve_engine.h"
#include "surveybank/survey_bank.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace perfbench {

/// One traffic mix. Rates are fixed here, never calibrated per run.
struct WorkloadSpec {
  std::string name;
  /// GET /api/path requests per second (constant arrival), every one a
  /// distinct cache key.
  double get_rate = 0.0;
  /// Seconds between POST /api/admin/reload calls of the serving
  /// snapshot during the timed phase; 0 = no reloads.
  double reload_interval_s = 0.0;
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// One serving request: the /api/path parameters and its request target.
struct QueryKey {
  std::string query;
  int seeds = 0;
  int year = 0;  ///< 0 = no year cutoff (the parameter is left out)
  std::string target;

  /// The pipeline options the server resolves these parameters to.
  rpg::core::RePagerOptions Options() const {
    rpg::core::RePagerOptions options;
    options.num_initial_seeds = seeds;
    if (year > 0) options.year_cutoff = year;
    return options;
  }
};

/// Every distinct serving key SurveyBank yields: each survey's query at
/// seeds {10, 20, 30, 40, 50}, with the survey's year as cutoff and with
/// none, deduplicated by serve::CanonicalQueryKey, in bank order.
std::vector<QueryKey> AllKeys(const rpg::surveybank::SurveyBank& bank);

/// The running server. Destruction stops the server before the service
/// and engine it calls into go away.
struct ServingStack {
  rpg::serve::EpochHandle epoch;
  std::unique_ptr<rpg::serve::ServeEngine> engine;
  std::unique_ptr<rpg::ui::RePagerService> service;
  std::unique_ptr<rpg::ui::HttpServer> server;
  int port = 0;

  ServingStack() = default;
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;
  ~ServingStack();
};

/// Engine workers and reactor pollers of the served stack.
inline constexpr int kEngineThreads = 4;
inline constexpr int kPollers = 2;

struct SetupResult {
  std::unique_ptr<ServingStack> stack;
  std::vector<QueryKey> keys;
  /// The snapshot the stack booted from.
  std::string snapshot_path;
  uint64_t snapshot_bytes = 0;
  double seconds = 0.0;   ///< start of set-up to server ready
  double write_ms = 0.0;  ///< WriteSnapshot
  double load_ms = 0.0;   ///< LoadEpochFromSnapshot, full audit included
};

/// Builds the substrate, writes its snapshot into `dir`, loads the
/// serving epoch with its full checksum audit, and starts the stack.
rpg::Result<SetupResult> SetUp(const std::string& dir);

}  // namespace perfbench

#endif  // RPG_PERFBENCH_SETUP_H_
