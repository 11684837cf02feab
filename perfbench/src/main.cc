// rpg_perfbench: the serving benchmark. Boots the real serving stack in
// this process (snapshot-loaded epoch -> ServeEngine -> RePagerService ->
// HttpServer on loopback) and drives GET /api/path with an open-loop,
// constant-arrival schedule over keep-alive connections, checking every
// answer against serial RePaGer::Generate on the serving epoch.
//
//   rpg_perfbench --workload cold|reload --seed N --seconds S
//                 --trace 0|1 [--workdir DIR] [--spans FILE]
//   rpg_perfbench --self-test
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same timed
// phase and then a serial traced replay, and prints the per-layer
// metrics. The last line of stdout is the result as one JSON object;
// the human-readable report goes to stderr. Exit status is non-zero when
// any request failed or answered wrongly, or when the generator, not the
// server, fell behind its schedule. See perfbench/README.md.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "answer.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/query_cache.h"
#include "setup.h"
#include "stats.h"

namespace perfbench {
int RunSelfTests();
}

namespace {

using namespace perfbench;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRuns = 3;
/// Connections (one generator thread each) the load may use: all GETs,
/// or three GETs and one reload stream.
constexpr size_t kConnections = 4;
/// Requests per connection before it is reopened.
constexpr size_t kSessionRequests = 50;
/// Idle reloads measured after the timed phase of workloads that do not
/// reload under load.
constexpr size_t kProbeReloads = 21;
/// Requests replayed by the traced run.
constexpr size_t kTraceSample = 40;
/// The run is invalid when the generator's own lateness reaches these.
constexpr double kMaxGenLagP50Ms = 0.5;
constexpr double kMaxGenLagP99Ms = 10.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string workdir = ".bench_build/perfbench-run";
  std::string spans;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return args->self_test || (!args->workload.empty() && args->seconds > 0 &&
                             (args->trace == 0 || args->trace == 1));
}

/// Shuffles `v` in place with `rng` (Fisher-Yates).
void Shuffle(std::vector<size_t>* v, rpg::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(i)]);
  }
}

/// Serial RePaGer::Generate answers for the `wanted` keys on `epoch`,
/// four keys at a time. Returns false when any key fails to generate.
bool ExpectedAnswers(const rpg::serve::Epoch& epoch,
                     const std::vector<QueryKey>& keys,
                     const std::vector<size_t>& wanted,
                     std::vector<std::string>* out) {
  out->assign(keys.size(), std::string());
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < wanted.size();) {
        const QueryKey& key = keys[wanted[i]];
        auto result = epoch.repager().Generate(key.query, key.Options());
        if (!result.ok()) {
          std::fprintf(stderr, "expected answer failed for %s: %s\n",
                       key.target.c_str(), result.status().ToString().c_str());
          ok = false;
          continue;
        }
        (*out)[wanted[i]] = AnswerFromResult(*result, epoch);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ok.load();
}

struct BatcherCounts {
  double requests = 0.0;
  double batches = 0.0;
};

BatcherCounts ReadBatcher(const rpg::serve::ServeEngine& engine) {
  BatcherCounts counts;
  if (auto doc = ParseJson(engine.StatsJson())) {
    if (const Json* b = doc->Find("batcher")) {
      counts.requests = b->Number("requests");
      counts.batches = b->Number("batches");
    }
  }
  return counts;
}

bool ReloadOk(const rpg::Result<rpg::ui::ClientResponse>& response) {
  if (!response.ok() || response->status != 200) return false;
  auto doc = ParseJson(response->body);
  const Json* reloaded = doc ? doc->Find("reloaded") : nullptr;
  return reloaded != nullptr && reloaded->boolean;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  rpg::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").UInt(attempted);
  w.Key("failed").UInt(failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool reloads_under_load = spec->reload_interval_s > 0;
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
    return 2;
  }
  // Declared before the stack, so the snapshot goes after the server.
  struct RemoveOnExit {
    std::string dir;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } remove_workdir{args.workdir};

  // ---- Set-up, several times in this process; the last one serves the
  // run. Only the first starts from a fresh process.
  std::vector<double> setup_s, write_ms, load_ms;
  SetupResult live;
  for (int r = 0; r < kSetupRuns; ++r) {
    auto setup = SetUp(args.workdir);
    if (!setup.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(setup->seconds);
    write_ms.push_back(setup->write_ms);
    load_ms.push_back(setup->load_ms);
    live = std::move(setup).value();
    if (r + 1 < kSetupRuns) {
      // Hand the freed substrate back, so rss_mib sees the live stack only.
      live.stack.reset();
      malloc_trim(0);
    }
  }
  ServingStack& stack = *live.stack;
  const std::vector<QueryKey>& keys = live.keys;

  // ---- Inputs, all from --seed: the same keys in every run (a fixed
  // draw), in a seeded order.
  const size_t num_gets =
      static_cast<size_t>(std::llround(spec->get_rate * args.seconds));
  if (num_gets > keys.size()) {
    std::fprintf(stderr, "%s needs %zu distinct keys, SurveyBank has %zu\n",
                 spec->name.c_str(), num_gets, keys.size());
    return 2;
  }
  std::vector<size_t> key_of(keys.size());
  for (size_t k = 0; k < key_of.size(); ++k) key_of[k] = k;
  rpg::Rng fixed(0xc01dULL);
  Shuffle(&key_of, &fixed);
  key_of.resize(num_gets);
  rpg::Rng rng(args.seed);
  Shuffle(&key_of, &rng);

  // ---- Expected answers: serial Generate on the serving epoch.
  std::vector<std::string> expected;
  if (!ExpectedAnswers(*stack.epoch, keys, key_of, &expected)) return 1;

  // ---- Timed phase.
  const size_t get_connections = kConnections - (reloads_under_load ? 1 : 0);
  std::vector<std::unique_ptr<RawClient>> clients;
  for (size_t c = 0; c < get_connections; ++c) {
    clients.push_back(std::make_unique<RawClient>());
    if (!clients.back()->Connect(stack.port).ok()) return 1;
  }
  auto bodies = std::make_unique<BodyStore>(num_gets);
  std::atomic<uint64_t> wrong{0};
  Stream gets;
  for (size_t i = 0; i < num_gets; ++i) {
    gets.at_s.push_back(static_cast<double>(i) / spec->get_rate);
  }
  gets.connections = get_connections;
  gets.session_requests = kSessionRequests;
  gets.exchange = [&](size_t conn, size_t i) {
    RawClient& client = *clients[conn];
    rpg::Result<rpg::ui::ClientResponse> response =
        rpg::Status::IoError("send failed");
    if (client.Send(RawClient::Get(keys[key_of[i]].target)).ok()) {
      response = client.Receive();
    }
    if (!response.ok() || response->status != 200) {
      (void)client.Connect(stack.port);
      return false;
    }
    if (!bodies->Put(i, response->body)) {
      std::fprintf(stderr, "response of %zu bytes exceeds a body slot\n",
                   response->body.size());
      return false;
    }
    return true;
  };
  gets.check = [&](size_t i) {
    auto answer = AnswerFromBody(bodies->Get(i));
    if (answer && *answer == expected[key_of[i]]) return true;
    wrong.fetch_add(1);
    return false;
  };
  gets.reopen = [&](size_t conn) { (void)clients[conn]->Connect(stack.port); };
  std::vector<Stream> streams;
  streams.push_back(std::move(gets));

  RawClient admin;
  auto post_reload = [&]() -> rpg::Result<rpg::ui::ClientResponse> {
    RPG_RETURN_NOT_OK(admin.Connect(stack.port));
    RPG_RETURN_NOT_OK(
        admin.Send(RawClient::Post("/api/admin/reload", live.snapshot_path)));
    return admin.Receive();
  };
  std::vector<rpg::Result<rpg::ui::ClientResponse>> reloaded;
  if (reloads_under_load) {
    Stream reloads;
    const size_t n = static_cast<size_t>(args.seconds / spec->reload_interval_s);
    for (size_t j = 0; j < n; ++j) {
      reloads.at_s.push_back((static_cast<double>(j) + 0.5) *
                             spec->reload_interval_s);
    }
    reloaded.assign(n, rpg::Status::Internal("not sent"));
    reloads.connections = 1;
    reloads.exchange = [&](size_t, size_t j) {
      reloaded[j] = post_reload();
      return reloaded[j].ok();
    };
    reloads.check = [&](size_t j) { return ReloadOk(reloaded[j]); };
    streams.push_back(std::move(reloads));
  }

  const rpg::serve::QueryCacheStats cache_before = stack.engine->cache().Stats();
  const BatcherCounts batcher_before = ReadBatcher(*stack.engine);
  const double cpu_before = ProcessCpuSeconds();
  OpenLoopResult load = RunOpenLoop(streams);
  const double cpu_after = ProcessCpuSeconds();
  bodies.reset();
  const double rss_mib = ResidentMiB();
  const rpg::serve::QueryCacheStats cache_after = stack.engine->cache().Stats();
  const BatcherCounts batcher_after = ReadBatcher(*stack.engine);

  const StreamResult& get_result = load.streams[0];
  uint64_t attempted = num_gets;
  uint64_t failed = get_result.failed;
  std::vector<double> reload_ms;
  if (reloads_under_load) {
    const StreamResult& r = load.streams[1];
    attempted += r.latency_ms.size();
    failed += r.failed;
    reload_ms = r.latency_ms;
  }
  const uint64_t completed = attempted - failed;
  const double lag_p50 = Median(get_result.gen_lag_ms);
  const double lag_p99 = Percentile(get_result.gen_lag_ms, 0.99, 0);
  const bool generator_kept_up =
      lag_p50 <= kMaxGenLagP50Ms && lag_p99 <= kMaxGenLagP99Ms;

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    if (!reloads_under_load) {
      // Reload latency of an idle server, for workloads whose traffic
      // has no reloads of its own.
      for (size_t j = 0; j < kProbeReloads; ++j) {
        const double start = NowSeconds();
        auto response = post_reload();
        const double done = NowSeconds();
        const bool ok = ReloadOk(response);
        reload_ms.push_back(ok ? 1e3 * (done - start)
                               : std::numeric_limits<double>::infinity());
        ++attempted;
        if (!ok) ++failed;
      }
    }
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_ms", WindowedPercentile(get_result.latency_ms, 0.50), "ms"},
        {"p90_ms", WindowedPercentile(get_result.latency_ms, 0.90), "ms"},
        {"p99_ms", WindowedPercentile(get_result.latency_ms, 0.99), "ms"},
        {"cpu_ms_per_req",
         ServerCpuMsPerRequest(cpu_after - cpu_before, load.generator_cpu_s,
                               completed),
         "ms"},
        {"rss_mib", rss_mib, "MiB"},
        {"reload_p50_ms", Median(reload_ms), "ms"},
    };
  } else {
    std::vector<size_t> sample(key_of.begin(),
                               key_of.begin() + std::min(kTraceSample, num_gets));
    auto layers = TraceLayers(stack, keys, sample, args.spans);
    if (!layers.ok()) {
      std::fprintf(stderr, "traced run: %s\n",
                   layers.status().ToString().c_str());
      return 1;
    }
    metrics = std::move(layers).value();
    const double lookups = static_cast<double>(
        (cache_after.hits - cache_before.hits) +
        (cache_after.misses - cache_before.misses));
    const double batches = batcher_after.batches - batcher_before.batches;
    metrics.insert(
        metrics.end(),
        {
            {"serve.cache_hit_rate",
             lookups > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) / lookups
                         : 0.0,
             "ratio"},
            {"serve.mean_batch_size",
             batches > 0 ? (batcher_after.requests - batcher_before.requests) / batches
                         : 0.0,
             "count"},
            {"snapshot.write_ms", Median(write_ms), "ms"},
            {"snapshot.load_ms", Median(load_ms), "ms"},
            {"snapshot.bytes", static_cast<double>(live.snapshot_bytes), "bytes"},
            {"bench.send_lag_p50_ms", lag_p50, "ms"},
            {"bench.send_lag_p99_ms", lag_p99, "ms"},
            {"bench.run_p99_ms", Percentile(get_result.latency_ms, 0.99), "ms"},
        });
  }

  bool measured = true;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "%s could not be measured (too few samples?)\n",
                   m.name.c_str());
      measured = false;
    }
  }
  const bool correct = failed == 0 && generator_kept_up && measured;
  std::fprintf(
      stderr,
      "perfbench %s seed=%llu: %zu GETs at %.0f req/s over %.2f s on %zu "
      "connections (sessions of %zu requests)%s; %zu keys available\n"
      "  generator shares the machine's cores with %d engine workers, %d "
      "pollers and the batch dispatcher\n"
      "  failed %llu (wrong answers %llu) of %llu attempted, error_rate %.6f\n"
      "  send lag p50 %.4f ms p99 %.4f ms%s; max backlog %.3f ms\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed), num_gets,
      spec->get_rate, load.wall_s, get_connections, kSessionRequests,
      reloads_under_load ? ", plus reloads" : "", keys.size(), kEngineThreads,
      kPollers,
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(wrong.load()),
      static_cast<unsigned long long>(attempted),
      static_cast<double>(failed) / static_cast<double>(attempted), lag_p50,
      lag_p99, generator_kept_up ? "" : " -- INVALID: the generator fell behind",
      *std::max_element(get_result.backlog_ms.begin(),
                        get_result.backlog_ms.end()));
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-30s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }

  clients.clear();
  live.stack.reset();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rpg_perfbench --workload cold|reload --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR] [--spans FILE]\n"
                 "       rpg_perfbench --self-test\n");
    return 2;
  }
  if (args.self_test) return perfbench::RunSelfTests();
  return Run(args);
}
