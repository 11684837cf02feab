// Self-tests of the benchmark's own statistics, run by
// `rpg_perfbench --self-test` (perfbench/run.py runs them before every
// measurement). Each check prints one line; any failure exits 1.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "answer.h"
#include "common/rng.h"
#include "loadgen.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::fprintf(stderr, "self-test %s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void BurnCpu(double seconds) {
  const double until = ThreadCpuSeconds() + seconds;
  volatile double sink = 0.0;
  while (ThreadCpuSeconds() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + std::sqrt(i + sink);
  }
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  rpg::Rng rng(7);
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.NextBounded(i)]);
  Check(Percentile(v, 0.99) == 990.0, "p99 of 1..1000 is 990, 10 samples beyond");
  Check(Percentile(v, 0.50) == 500.0 && Median(v) == 500.0, "p50 of 1..1000 is 500");
  Check(Percentile(v, 0.90) == 900.0, "p90 of 1..1000 is 900");
  v.pop_back();
  Check(std::isnan(Percentile(v, 0.99)), "p99 of 999 samples is refused (9 beyond)");
  Check(!std::isnan(Percentile(v, 0.98)), "p98 of 999 samples is allowed");
  std::vector<double> with_failure = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                      std::numeric_limits<double>::infinity()};
  Check(Percentile(with_failure, 0.5, 0) == 6.0, "a failed request ranks above every latency");

  std::vector<double> runs;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 1000; ++i) runs.push_back(w == 2 ? 100.0 * i : i);
  }
  Check(WindowedPercentile(runs, 0.99) == 990.0,
        "one stalled window of five does not move the windowed p99");
  runs.resize(1999);
  Check(WindowedPercentile(runs, 0.99) == Percentile(runs, 0.99),
        "under two windows' worth, the windowed p99 is the plain p99");
}

void TestIntendedSend() {
  // One connection, a request due every 5 ms, and a 100 ms stall on
  // request 4. Requests due during the stall must be charged the wait
  // from their intended send time, not timed from when they got out.
  Stream s;
  for (int i = 0; i < 40; ++i) s.at_s.push_back(0.005 * i);
  s.connections = 1;
  s.exchange = [](size_t, size_t i) {
    if (i == 4) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return true;
  };
  OpenLoopResult r = RunOpenLoop({s});
  const StreamResult& out = r.streams[0];
  Check(out.latency_ms[4] >= 100.0, "the stalled request takes the stall");
  Check(out.latency_ms[5] >= 90.0, "the next request is charged the stall (~95 ms)");
  Check(out.latency_ms[20] >= 15.0 && out.backlog_ms[20] >= 15.0,
        "a request due 80 ms into the stall waits ~20 ms, as backlog");
  Check(out.latency_ms[30] < 50.0 && out.backlog_ms[30] == 0.0,
        "latency recovers once the backlog drains");
  Check(Median(out.gen_lag_ms) < 10.0, "the generator itself was on time");
  Check(out.failed == 0, "no request failed");
}

void TestCheckOutsideLatency() {
  // Instant exchanges every 2 ms and a checker that takes 20 ms each. Run
  // inside the timed interval, the checks would build a backlog of
  // ~18 ms per request; after it, they change no latency. A failed
  // check still fails its request.
  Stream s;
  for (int i = 0; i < 20; ++i) s.at_s.push_back(0.002 * i);
  s.connections = 1;
  s.exchange = [](size_t, size_t) { return true; };
  size_t checked = 0;
  s.check = [&](size_t i) {
    ++checked;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return i != 3;
  };
  OpenLoopResult r = RunOpenLoop({s});
  const StreamResult& out = r.streams[0];
  double worst = 0.0;
  for (size_t i = 0; i < out.latency_ms.size(); ++i) {
    if (i != 3) worst = std::max(worst, out.latency_ms[i]);
  }
  Check(checked == 20, "every answered request is checked once");
  Check(worst < 15.0, "a 20 ms checker adds nothing to any latency");
  Check(r.wall_s < 0.2, "the timed phase ends before the checks");
  Check(std::isinf(out.latency_ms[3]) && out.failed == 1,
        "a failed check fails its request");

  BodyStore bodies(3);
  const std::string big(BodyStore::kSlotBytes + 1, 'x');
  Check(bodies.Put(1, "{\"a\":1}") && bodies.Get(1) == "{\"a\":1}" &&
            bodies.Get(0).empty() && !bodies.Put(2, big) && !bodies.Put(3, "x"),
        "kept bodies read back; oversized or out-of-range ones are refused");
}

void TestCpuSubtraction() {
  Check(std::fabs(ServerCpuMsPerRequest(2.0, 0.5, 1000) - 1.5) < 1e-12,
        "(2.0 s process - 0.5 s generator) / 1000 requests = 1.5 ms");
  // A generator thread burns 120 ms, a server thread 60 ms: only the
  // server's share may remain.
  const double process0 = ProcessCpuSeconds();
  double generator_s = 0.0;
  std::thread generator([&] {
    const double start = ThreadCpuSeconds();
    BurnCpu(0.12);
    generator_s = ThreadCpuSeconds() - start;
  });
  std::thread server([] { BurnCpu(0.06); });
  generator.join();
  server.join();
  const double server_ms = ServerCpuMsPerRequest(
      ProcessCpuSeconds() - process0, generator_s, 1);
  Check(server_ms > 50.0 && server_ms < 90.0,
        "a 60 ms server thread measures 50-90 ms beside a 120 ms generator");
}

void TestAnswers() {
  const char* body =
      "{\"query\":\"a\",\"subgraph_nodes\":5,\"subgraph_edges\":7,"
      "\"seconds\":0.01,\"serve_seconds\":1e-05,\"cache_hit\":true,"
      "\"nodes\":[{\"id\":3,\"title\":\"On \\\"x\\\"\\u0021\",\"year\":1999,"
      "\"importance\":0.5,\"from_engine\":true},{\"id\":1,\"title\":\"B\","
      "\"year\":2001,\"importance\":0.25,\"from_engine\":false}],"
      "\"edges\":[{\"read_first\":3,\"read_next\":1}],\"reading_order\":[3,1]}";
  auto answer = AnswerFromBody(body);
  Check(answer.has_value() &&
            *answer == "sg=5/7|n=3:1999:1:7:On \"x\"!;1:2001:0:1:B;|e=3>1;|o=3;1;",
        "answer of a /api/path body ignores timings and cache_hit");
  std::string spaced = body;
  spaced.insert(1, " \n ");
  Check(AnswerFromBody(spaced) == answer, "whitespace does not change the answer");
  Check(!AnswerFromBody("{\"nodes\":[]}").has_value(), "a partial body has no answer");
  Check(!AnswerFromBody(std::string(body).substr(0, 40)).has_value(),
        "a truncated body has no answer");
}

}  // namespace

int RunSelfTests() {
  TestPercentiles();
  TestIntendedSend();
  TestCheckOutsideLatency();
  TestCpuSubtraction();
  TestAnswers();
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
