#ifndef RPG_PERFBENCH_STATS_H_
#define RPG_PERFBENCH_STATS_H_

// The benchmark's own statistics and clocks. Everything here is checked
// by `rpg_perfbench --self-test` (selftest.cc).

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

namespace perfbench {

/// Fewest samples a reported percentile must leave above it.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `samples` (q in (0, 1]): the smallest value
/// with at least q * n samples at or below it. Returns NaN when fewer
/// than `min_beyond` samples lie strictly beyond that rank, so a tail
/// percentile is never read off a handful of points.
inline double Percentile(std::vector<double> samples, double q,
                         size_t min_beyond = kMinTailSamples) {
  const size_t n = samples.size();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::numeric_limits<double>::quiet_NaN();
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median: the percentile with no tail requirement.
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5, 0);
}

/// Requests per window of WindowedPercentile: enough for a p99 with
/// kMinTailSamples beyond it.
inline constexpr size_t kWindowRequests = 1000;

/// The q-percentile of each window of `window` consecutive samples (the
/// last window takes the remainder), median over windows. A run then
/// reports its typical stretch: one scheduler hiccup or one unlucky
/// connection placement moves a single window, not the result. With
/// fewer than two windows' worth of samples this is Percentile itself.
inline double WindowedPercentile(const std::vector<double>& samples, double q,
                                 size_t window = kWindowRequests) {
  const size_t windows = std::max<size_t>(1, samples.size() / window);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * window);
    auto last = w + 1 == windows
                    ? samples.end()
                    : first + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(Percentile(std::vector<double>(first, last), q));
  }
  return Percentile(std::move(per_window), 0.5, 0);
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

/// Monotonic wall clock, seconds.
inline double NowSeconds() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds consumed by the calling thread.
inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds (user + system) consumed by every thread of the process.
inline double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Server CPU per completed request: the process's CPU over the timed
/// phase minus what the load generator's own threads burned, so the
/// client's parsing and syscalls are not billed to the server.
inline double ServerCpuMsPerRequest(double process_cpu_s, double generator_cpu_s,
                                    uint64_t completed) {
  if (completed == 0) return std::numeric_limits<double>::quiet_NaN();
  return 1e3 * (process_cpu_s - generator_cpu_s) / static_cast<double>(completed);
}

/// Resident set size of this process in MiB (VmRSS), or NaN.
inline double ResidentMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::numeric_limits<double>::quiet_NaN();
  char line[256];
  double kib = std::numeric_limits<double>::quiet_NaN();
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench

#endif  // RPG_PERFBENCH_STATS_H_
