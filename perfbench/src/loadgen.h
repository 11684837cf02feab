#ifndef RPG_PERFBENCH_LOADGEN_H_
#define RPG_PERFBENCH_LOADGEN_H_

// Open-loop load generation with a constant-arrival schedule. Each
// request has an intended send time fixed before the run; its latency
// is measured from that time, not from when it actually went out, so a
// stall in the server delays (and is charged to) every request due
// during the stall instead of silently thinning the load (coordinated
// omission; Tene, "How NOT to measure latency").
//
// A stream owns `connections` blocking connections, one generator
// thread each. A free thread claims the next request in schedule order
// and sleeps until it is due; a request waits only when every
// connection of its stream is busy. That wait is recorded as backlog,
// and the thread's own wake-up lateness as generator lag, so a run can
// tell a slow server from a slow generator. A request's latency ends
// when its response is in; checking the response waits until every
// request is done, so it neither lengthens a latency nor keeps a
// connection busy.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "ui/http_client.h"

namespace perfbench {

struct Stream {
  /// Intended send offsets in seconds from the common start, ascending.
  std::vector<double> at_s;
  size_t connections = 1;
  /// Each connection is closed and reopened after this many requests
  /// (0 = never), so which server poller owns it is re-drawn many times
  /// per run instead of once.
  size_t session_requests = 0;
  /// Performs request `index` on connection `conn` and returns whether
  /// a response came back. It keeps the response for `check`.
  std::function<bool(size_t conn, size_t index)> exchange;
  /// Checks the kept response of request `index`; called once per
  /// answered request after the whole schedule is done (may be empty).
  std::function<bool(size_t index)> check;
  /// Reopens connection `conn` (called between sessions; may be empty).
  std::function<void(size_t conn)> reopen;
};

struct StreamResult {
  /// Per request, from intended send to response; +inf when it failed
  /// or its check did.
  std::vector<double> latency_ms;
  /// Per request, how late its thread sent it after being free to.
  std::vector<double> gen_lag_ms;
  /// Per request, how long it waited for a free connection.
  std::vector<double> backlog_ms;
  size_t failed = 0;
};

struct OpenLoopResult {
  std::vector<StreamResult> streams;
  /// CPU burned by all generator threads and by the checks
  /// (CLOCK_THREAD_CPUTIME_ID): the client's work, not the server's.
  double generator_cpu_s = 0.0;
  /// First intended send to last response; the checks come after.
  double wall_s = 0.0;
};

/// Runs every stream concurrently from one common start time, then
/// checks every answered request. Starts sum(connections) threads.
OpenLoopResult RunOpenLoop(const std::vector<Stream>& streams);

/// Response bodies kept until they are checked, one fixed-size slot per
/// request in anonymous memory mapped for the purpose. Pages are touched
/// only as bodies are written and are given back when the store is
/// destroyed, so the resident set read after it is gone is the server's.
class BodyStore {
 public:
  static constexpr size_t kSlotBytes = 256 * 1024;

  explicit BodyStore(size_t slots);
  ~BodyStore();
  BodyStore(const BodyStore&) = delete;
  BodyStore& operator=(const BodyStore&) = delete;

  /// Keeps `body` as slot `i`'s; false when it does not fit a slot.
  bool Put(size_t i, std::string_view body);
  /// Slot `i`'s body (empty until Put).
  std::string_view Get(size_t i) const;

 private:
  char* base_ = nullptr;
  std::vector<size_t> size_;
};

/// Percent-encodes `s` for a URL query component.
std::string UrlEncode(const std::string& s);

/// One keep-alive HTTP/1.1 connection that writes raw request bytes and
/// reads responses in order. Unlike ui::HttpClient it can send a request
/// body (the reload route takes the snapshot path as its body), and it
/// never retries behind the caller's back, so every failure is counted.
class RawClient {
 public:
  RawClient() = default;
  ~RawClient();
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  /// (Re)connects to 127.0.0.1:`port`.
  rpg::Status Connect(int port);
  /// Writes `bytes`, one complete request.
  rpg::Status Send(const std::string& bytes);
  /// Reads the next response.
  rpg::Result<rpg::ui::ClientResponse> Receive();

  static std::string Get(const std::string& target);
  static std::string Post(const std::string& target, const std::string& body);

 private:
  void Close();
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // RPG_PERFBENCH_LOADGEN_H_
