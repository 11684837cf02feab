#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "stats.h"

namespace perfbench {
namespace {

/// Lead time between spawning the generator threads and the first
/// intended send, so thread start-up is not charged to request 0.
constexpr double kStartLeadSeconds = 0.05;

void SleepUntil(double t_s) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_s);
  ts.tv_nsec = static_cast<long>((t_s - static_cast<double>(ts.tv_sec)) * 1e9);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

struct StreamState {
  std::atomic<size_t> next{0};
  std::atomic<size_t> failed{0};
};

void GeneratorThread(const Stream& stream, size_t conn, double t0,
                     StreamState* state, StreamResult* out,
                     std::atomic<double>* cpu_total) {
  // The default 50 us timer slack would show up as generator lag on
  // every sub-millisecond request.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const double cpu_start = ThreadCpuSeconds();
  size_t in_session = 0;
  for (;;) {
    const size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= stream.at_s.size()) break;
    const double due = t0 + stream.at_s[i];
    const double free_at = NowSeconds();
    if (free_at < due) SleepUntil(due);
    const double sent = NowSeconds();
    const bool ok = stream.exchange(conn, i);
    const double done = NowSeconds();
    out->latency_ms[i] =
        ok ? 1e3 * (done - due) : std::numeric_limits<double>::infinity();
    out->gen_lag_ms[i] = 1e3 * (sent - std::max(due, free_at));
    out->backlog_ms[i] = 1e3 * std::max(0.0, free_at - due);
    if (!ok) state->failed.fetch_add(1, std::memory_order_relaxed);
    if (stream.session_requests > 0 && ++in_session == stream.session_requests) {
      in_session = 0;
      if (stream.reopen) stream.reopen(conn);
    }
  }
  const double used = ThreadCpuSeconds() - cpu_start;
  double seen = cpu_total->load();
  while (!cpu_total->compare_exchange_weak(seen, seen + used)) {
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<Stream>& streams) {
  OpenLoopResult result;
  result.streams.resize(streams.size());
  std::vector<StreamState> states(streams.size());
  std::atomic<double> cpu_total{0.0};
  for (size_t s = 0; s < streams.size(); ++s) {
    const size_t n = streams[s].at_s.size();
    result.streams[s].latency_ms.assign(n, 0.0);
    result.streams[s].gen_lag_ms.assign(n, 0.0);
    result.streams[s].backlog_ms.assign(n, 0.0);
  }
  const double t0 = NowSeconds() + kStartLeadSeconds;
  std::vector<std::thread> threads;
  for (size_t s = 0; s < streams.size(); ++s) {
    for (size_t c = 0; c < streams[s].connections; ++c) {
      threads.emplace_back(GeneratorThread, std::cref(streams[s]), c, t0,
                           &states[s], &result.streams[s], &cpu_total);
    }
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = NowSeconds() - t0;

  const double check_cpu_start = ThreadCpuSeconds();
  for (size_t s = 0; s < streams.size(); ++s) {
    StreamResult& out = result.streams[s];
    out.failed = states[s].failed.load();
    if (!streams[s].check) continue;
    for (size_t i = 0; i < out.latency_ms.size(); ++i) {
      if (std::isinf(out.latency_ms[i]) || streams[s].check(i)) continue;
      out.latency_ms[i] = std::numeric_limits<double>::infinity();
      ++out.failed;
    }
  }
  result.generator_cpu_s =
      cpu_total.load() + (ThreadCpuSeconds() - check_cpu_start);
  return result;
}

BodyStore::BodyStore(size_t slots) : size_(slots, 0) {
  if (slots == 0) return;
  void* p = ::mmap(nullptr, slots * kSlotBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  base_ = p == MAP_FAILED ? nullptr : static_cast<char*>(p);
}

BodyStore::~BodyStore() {
  if (base_ != nullptr) ::munmap(base_, size_.size() * kSlotBytes);
}

bool BodyStore::Put(size_t i, std::string_view body) {
  if (base_ == nullptr || i >= size_.size() || body.size() > kSlotBytes) {
    return false;
  }
  std::memcpy(base_ + i * kSlotBytes, body.data(), body.size());
  size_[i] = body.size();
  return true;
}

std::string_view BodyStore::Get(size_t i) const {
  if (base_ == nullptr || i >= size_.size()) return {};
  return {base_ + i * kSlotBytes, size_[i]};
}

std::string UrlEncode(const std::string& s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.' ||
        c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

RawClient::~RawClient() { Close(); }

void RawClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

rpg::Status RawClient::Connect(int port) {
  Close();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return rpg::Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return rpg::Status::IoError("connect() failed");
  }
  fd_ = fd;
  return rpg::Status::OK();
}

std::string RawClient::Get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

std::string RawClient::Post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

rpg::Status RawClient::Send(const std::string& bytes) {
  if (fd_ < 0) return rpg::Status::FailedPrecondition("not connected");
  for (size_t sent = 0; sent < bytes.size();) {
    ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return rpg::Status::IoError("send() failed");
    }
    sent += static_cast<size_t>(n);
  }
  return rpg::Status::OK();
}

rpg::Result<rpg::ui::ClientResponse> RawClient::Receive() {
  char chunk[16384];
  for (;;) {
    rpg::ui::ResponseParseResult parsed = rpg::ui::ParseHttpResponse(buffer_);
    if (parsed.verdict == rpg::ui::ResponseParseResult::Verdict::kResponse) {
      buffer_.erase(0, parsed.consumed);
      return std::move(parsed.response);
    }
    if (parsed.verdict == rpg::ui::ResponseParseResult::Verdict::kError) {
      Close();
      return rpg::Status::IoError("bad response: " + parsed.error);
    }
    if (fd_ < 0) return rpg::Status::FailedPrecondition("not connected");
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return rpg::Status::IoError("connection closed");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
