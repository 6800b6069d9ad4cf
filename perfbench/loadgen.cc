#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <thread>

#include "src/base/rng.h"
#include "src/http/http_parser.h"

namespace perfbench {
namespace {

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

int StatusCode(std::string_view head) {
  // "HTTP/1.1 200 OK"
  if (head.size() < 12) return 0;
  int code = 0;
  for (size_t i = 9; i < 12; ++i) {
    if (head[i] < '0' || head[i] > '9') return 0;
    code = code * 10 + (head[i] - '0');
  }
  return code;
}

// One keep-alive connection of a phase: arrivals i with i % kConnections ==
// index, sent pipelined, answered in order.
struct Connection {
  int fd = -1;
  bool broken = false;
  std::string out;
  size_t out_off = 0;
  // End offset in `out` of each request not yet handed to the socket.
  std::deque<size_t> unsent_ends;
  std::string in;
  size_t in_off = 0;
  std::deque<size_t> inflight;

  // Hands queued bytes to the socket; counts requests fully written.
  void Flush(uint64_t& written) {
    while (out_off < out.size()) {
      const ssize_t n = send(fd, out.data() + out_off, out.size() - out_off, MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<size_t>(n);
      } else {
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) broken = true;
        break;
      }
    }
    for (; !unsent_ends.empty() && unsent_ends.front() <= out_off; unsent_ends.pop_front()) {
      ++written;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }

  // Reads what the socket holds and settles every complete response.
  void Receive(const RequestPool& pool, const std::vector<Arrival>& schedule,
               PhaseResult& result) {
    char chunk[64 * 1024];
    while (true) {
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        in.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) broken = true;
      break;
    }
    const int64_t now = NowNs();
    while (!inflight.empty()) {
      const std::string_view view(in.data() + in_off, in.size() - in_off);
      auto head = dhttp::ScanMessageHead(view, 64 * 1024);
      if (!head.ok()) {
        broken = true;
        break;
      }
      if (!head->has_value() || view.size() < (*head)->head_bytes + (*head)->content_length) {
        break;
      }
      const int status = StatusCode(view);
      const std::string_view body = view.substr((*head)->head_bytes, (*head)->content_length);
      const size_t i = inflight.front();
      inflight.pop_front();
      Record& record = result.records[i];
      record.end_ns = now;
      record.verdict = ClassifyResponse(status, body, pool.at(schedule[i].request));
      if (status != 200) {
        if (body.find("syscall jail") != std::string_view::npos) ++result.jail_kills;
        if (body.find("circuit breaker open") != std::string_view::npos) ++result.breaker_fast_fails;
      }
      in_off += (*head)->head_bytes + (*head)->content_length;
    }
    if (inflight.empty() && in_off < in.size()) {
      ++result.unsolicited;
      broken = true;
    }
    if (in_off == in.size()) {
      in.clear();
      in_off = 0;
    } else if (in_off > (1u << 20)) {
      in.erase(0, in_off);
      in_off = 0;
    }
  }
};

}  // namespace

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::vector<Arrival> MakeSchedule(const RequestPool& pool, double rate_rps, double seconds,
                                  uint64_t seed) {
  dbase::Rng rng(seed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(rate_rps * seconds * 1.1) + 16);
  const double mean_gap_ns = 1e9 / rate_rps;
  const double end_ns = seconds * 1e9;
  for (double t = rng.Exponential(mean_gap_ns); t < end_ns; t += rng.Exponential(mean_gap_ns)) {
    const double uniform = rng.NextDouble();
    schedule.push_back(
        Arrival{static_cast<int64_t>(t), static_cast<uint32_t>(pool.Choose(uniform, rng.NextU64()))});
  }
  return schedule;
}

PhaseResult RunSerial(uint16_t port, const RequestPool& pool, size_t count, double seconds,
                      uint64_t seed) {
  PhaseResult result;
  const int fd = ConnectLoopback(port);
  if (fd < 0) return result;
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  // A server that stops answering ends the phase instead of hanging it.
  timeval receive_timeout{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &receive_timeout, sizeof(receive_timeout));
  dbase::Rng rng(seed);
  const int64_t deadline_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::string in;
  char chunk[64 * 1024];
  bool answered = true;
  while (answered && result.records.size() < count && NowNs() < deadline_ns) {
    const double uniform = rng.NextDouble();
    const RequestTemplate& request = pool.at(pool.Choose(uniform, rng.NextU64()));
    Record record;
    record.sched_ns = record.sent_ns = NowNs();
    if (send(fd, request.http.data(), request.http.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.http.size())) {
      break;
    }
    ++result.written;
    in.clear();
    answered = false;
    while (true) {
      auto head = dhttp::ScanMessageHead(in, 64 * 1024);
      if (!head.ok()) break;
      if (head->has_value() && in.size() >= (*head)->head_bytes + (*head)->content_length) {
        record.end_ns = NowNs();
        const size_t end = (*head)->head_bytes + (*head)->content_length;
        const std::string_view body(in.data() + (*head)->head_bytes, (*head)->content_length);
        record.verdict = ClassifyResponse(StatusCode(in), body, request);
        // Bytes past the one answer asked for are an extra answer.
        if (in.size() > end) ++result.unsolicited;
        answered = in.size() == end;
        break;
      }
      const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      in.append(chunk, static_cast<size_t>(n));
    }
    result.records.push_back(record);
  }
  close(fd);
  return result;
}

ReferenceResult RunReferenceRing(int hops, double seconds) {
  ReferenceResult result;
  // Link i carries the token from ring node i to node i + 1 (mod hops);
  // node 0 is this thread, the others are threads of their own.
  std::vector<int> write_ends, read_ends;
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  bool ok = listener >= 0 && bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
            listen(listener, hops) == 0 &&
            getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  for (int i = 0; ok && i < hops; ++i) {
    const int out = ConnectLoopback(ntohs(addr.sin_port));
    const int in = out < 0 ? -1 : accept(listener, nullptr, nullptr);
    if (out >= 0) fcntl(out, F_SETFL, fcntl(out, F_GETFL) & ~O_NONBLOCK);
    if (in >= 0) {
      int one = 1;
      setsockopt(in, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    if (out >= 0) write_ends.push_back(out);
    if (in >= 0) read_ends.push_back(in);
    ok = out >= 0 && in >= 0;
  }
  if (listener >= 0) close(listener);
  // Reads exactly one token; false on EOF or error.
  auto read_token = [](int fd, char* buf) {
    size_t got = 0;
    ssize_t n = 0;
    while (got < kReferenceBytes && (n = recv(fd, buf + got, kReferenceBytes - got, 0)) > 0) {
      got += static_cast<size_t>(n);
    }
    return got == kReferenceBytes;
  };
  std::vector<std::thread> relays;
  for (int node = 1; ok && node < hops; ++node) {
    relays.emplace_back([&, node] {
      char buf[kReferenceBytes];
      while (read_token(read_ends[static_cast<size_t>(node - 1)], buf) &&
             send(write_ends[static_cast<size_t>(node)], buf, sizeof(buf), MSG_NOSIGNAL) ==
                 static_cast<ssize_t>(sizeof(buf))) {
      }
      // Passes the end of the ring on.
      shutdown(write_ends[static_cast<size_t>(node)], SHUT_WR);
    });
  }
  if (ok) {
    char buf[kReferenceBytes] = {};
    std::vector<double> latencies;
    timespec cpu0{}, cpu1{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu0);
    const int64_t deadline_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (int64_t t0 = NowNs(); t0 < deadline_ns; t0 = NowNs()) {
      if (send(write_ends[0], buf, sizeof(buf), MSG_NOSIGNAL) != static_cast<ssize_t>(sizeof(buf)) ||
          !read_token(read_ends[static_cast<size_t>(hops - 1)], buf)) {
        break;
      }
      latencies.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu1);
    result.rounds = latencies.size();
    result.p50_us = Quantile(std::move(latencies), 0.5);
    result.cpu_us = static_cast<double>(cpu1.tv_sec - cpu0.tv_sec) * 1e6 +
                    static_cast<double>(cpu1.tv_nsec - cpu0.tv_nsec) / 1e3;
  }
  if (!write_ends.empty()) shutdown(write_ends[0], SHUT_WR);
  for (auto& relay : relays) relay.join();
  for (int fd : write_ends) close(fd);
  for (int fd : read_ends) close(fd);
  return result;
}

uint64_t PhaseResult::Count(Verdict verdict) const {
  return static_cast<uint64_t>(std::count_if(records.begin(), records.end(),
                                              [&](const Record& r) { return r.verdict == verdict; }));
}

uint64_t PhaseResult::OkWithin(double limit_us) const {
  const auto limit_ns = static_cast<int64_t>(limit_us * 1000);
  return static_cast<uint64_t>(std::count_if(records.begin(), records.end(), [&](const Record& r) {
    return r.verdict == Verdict::kOk && r.end_ns - r.sched_ns <= limit_ns;
  }));
}

std::vector<double> PhaseResult::OkLatencyUs() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    if (r.verdict == Verdict::kOk) out.push_back(static_cast<double>(r.end_ns - r.sched_ns) / 1e3);
  }
  return out;
}

std::vector<double> PhaseResult::LagUs() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const auto& r : records) {
    if (r.sent_ns != 0) out.push_back(static_cast<double>(r.sent_ns - r.sched_ns) / 1e3);
  }
  return out;
}

PhaseResult RunOpenLoop(uint16_t port, const RequestPool& pool,
                        const std::vector<Arrival>& schedule, double drain_seconds) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  PhaseResult result;
  result.records.resize(schedule.size());
  std::vector<Connection> connections(kConnections);
  for (auto& connection : connections) {
    connection.fd = ConnectLoopback(port);
    connection.broken = connection.fd < 0;  // Its arrivals stay timed out.
  }
  const int64_t start_ns = NowNs();
  const int64_t last_ns = schedule.empty() ? 0 : schedule.back().offset_ns;
  const int64_t drain_deadline_ns =
      start_ns + last_ns + static_cast<int64_t>(drain_seconds * 1e9);
  const size_t total = schedule.size();
  size_t next = 0;
  pollfd pfds[kConnections];
  while (true) {
    const int64_t now = NowNs();
    for (; next < total && start_ns + schedule[next].offset_ns <= now; ++next) {
      Record& record = result.records[next];
      record.sched_ns = start_ns + schedule[next].offset_ns;
      Connection& connection = connections[next % kConnections];
      if (connection.broken) continue;
      record.sent_ns = now;
      connection.out.append(pool.at(schedule[next].request).http);
      connection.unsent_ends.push_back(connection.out.size());
      connection.inflight.push_back(next);
    }
    bool outstanding = false;
    int polled = 0;
    for (auto& connection : connections) {
      if (connection.broken) continue;
      connection.Flush(result.written);
      if (connection.broken) continue;
      outstanding = outstanding || !connection.inflight.empty();
      pfds[polled++] = pollfd{connection.fd,
                              static_cast<short>(POLLIN | (connection.out.empty() ? 0 : POLLOUT)), 0};
    }
    if (next >= total && !outstanding) break;
    if (now >= drain_deadline_ns || polled == 0) break;
    const int64_t wake = next < total
                             ? std::min(start_ns + schedule[next].offset_ns, drain_deadline_ns)
                             : drain_deadline_ns;
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait_ns / 1000000000), static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(pfds, static_cast<nfds_t>(polled), &ts, nullptr) <= 0) continue;
    for (int p = 0, c = 0; p < polled; ++c) {
      Connection& connection = connections[static_cast<size_t>(c)];
      if (connection.broken) continue;
      if ((pfds[p++].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        connection.Receive(pool, schedule, result);
      }
    }
  }
  // Arrivals never sent (every connection broke) keep the kTimedOut
  // verdict; stamp their schedule time for the record.
  for (; next < total; ++next) result.records[next].sched_ns = start_ns + schedule[next].offset_ns;
  for (auto& connection : connections) {
    if (connection.fd < 0) continue;
    // Bytes that are already waiting once every request was answered are
    // unsolicited too.
    char byte;
    if (!connection.broken && connection.inflight.empty() &&
        recv(connection.fd, &byte, 1, MSG_DONTWAIT) > 0) {
      ++result.unsolicited;
    }
    close(connection.fd);
  }
  return result;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace perfbench
