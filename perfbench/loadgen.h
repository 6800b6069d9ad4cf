// Open-loop load generation over loopback HTTP: a seeded Poisson schedule
// of requests, sent round-robin on four pipelined keep-alive connections
// whether or not earlier requests have been answered. One thread drives
// all of them, so the generator adds a single runnable thread to the
// cores it shares with the serving processes. Every
// request is timed from its *scheduled* send time, so a stall also charges
// the requests that queued up behind it; how late the generator itself
// ran is recorded separately as lag.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

inline constexpr int kConnections = 4;
// Upper bound on a warm-up's duration (RunSerial with a request count).
inline constexpr double kWarmupSeconds = 10;

// Monotonic nanoseconds.
int64_t NowNs();

// One scheduled arrival: offset from the phase start and the request.
struct Arrival {
  int64_t offset_ns = 0;
  uint32_t request = 0;
};

// Poisson arrivals at `rate_rps` for `seconds`, each picking a request
// from the pool; the same seed gives the same schedule.
std::vector<Arrival> MakeSchedule(const RequestPool& pool, double rate_rps, double seconds,
                                  uint64_t seed);

// What happened to one arrival. end_ns is 0 for a request that was never
// answered (timed out).
struct Record {
  int64_t sched_ns = 0;
  int64_t sent_ns = 0;
  int64_t end_ns = 0;
  Verdict verdict = Verdict::kTimedOut;
};

struct PhaseResult {
  std::vector<Record> records;  // Indexed like the schedule.
  // Requests whose bytes were all handed to the socket.
  uint64_t written = 0;
  // Responses (or bytes of them) that arrived with no request in flight on
  // their connection: the server answered something it was not asked, or
  // answered one request twice. Any is an accounting error.
  uint64_t unsolicited = 0;
  // Non-200 bodies naming the seccomp jail / an open circuit breaker.
  uint64_t jail_kills = 0;
  uint64_t breaker_fast_fails = 0;

  uint64_t sent() const { return records.size(); }
  uint64_t Count(Verdict verdict) const;
  // Verified successes whose latency (from the scheduled time) ≤ limit.
  uint64_t OkWithin(double limit_us) const;
  std::vector<double> OkLatencyUs() const;
  std::vector<double> LagUs() const;
};

// Sends `schedule` starting now; waits up to `drain_seconds` after the
// last scheduled send for outstanding answers, then counts the rest as
// timed out. The connections are opened for the phase and closed after.
PhaseResult RunOpenLoop(uint16_t port, const RequestPool& pool,
                        const std::vector<Arrival>& schedule, double drain_seconds);

// Sends seeded requests one at a time on one connection, each after the
// previous answer (a closed loop with a single client), until `count` were
// sent or `seconds` have passed. Records are timed from the send; the
// phase ends early on a connection error or an answer missing for 1 s.
PhaseResult RunSerial(uint16_t port, const RequestPool& pool, size_t count, double seconds,
                      uint64_t seed);

// A reference that involves none of the system: a 16-byte token passed
// around a ring of `hops` threads of this process, each hop a send over
// loopback TCP and a wake-up of the next thread, one round at a time, for
// `seconds`. A request to the system pays the same kind of hops; on a
// shared host, what one costs moves with the other tenants' load.
inline constexpr size_t kReferenceBytes = 16;
struct ReferenceResult {
  uint64_t rounds = 0;
  double p50_us = 0;
  // CPU of this whole process over the phase (every ring thread).
  double cpu_us = 0;
};
ReferenceResult RunReferenceRing(int hops, double seconds);

// Linear-interpolated quantile (q in [0,1]) of unsorted values; 0 when
// empty.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
