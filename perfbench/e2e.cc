// `perfbench run --trace 0`: the end-to-end measurement of one workload.
//
// A run sets the serving side up kSetups times; setup_s is the median over
// them. It measures in shares of `seconds`:
//   serial          30%, one request at a time on one connection, in
//                   slices, each after a reference ring (5%) that involves
//                   none of the system; gives the two serial.*_over_ring
//                   metrics;
//   low rate        20%, open loop at about an eighth of the parent's
//                   goodput;
//   high rate       20%, a quarter to a third of it;
//   goodput ladder  binary search over the workload's fixed rate ladder for
//                   the highest rung the system sustains, 0.5% per probe.
// They run in kRounds interleaved rounds (a fifth of each phase, then one
// ladder search), so a sag in the shared host's capacity that lasts less
// than a round cannot move every measurement of a metric. Each round runs
// on a deployment of its own (the last kRounds set-ups): how the serving
// threads land on the cores, and what an overloaded ladder probe leaves
// behind, then last one round, not the whole run.
//
// The result holds serial.p50_over_ring, serial.cpu_over_ring, ok_frac,
// peak_rss_mb and setup_s. Latencies, goodput and CPU in absolute units go
// to stderr; the end of RunEndToEnd says why.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <thread>

#include "loadgen.h"
#include "modes.h"

namespace perfbench {
namespace {

constexpr int kSetups = 21;
constexpr size_t kWarmupRequests = 8;
constexpr double kDrainSeconds = 1.0;
constexpr int kRounds = 5;
// Shares of --seconds: the serial phase, its reference rings, the low
// phase, the high phase, one ladder probe.
constexpr double kSerialShare = 0.30;
constexpr double kReferenceShare = 0.05;
constexpr int kReferenceHops = 8;
constexpr double kLowShare = 0.20;
constexpr double kHighShare = 0.20;
constexpr double kProbeShare = 0.005;
constexpr int kMaxSubPhases = 35;
constexpr double kMinSubPhaseRequests = 500;
constexpr int kProbeAttempts = 2;

// Serial slices per round, and the quantile over all slices that the
// serial metrics report (see the serial phase below).
constexpr int kSerialSlices = 6;
constexpr double kSliceQuantile = 0.25;
// The quantile over sub-phases that the open-loop latencies report (see
// the low and high phases below).
constexpr double kSubPhaseQuantile = 0.10;

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

void Settle(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

struct Tally {
  uint64_t sent = 0, written = 0, unsolicited = 0;
  uint64_t ok = 0, failed = 0, wrong = 0, refused = 0, timed_out = 0;
  uint64_t jail_kills = 0, breaker_fast_fails = 0;

  void Add(const PhaseResult& phase) {
    sent += phase.sent();
    written += phase.written;
    unsolicited += phase.unsolicited;
    ok += phase.Count(Verdict::kOk);
    failed += phase.Count(Verdict::kFailed);
    wrong += phase.Count(Verdict::kWrong);
    refused += phase.Count(Verdict::kRefused);
    timed_out += phase.Count(Verdict::kTimedOut);
    jail_kills += phase.jail_kills;
    breaker_fast_fails += phase.breaker_fast_fails;
  }
  uint64_t not_ok() const { return failed + wrong + refused + timed_out; }
};

// A rung is sustained when ≥ 99% of its requests returned a verified 200
// within the latency limit (failures, wrong answers, refusals and timeouts
// all count as missing it) and the generator kept to its schedule.
bool Sustained(const PhaseResult& phase, double limit_us) {
  if (phase.sent() == 0) return false;
  const double ok = static_cast<double>(phase.OkWithin(limit_us));
  return ok >= 0.99 * static_cast<double>(phase.sent()) &&
         Quantile(phase.LagUs(), 0.99) <= limit_us / 2;
}

// The serving frontend's /statz counters: invocations finished (answered
// or shed with a 429) and invocations in flight.
struct ServerCounts {
  uint64_t finished = 0;
  uint64_t inflight = 0;
};
ServerCounts ReadServer(uint16_t port) {
  const std::string statz = HttpGet(port, "/statz");
  return {JsonCounter(statz, "served", "frontend") + JsonCounter(statz, "shed_429", "frontend"),
          JsonCounter(statz, "inflight_interactive", "frontend")};
}

// Waits, up to 3 s, until the frontend has nothing in flight and its
// finished count has stopped moving: an overloaded probe's backlog,
// cancelled with its connections, is gone.
void SettleServer(uint16_t port) {
  ServerCounts last = ReadServer(port);
  for (int i = 0; i < 60; ++i) {
    Settle(0.05);
    const ServerCounts now = ReadServer(port);
    if (now.inflight == 0 && now.finished == last.finished) return;
    last = now;
  }
}

}  // namespace

int RunEndToEnd(const Options& options) {
  const Workload& workload = *options.workload;
  const RequestPool pool(workload, options.seed);
  const double limit = workload.limit_us;

  // The serving processes' summed peak RSS is read after each set-up's
  // warm-up (stderr only) and after each round's serial phase. peak_rss_mb
  // is the median over the rounds: set-up plus the per-request state
  // (contexts, buffers, connections) of a stream of requests, one at a
  // time. Read after the open-loop low phase instead, it followed how many
  // requests a stall of the shared host had piled up, and its quartile
  // spread over ten runs reached 0.115 even as a median over the rounds.
  std::vector<double> setup_s, setup_rss_mb, round_rss_mb;
  uint64_t warmup_wrong = 0;
  std::unique_ptr<Deployment> deployment;
  uint16_t port = 0;
  std::vector<pid_t> pids;
  auto serving_peak_rss_mb = [&]() {
    double rss_mb = 0;
    for (pid_t pid : pids) rss_mb += PeakRssMb(pid);
    return rss_mb;
  };
  // Stops the current deployment and sets up a fresh one in its place.
  auto deploy = [&]() {
    deployment.reset();
    const int64_t t0 = NowNs();
    deployment = std::make_unique<Deployment>();
    if (!deployment->StartNodes(options) || !deployment->StartServer(options)) {
      std::fprintf(stderr, "perfbench: serving processes failed to start\n");
      return false;
    }
    warmup_wrong += RunSerial(deployment->port(), pool, kWarmupRequests, kWarmupSeconds,
                              PhaseSeed(options.seed, "warmup" + std::to_string(setup_s.size())))
                        .Count(Verdict::kWrong);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    port = deployment->port();
    pids = deployment->ServingPids();
    setup_rss_mb.push_back(serving_peak_rss_mb());
    return true;
  };
  for (int k = 0; k < kSetups - (kRounds - 1); ++k) {
    if (!deploy()) return 1;
  }
  // Ladder probes past the knee are expected to miss the limit; only the
  // valid low and high sub-phases count as the run's attempted operations.
  // Invalid sub-phases still reach the server and still must not be
  // answered wrongly.
  Tally tally;
  Tally invalid_tally;
  Tally ladder_tally;

  // --- Serial phase --------------------------------------------------------
  // One client sends the next request when the previous one is answered.
  // No request ever waits behind another, so each one pays the path's
  // every fixed cost: the thread hand-offs, wake-ups and syscalls as well
  // as the work. Each slice of it follows a reference ring
  // (RunReferenceRing) and is reported over it: the slice's p50 over the
  // ring's p50, and the serving processes' CPU per verified success over
  // the ring's CPU per round. On a shared host, what a wake-up, a syscall
  // or a cache miss costs moves with the other tenants' load, and so did
  // the absolute figures: within one run, local_small's serial p50 moved
  // 56–160 us. Most of it followed the host's steal time, which slows a
  // path the more, the more threads it wakes: with a steal of a fifth, the p50
  // of remote_mixed nearly doubled, while a two-thread echo slowed by a
  // tenth. A ring of kReferenceHops threads slows with the system, if
  // not fully: between runs at no steal and runs at a sixth, remote_mixed's
  // serial p50 rose 170 -> 335 us and its ratio to the ring 1.44 -> 1.76.
  // The metrics are a low quantile (kSliceQuantile) over the run's
  // kRounds * kSerialSlices slices, which leaves out most slices that a
  // burst of steal hit.
  struct Serial {
    // Per slice: serial p50 and CPU per request, and each over the
    // reference ring's, measured just before.
    std::vector<double> p50, cpu, p50_ratio, cpu_ratio;
  } serial;
  auto run_serial = [&](int round) {
    const double slice_s = options.seconds / (kRounds * kSerialSlices);
    for (int slice = 0; slice < kSerialSlices; ++slice) {
      const ReferenceResult reference =
          RunReferenceRing(kReferenceHops, kReferenceShare * slice_s);
      double cpu0 = 0, cpu1 = 0;
      const HostTicks host0 = ReadHostTicks();
      for (pid_t pid : pids) cpu0 += CpuMicros(pid);
      const PhaseResult result = RunSerial(
          port, pool, SIZE_MAX, kSerialShare * slice_s,
          PhaseSeed(options.seed, "serial" + std::to_string(round) + "." + std::to_string(slice)));
      for (pid_t pid : pids) cpu1 += CpuMicros(pid);
      const HostTicks host1 = ReadHostTicks();
      const double steal = (host1.steal - host0.steal) / std::max(1.0, host1.total - host0.total);
      tally.Add(result);
      const uint64_t ok = result.Count(Verdict::kOk);
      const double p50 = Quantile(result.OkLatencyUs(), 0.50);
      const double cpu_per_ok = (cpu1 - cpu0) / static_cast<double>(std::max<uint64_t>(1, ok));
      const double reference_cpu =
          reference.cpu_us / static_cast<double>(std::max<uint64_t>(1, reference.rounds));
      serial.p50.push_back(p50);
      serial.cpu.push_back(cpu_per_ok);
      serial.p50_ratio.push_back(p50 / std::max(1e-3, reference.p50_us));
      serial.cpu_ratio.push_back(cpu_per_ok / std::max(1e-3, reference_cpu));
      std::fprintf(stderr,
                   "serial %d.%d: sent %llu, p50 %.0f us, cpu %.1f us per ok; reference ring: "
                   "%llu rounds, p50 %.1f us, cpu %.2f us each; ratios p50 %.2f, cpu %.2f; host steal "
                   "%.3f\n",
                   round, slice, static_cast<unsigned long long>(result.sent()), p50, cpu_per_ok,
                   static_cast<unsigned long long>(reference.rounds), reference.p50_us,
                   reference_cpu, serial.p50_ratio.back(), serial.cpu_ratio.back(), steal);
    }
  };

  // --- Low and high phases -------------------------------------------------
  // Each is split into sub-phases of at least ~500 requests (at most
  // kMaxSubPhases), and each latency percentile is the kSubPhaseQuantile
  // quantile over the sub-phases: on a shared host, a sub-phase that caught
  // another tenant's burst reads up to several times higher, and such
  // bursts can cover most of a run, while a slower system raises every
  // sub-phase. The lowest sub-phase alone moved more between runs than a
  // low quantile of them. A sub-phase in which the generator ran later
  // than the latency limit at p99 measured the generator, not the system:
  // it is reported as invalid and run again.
  struct Fixed {
    std::string label;
    double rate = 0;
    int subs = 0;
    double sub_s = 0;
    int runs = 0;
    int invalid = 0;
    std::vector<double> p50, p99;
    double cpu_us = 0;
    uint64_t ok = 0;
  };
  auto make_fixed = [&](const char* label, double rate, double total_s) {
    Fixed phase;
    phase.label = label;
    phase.rate = rate;
    phase.subs = std::clamp(static_cast<int>(rate * total_s / kMinSubPhaseRequests), kRounds,
                            kMaxSubPhases);
    phase.sub_s = total_s / phase.subs;
    return phase;
  };
  // Runs `count` valid sub-phases; false once more of the phase's
  // sub-phases were invalid than half the number it needs.
  auto run_fixed = [&](Fixed& phase, int count) {
    for (int valid = 0; valid < count;) {
      if (phase.invalid > phase.subs / 2) return false;
      const int i = phase.runs++;
      double cpu0 = 0, cpu1 = 0;
      for (pid_t pid : pids) cpu0 += CpuMicros(pid);
      const PhaseResult result = RunOpenLoop(
          port, pool,
          MakeSchedule(pool, phase.rate, phase.sub_s,
                       PhaseSeed(options.seed, phase.label + std::to_string(i))),
          kDrainSeconds);
      for (pid_t pid : pids) cpu1 += CpuMicros(pid);
      Settle(0.02);
      const double lag_p99 = Quantile(result.LagUs(), 0.99);
      if (lag_p99 > limit) {
        ++phase.invalid;
        invalid_tally.Add(result);
        std::fprintf(stderr, "%s sub-phase %d INVALID: generator lag p99 %.0f us > limit\n",
                     phase.label.c_str(), i, lag_p99);
        continue;
      }
      ++valid;
      tally.Add(result);
      phase.cpu_us += cpu1 - cpu0;
      phase.ok += result.Count(Verdict::kOk);
      phase.p50.push_back(Quantile(result.OkLatencyUs(), 0.50));
      phase.p99.push_back(Quantile(result.OkLatencyUs(), 0.99));
      std::fprintf(stderr, "%s sub-phase %d: sent %llu, p50 %.0f us, p99 %.0f us\n",
                   phase.label.c_str(), i, static_cast<unsigned long long>(result.sent()),
                   phase.p50.back(), phase.p99.back());
    }
    return true;
  };

  // --- Goodput ladder ------------------------------------------------------
  // Binary search for the highest sustained rung. A shared host stalls now
  // and then for a few milliseconds; a rung that misses is therefore run
  // again, up to kProbeAttempts times, before it counts as not sustained.
  // A search's result is the verified successes per second within the
  // limit at the highest sustained rung: the rung's rate as delivered.
  // goodput_rps is the second best of the kRounds searches: a sag in the
  // shared host's capacity lowers the searches it overlaps, while a slower
  // system lowers every search. The best search alone was a lucky outlier
  // in some runs, and the median was lowered by sags in others.
  const std::vector<double> rungs = workload.Ladder();
  const double probe_s = kProbeShare * options.seconds;
  // An answer later than this has missed the limit anyway.
  const double probe_drain_s = 2 * limit / 1e6;
  std::vector<double> goodputs;
  auto search_ladder = [&](int round) {
    int lo = -1;
    int hi = static_cast<int>(rungs.size());
    double goodput = 0;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate = rungs[static_cast<size_t>(mid)];
      bool sustained = false;
      for (int attempt = 0; attempt < kProbeAttempts && !sustained; ++attempt) {
        const PhaseResult phase = RunOpenLoop(
            port, pool,
            MakeSchedule(pool, rate, probe_s,
                         PhaseSeed(options.seed, "rung" + std::to_string(mid) + "." +
                                                     std::to_string(attempt) + "." +
                                                     std::to_string(round))),
            probe_drain_s);
        ladder_tally.Add(phase);
        sustained = Sustained(phase, limit);
        std::fprintf(stderr,
                     "round %d rung %6.0f rps: sent %llu, ok within limit %llu, "
                     "p50 %.0f us, p99 %.0f us, lag p99 %.0f us -> %s\n",
                     round, rate, static_cast<unsigned long long>(phase.sent()),
                     static_cast<unsigned long long>(phase.OkWithin(limit)),
                     Quantile(phase.OkLatencyUs(), 0.5), Quantile(phase.OkLatencyUs(), 0.99),
                     Quantile(phase.LagUs(), 0.99), sustained ? "sustained" : "not sustained");
        if (sustained) {
          goodput = static_cast<double>(phase.OkWithin(limit)) / probe_s;
          Settle(0.05);
        } else {
          SettleServer(port);
        }
      }
      (sustained ? lo : hi) = mid;
    }
    goodputs.push_back(goodput);
  };

  // --- The rounds ----------------------------------------------------------
  // The server's own count of the invocations it finished over each
  // round's serial, low and high phases must match the requests written to
  // it.
  // A request that timed out on the generator side may still be unread
  // when its connection closes; with timeouts, the server must have
  // finished at least every answered request and at most every written
  // one.
  Fixed low = make_fixed("low", workload.low_rps, kLowShare * options.seconds);
  Fixed high = make_fixed("high", workload.high_rps, kHighShare * options.seconds);
  bool valid = true;
  bool accounted = true;
  uint64_t written = 0, finished = 0;
  for (int round = 0; round < kRounds && valid; ++round) {
    if (round > 0 && !deploy()) return 1;
    const Tally before = tally;
    const Tally invalid_before = invalid_tally;
    const uint64_t finished0 = ReadServer(port).finished;
    const int low_subs = (round + 1) * low.subs / kRounds - round * low.subs / kRounds;
    const int high_subs = (round + 1) * high.subs / kRounds - round * high.subs / kRounds;
    run_serial(round);
    round_rss_mb.push_back(serving_peak_rss_mb());
    valid = run_fixed(low, low_subs) && run_fixed(high, high_subs);
    const uint64_t round_written =
        tally.written + invalid_tally.written - before.written - invalid_before.written;
    const uint64_t round_timed_out =
        tally.timed_out + invalid_tally.timed_out - before.timed_out - invalid_before.timed_out;
    const uint64_t round_answered =
        tally.sent + invalid_tally.sent - before.sent - invalid_before.sent - round_timed_out;
    uint64_t round_finished = ReadServer(port).finished - finished0;
    for (int i = 0; i < 150 && round_finished != round_written; ++i) {
      Settle(0.02);
      round_finished = ReadServer(port).finished - finished0;
    }
    accounted = accounted && (round_timed_out == 0
                                  ? round_finished == round_written
                                  : round_answered <= round_finished && round_finished <= round_written);
    written += round_written;
    finished += round_finished;
    if (valid) search_ladder(round);
  }

  // Each request sent ends as exactly one verdict, by construction; what
  // can fail is the wire disagreeing with that: a response nobody asked
  // for, or a server that finished a different number of invocations than
  // it was sent.
  const uint64_t unsolicited = tally.unsolicited + invalid_tally.unsolicited + ladder_tally.unsolicited;
  accounted = accounted && unsolicited == 0;
  std::fprintf(stderr, "ladder probes: sent %llu, ok %llu, wrong %llu; goodput per round:",
               static_cast<unsigned long long>(ladder_tally.sent),
               static_cast<unsigned long long>(ladder_tally.ok),
               static_cast<unsigned long long>(ladder_tally.wrong));
  for (double goodput : goodputs) std::fprintf(stderr, " %.0f", goodput);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "serial+low+high (invalid sub-phases too): written %llu, server finished %llu; "
               "unsolicited responses in all phases %llu\n",
               static_cast<unsigned long long>(written), static_cast<unsigned long long>(finished),
               static_cast<unsigned long long>(unsolicited));
  std::fprintf(stderr,
               "serial+low+high: sent %llu: ok %llu, failed %llu (jail kills %llu, breaker fast-fails %llu), "
               "wrong %llu, refused %llu, timed out %llu\n",
               static_cast<unsigned long long>(tally.sent), static_cast<unsigned long long>(tally.ok),
               static_cast<unsigned long long>(tally.failed),
               static_cast<unsigned long long>(tally.jail_kills),
               static_cast<unsigned long long>(tally.breaker_fast_fails),
               static_cast<unsigned long long>(tally.wrong),
               static_cast<unsigned long long>(tally.refused),
               static_cast<unsigned long long>(tally.timed_out));
  // Figures in absolute units are reported but not gated. They follow the
  // load other tenants put on the shared host: its steal time swung
  // between a tenth and a third of the CPU within half an hour, and with it
  // the open-loop latency of a whole run by ±30% (local_small 80–125 us,
  // remote_mixed 210–360 us) and goodput by ±15%; no choice of sub-phases
  // or searches within one run makes up for a slower hour. The open-loop
  // CPU per request also fell by up to a quarter when the host stalled the
  // serving threads, because each wake-up then served a batch of queued
  // requests. The serial metrics are reported over the reference ring.
  std::sort(goodputs.begin(), goodputs.end());
  auto per_ok = [](double cpu_us, uint64_t ok) {
    return cpu_us / static_cast<double>(std::max<uint64_t>(1, ok));
  };
  std::fprintf(stderr,
               "not gated: set-up peak_rss_mb %.2f (median), goodput_rps %.0f (second best "
               "search), serial slice q%.0f: p50_us %.1f, cpu_us_per_ok %.1f; sub-phase q%.0f: "
               "low.p50_us %.1f, high.p50_us %.1f, low.p99_us %.1f, high.p99_us %.1f; "
               "low.cpu_us_per_ok %.1f, high.cpu_us_per_ok %.1f\n",
               Median(setup_rss_mb), goodputs.size() < 2 ? 0 : goodputs[goodputs.size() - 2],
               100 * kSliceQuantile,
               Quantile(serial.p50, kSliceQuantile), Quantile(serial.cpu, kSliceQuantile),
               100 * kSubPhaseQuantile, Quantile(low.p50, kSubPhaseQuantile),
               Quantile(high.p50, kSubPhaseQuantile), Quantile(low.p99, kSubPhaseQuantile),
               Quantile(high.p99, kSubPhaseQuantile), per_ok(low.cpu_us, low.ok),
               per_ok(high.cpu_us, high.ok));
  if (!accounted) {
    std::fprintf(stderr, "perfbench: request accounting does not add up\n");
    return 1;
  }
  if (!valid) {
    std::fprintf(stderr, "perfbench: INVALID run: too many sub-phases in which the generator "
                         "fell behind its schedule\n");
    return 3;
  }
  std::vector<Metric> metrics = {
      {"serial.p50_over_ring", Quantile(serial.p50_ratio, kSliceQuantile), "ratio"},
      {"serial.cpu_over_ring", Quantile(serial.cpu_ratio, kSliceQuantile), "ratio"},
      {"ok_frac", static_cast<double>(tally.ok) / static_cast<double>(std::max<uint64_t>(1, tally.sent)), "ratio"},
      {"peak_rss_mb", Median(round_rss_mb), "MiB"},
      {"setup_s", Median(setup_s), "s"},
  };
  const bool correct =
      warmup_wrong + tally.wrong + invalid_tally.wrong + ladder_tally.wrong == 0;
  PrintResult(correct, tally.sent, tally.not_ok(), metrics);
  return 0;
}

}  // namespace perfbench
