// `perfbench run --trace 1`: the per-layer breakdown of one workload.
//
// Spans are recorded from outside the program, around calls into each
// layer's public entry point. The same seeded request sequence is replayed
// through successively deeper entries:
//
//   frontend    HTTP over loopback into an HttpFrontend
//   cluster     Cluster::InvokeAsync (router → engine node over dnet)
//   net         NodeClient::InvokeAsync (one dnet round trip)
//   dispatcher  Platform::Submit
//   sandbox     SandboxExecutor::Execute (one at a time, unloaded)
//
// The replays run at the workload's low rate: in one process, the extra
// entries (generator, router, node agent and engines sharing the cores)
// saturate near the high rate, and queueing would swamp the self times.
// A layer's self time is its median span minus the median span of the
// next-deeper entry on the workload's path. remote_mixed's path crosses
// every entry (its engine nodes are the spawned dandelion_node
// processes); the local workloads' path is frontend → dispatcher →
// sandbox, and their cluster and net metrics read 0 (not on the path).
// Layer counters are deltas of /statz and the public *Stats accessors per
// 1k requests; encode/decode/parse costs are timed directly on the
// workload's requests. Spans are kept in memory and written to
// <build dir>/spans/<workload>-<seed>.csv at the end.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>

#include "loadgen.h"
#include "modes.h"
#include "src/http/http_parser.h"
#include "src/net/node_client.h"
#include "src/net/wire.h"
#include "src/runtime/frontend.h"

namespace perfbench {
namespace {

constexpr double kDrainSeconds = 1.0;
constexpr size_t kWarmupRequests = 32;

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  Verdict verdict = Verdict::kTimedOut;
};

struct Level {
  std::string name;
  std::vector<Span> spans;

  std::vector<double> LatencyUs() const {
    std::vector<double> out;
    for (const auto& span : spans) {
      if (span.verdict == Verdict::kOk || span.verdict == Verdict::kFailed) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      }
    }
    return out;
  }
  double P(double q) const { return Quantile(LatencyUs(), q); }
};

Verdict Judge(const dbase::Result<dfunc::DataSetList>& result, const RequestTemplate& request) {
  if (!result.ok()) {
    return result.status().code() == dbase::StatusCode::kUnavailable ? Verdict::kRefused
                                                                      : Verdict::kFailed;
  }
  return OutputMatches(*result, request) ? Verdict::kOk : Verdict::kWrong;
}

// Open-loop replay of `schedule` through an asynchronous entry point:
// `launch(i, done)` starts arrival i and must call done(verdict) exactly
// once, from any thread. Completions that arrive after the wait gives up
// touch only the shared state, never this frame.
using Done = std::function<void(Verdict)>;
std::vector<Span> ReplayAsync(const std::vector<Arrival>& schedule,
                              const std::function<void(size_t, Done)>& launch) {
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Span> spans;
    size_t remaining = 0;
  };
  auto state = std::make_shared<State>();
  state->spans.resize(schedule.size());
  state->remaining = schedule.size();
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const int64_t due = t0 + schedule[i].offset_ns;
    while (NowNs() < due) {
      const int64_t wait = due - NowNs();
      if (wait > 50000) std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 30000));
    }
    const int64_t start = NowNs();
    launch(i, [state, i, start](Verdict verdict) {
      const int64_t end = NowNs();
      std::lock_guard<std::mutex> lock(state->mu);
      state->spans[i] = Span{start, end, verdict};
      if (--state->remaining == 0) state->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait_for(lock, std::chrono::seconds(15), [&] { return state->remaining == 0; });
  return state->spans;
}

// Median ns per call of fn(k) over k = 0, 1, 2, ... in five batches of at
// least 5 ms each.
double NsPerCall(const std::function<void(size_t)>& fn) {
  std::vector<double> batches;
  size_t k = 0;
  for (int b = 0; b < 5; ++b) {
    const int64_t t0 = NowNs();
    size_t calls = 0;
    while (NowNs() - t0 < 5000000) {
      for (int j = 0; j < 16; ++j) fn(k++);
      calls += 16;
    }
    batches.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(calls));
  }
  return Quantile(batches, 0.5);
}

dbase::BufferSlice Concat(const std::vector<dbase::BufferSlice>& chunks) {
  std::string bytes;
  for (const auto& chunk : chunks) bytes.append(chunk.view());
  return dbase::BufferSlice(dbase::Buffer::FromString(std::move(bytes)));
}

double Per1k(uint64_t count, size_t requests) {
  return requests == 0 ? 0 : 1000.0 * static_cast<double>(count) / static_cast<double>(requests);
}

uint64_t WireBytes(const dnet::NodeClient& client) {
  uint64_t total = 0;
  for (const auto& peer : client.SnapshotPeers()) total += peer.bytes_sent + peer.bytes_received;
  return total;
}

void WriteSpans(const Options& options, const std::vector<const Level*>& levels) {
  const std::string dir = options.bin_dir + "/spans";
  mkdir(dir.c_str(), 0755);
  std::ofstream out(dir + "/" + options.workload->name + "-" + std::to_string(options.seed) + ".csv");
  out << "layer,request,start_ns,end_ns,verdict\n";
  for (const Level* level : levels) {
    for (size_t i = 0; i < level->spans.size(); ++i) {
      const Span& span = level->spans[i];
      out << level->name << ',' << i << ',' << span.start_ns << ',' << span.end_ns << ','
          << static_cast<int>(span.verdict) << '\n';
    }
  }
}

}  // namespace

int RunTraced(const Options& options) {
  const Workload& workload = *options.workload;
  const RequestPool pool(workload, options.seed);
  const bool remote = workload.kind == WorkloadKind::kRemoteMixed;
  const double seconds = options.seconds;
  uint64_t attempted = 0;
  uint64_t not_ok = 0;
  uint64_t wrong = 0;
  auto count = [&](Verdict verdict) {
    ++attempted;
    if (verdict != Verdict::kOk) ++not_ok;
    if (verdict == Verdict::kWrong) ++wrong;
  };

  // --- Untraced reference: the serving processes at the same rate --------
  Deployment deployment;
  if (!deployment.StartNodes(options) || !deployment.StartServer(options)) {
    std::fprintf(stderr, "perfbench: serving processes failed to start\n");
    return 1;
  }
  RunSerial(deployment.port(), pool, kWarmupRequests, kWarmupSeconds,
            PhaseSeed(options.seed, "warmup"));
  const double ref_s = 0.25 * seconds;
  const PhaseResult reference = RunOpenLoop(
      deployment.port(), pool,
      MakeSchedule(pool, workload.low_rps, ref_s, PhaseSeed(options.seed, "low")), kDrainSeconds);
  for (const auto& record : reference.records) count(record.verdict);
  const double untraced_p50 = Quantile(reference.OkLatencyUs(), 0.5);
  const double lag_p99 = Quantile(reference.LagUs(), 0.99);

  // --- The layers, in process ----------------------------------------------
  dandelion::PlatformConfig config = ServingPlatformConfig(workload);
  if (remote) config.num_workers = kNodeWorkers;  // Stand-in for one node's platform.
  dandelion::Platform platform(config);
  if (auto status = RegisterCompositions(platform); !status.ok()) {
    std::fprintf(stderr, "register: %s\n", status.ToString().c_str());
    return 1;
  }
  // remote_mixed only: the router in front of the spawned engine nodes, and
  // a wire client to the first of them.
  std::unique_ptr<dandelion::Cluster> cluster;
  std::unique_ptr<dnet::NodeClient> client;
  if (remote) {
    cluster = std::make_unique<dandelion::Cluster>(RouterConfig(deployment.node_ports()));
    dnet::NodeClient::Config client_config;
    client_config.node_name = "perfbench";
    client = std::make_unique<dnet::NodeClient>(client_config);
    if (!client->Start().ok()) return 1;
    client->AddPeer("node0", deployment.node_ports()[0]);
  }
  dandelion::HttpFrontend frontend(&platform, dandelion::FrontendConfig{});
  if (cluster) frontend.AttachCluster(cluster.get());
  if (!frontend.Start().ok()) return 1;
  const auto executor = dandelion::CreateSandboxExecutor(config.backend);

  const double level_s = 0.15 * seconds;
  const std::vector<Arrival> schedule =
      MakeSchedule(pool, workload.low_rps, level_s, PhaseSeed(options.seed, "trace"));
  auto request_of = [&](size_t i) -> const RequestTemplate& { return pool.at(schedule[i].request); };
  RunSerial(frontend.port(), pool, kWarmupRequests, kWarmupSeconds,
            PhaseSeed(options.seed, "warmup"));

  // frontend: HTTP → HttpFrontend.
  Level frontend_level{"frontend", {}};
  const std::string statz0 = HttpGet(frontend.port(), "/statz");
  const auto data0 = dfunc::DataPlaneStats::Get().snapshot();
  const PhaseResult socket =
      RunOpenLoop(frontend.port(), pool, schedule, kDrainSeconds);
  const auto data1 = dfunc::DataPlaneStats::Get().snapshot();
  const std::string statz1 = HttpGet(frontend.port(), "/statz");
  for (const auto& record : socket.records) {
    frontend_level.spans.push_back(Span{record.sent_ns, record.end_ns, record.verdict});
  }

  // cluster: Cluster::InvokeAsync; net: one dnet round trip.
  Level cluster_level{"cluster", {}};
  Level net_level{"net", {}};
  uint64_t reroutes = 0;
  uint64_t wire_bytes = 0;
  if (remote) {
    const auto cluster0 = cluster->Stats();
    cluster_level.spans = ReplayAsync(schedule, [&](size_t i, Done done) {
      dandelion::InvocationRequest request;
      request.composition = workload.composition;
      request.args = request_of(i).args;
      cluster->InvokeAsync(std::move(request), [expected = &request_of(i), done](auto result, int) {
        done(Judge(result, *expected));
      });
    });
    const auto cluster1 = cluster->Stats();
    reroutes = (cluster1.reroutes_shed + cluster1.reroutes_peer_lost) -
               (cluster0.reroutes_shed + cluster0.reroutes_peer_lost);

    const uint64_t wire0 = WireBytes(*client);
    net_level.spans = ReplayAsync(schedule, [&](size_t i, Done done) {
      dnet::WireInvoke invoke;
      invoke.composition = workload.composition;
      invoke.args = request_of(i).args;
      client->InvokeAsync(
          "node0", std::move(invoke), 10 * dbase::kMicrosPerSecond,
          [expected = &request_of(i), done](dbase::Result<dnet::WireOutcome> outcome) {
            if (!outcome.ok()) return done(Verdict::kRefused);
            if (outcome->code != dbase::StatusCode::kOk) return done(Verdict::kFailed);
            done(OutputMatches(outcome->sets, *expected) ? Verdict::kOk : Verdict::kWrong);
          });
    });
    wire_bytes = WireBytes(*client) - wire0;
  }

  // dispatcher: Platform::Submit.
  const auto dispatch0 = platform.dispatcher_stats();
  const auto engine0 = platform.engine_stats();
  std::vector<dandelion::InvocationHandle> handles(schedule.size());
  Level dispatcher_level{"dispatcher", ReplayAsync(schedule, [&](size_t i, Done done) {
                           dandelion::InvocationRequest request;
                           request.composition = workload.composition;
                           request.args = request_of(i).args;
                           handles[i] = platform.Submit(
                               std::move(request), [expected = &request_of(i), done](auto result) {
                                 done(Judge(result, *expected));
                               });
                         })};
  const auto dispatch1 = platform.dispatcher_stats();
  const auto engine1 = platform.engine_stats();
  std::vector<double> queue_us;
  for (const auto& handle : handles) {
    const auto report = handle.Report();
    if (report.queue_time_us > 0) queue_us.push_back(static_cast<double>(report.queue_time_us));
  }

  // sandbox: SandboxExecutor::Execute, serially, on a thread of its own:
  // engines call it from worker threads, and a function body's allocations
  // behave differently on the main thread's heap.
  Level sandbox_level{"sandbox", {}};
  const auto spec = platform.functions().Lookup(
      workload.kind == WorkloadKind::kProcessCold ? "matmul" : "echo");
  if (!spec.ok()) return 1;
  std::vector<double> load_us, setup_us, execute_us, output_us;
  uint64_t jail_kills = 0;
  std::thread([&] {
    const int64_t sandbox_end = NowNs() + static_cast<int64_t>(0.1 * seconds * 1e9);
    for (size_t i = 0; i < schedule.size() && NowNs() < sandbox_end; ++i) {
      const RequestTemplate& request = request_of(i);
      const int64_t start = NowNs();
      auto context = dandelion::MemoryContext::Create(
          spec->context_bytes, &platform.accountant(),
          config.backend == dandelion::IsolationBackend::kProcess);
      Verdict verdict = Verdict::kFailed;
      if (context.ok() && (*context)->StoreInputSets(request.args).ok()) {
        const dandelion::ExecOutcome outcome =
            executor->Execute(*spec, **context, dandelion::SandboxOptions{});
        if (outcome.failure == dpolicy::FailureKind::kJailKill) ++jail_kills;
        load_us.push_back(static_cast<double>(outcome.timings.load_us));
        setup_us.push_back(static_cast<double>(outcome.timings.setup_us));
        execute_us.push_back(static_cast<double>(outcome.timings.execute_us));
        output_us.push_back(static_cast<double>(outcome.timings.output_us));
        if (outcome.status.ok()) {
          verdict = OutputMatches(outcome.outputs, request) ? Verdict::kOk : Verdict::kWrong;
        }
      }
      sandbox_level.spans.push_back(Span{start, NowNs(), verdict});
    }
  }).join();
  const double committed_peak_mb =
      static_cast<double>(platform.accountant().peak_bytes()) / (1024.0 * 1024.0);

  for (const Level* level : {&frontend_level, &cluster_level, &net_level, &dispatcher_level, &sandbox_level}) {
    for (const auto& span : level->spans) count(span.verdict);
  }

  // --- Direct timings on the workload's requests ---------------------------
  const size_t sample = std::min<size_t>(schedule.size(), 1024);
  auto nth = [&](size_t k) -> const RequestTemplate& { return request_of(k % sample); };
  std::vector<dbase::BufferSlice> marshalled;
  std::vector<dfunc::DataSetList> outputs;
  for (size_t k = 0; k < sample; ++k) {
    const RequestTemplate& request = nth(k);
    marshalled.push_back(
        dbase::BufferSlice(dbase::Buffer::FromString(dfunc::MarshalSets(request.args))));
    outputs.push_back({dfunc::DataSet{"out", {dfunc::DataItem{"", request.expected}}}});
  }
  const double parse_ns = NsPerCall([&](size_t k) {
    const std::string& wire = nth(k).http;
    auto head = dhttp::ScanMessageHead(wire, 64 * 1024);
    auto parsed = dhttp::ParseRequest(wire);
    if (!head.ok() || !parsed.ok()) std::abort();
  });
  const double unmarshal_ns = NsPerCall([&](size_t k) {
    if (!dfunc::UnmarshalSets(marshalled[k % sample]).ok()) std::abort();
  });
  const double scatter_ns = NsPerCall([&](size_t k) {
    if (dfunc::MarshalSetsScatter(outputs[k % sample]).empty()) std::abort();
  });
  // The dnet codec, on remote_mixed's path only.
  double encode_invoke_ns = 0, decode_invoke_ns = 0, encode_outcome_ns = 0, decode_outcome_ns = 0;
  if (remote) {
    std::vector<dnet::WireInvoke> invokes;
    std::vector<dnet::WireOutcome> outcomes;
    std::vector<dbase::BufferSlice> invoke_bodies, outcome_bodies;
    for (size_t k = 0; k < sample; ++k) {
      dnet::WireInvoke invoke{workload.composition, nth(k).args, 0, 0, k + 1};
      invoke_bodies.push_back(Concat(dnet::EncodeInvoke(invoke)));
      invokes.push_back(std::move(invoke));
      dnet::WireOutcome outcome;
      outcome.sets = outputs[k];
      outcome_bodies.push_back(Concat(dnet::EncodeOutcome(outcome)));
      outcomes.push_back(std::move(outcome));
    }
    encode_invoke_ns = NsPerCall([&](size_t k) {
      if (dnet::EncodeInvoke(invokes[k % sample]).empty()) std::abort();
    });
    decode_invoke_ns = NsPerCall([&](size_t k) {
      if (!dnet::DecodeInvoke(invoke_bodies[k % sample]).ok()) std::abort();
    });
    encode_outcome_ns = NsPerCall([&](size_t k) {
      if (dnet::EncodeOutcome(outcomes[k % sample]).empty()) std::abort();
    });
    decode_outcome_ns = NsPerCall([&](size_t k) {
      if (!dnet::DecodeOutcome(outcome_bodies[k % sample]).ok()) std::abort();
    });
  }

  frontend.Stop();
  if (client) client->Stop();
  if (cluster) cluster->Shutdown();
  platform.Shutdown();
  WriteSpans(options, {&frontend_level, &cluster_level, &net_level, &dispatcher_level, &sandbox_level});

  // --- Self times and counters ---------------------------------------------
  const double frontend_p50 = frontend_level.P(0.5);
  // The in-process frontend, timed from the scheduled send like the
  // untraced reference.
  const double inprocess_p50 = Quantile(socket.OkLatencyUs(), 0.5);
  const double cluster_p50 = cluster_level.P(0.5);
  const double net_p50 = net_level.P(0.5);
  const double dispatcher_p50 = dispatcher_level.P(0.5);
  const double sandbox_p50 = sandbox_level.P(0.5);
  // The entry right below the frontend on the workload's path.
  const double inner_p50 = remote ? cluster_p50 : dispatcher_p50;
  const double frontend_self = frontend_p50 - inner_p50;
  const double cluster_self = remote ? cluster_p50 - net_p50 : 0;
  const double net_self = remote ? net_p50 - dispatcher_p50 : 0;
  const double dispatcher_self = dispatcher_p50 - sandbox_p50;
  // Coverage: the share of the untraced p50 that the layers account for
  // when each is timed on its own — every layer below the frontend (their
  // self times sum to inner_p50) plus the frontend's own directly timed
  // work on this workload's requests: parse, argument unmarshal (only for
  // non-raw bodies) and response marshal. The rest is socket, epoll and
  // loopback time that no layer entry times.
  const bool raw_bodies = workload.kind != WorkloadKind::kProcessCold;
  const double frontend_timed_us = (parse_ns + (raw_bodies ? 0 : unmarshal_ns) + scatter_ns) / 1e3;
  const double covered_us = inner_p50 + frontend_timed_us;
  const size_t frontend_n = frontend_level.spans.size();
  const size_t dispatcher_n = dispatcher_level.spans.size();
  auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
  };

  const std::vector<Metric> metrics = {
      {"frontend.self_us_p50", frontend_self, "us"},
      {"frontend.shed_429_per_1k",
       Per1k(JsonCounter(statz1, "shed_429", "frontend") - JsonCounter(statz0, "shed_429", "frontend"),
             frontend_n),
       "count"},
      {"http.parse_ns", parse_ns, "ns"},
      {"data.unmarshal_ns", unmarshal_ns, "ns"},
      {"data.marshal_scatter_ns", scatter_ns, "ns"},
      {"data.copied_bytes_per_req",
       static_cast<double>(data1.bytes_copied - data0.bytes_copied) / static_cast<double>(std::max<size_t>(1, frontend_n)),
       "bytes"},
      {"data.aliased_bytes_per_req",
       static_cast<double>(data1.bytes_aliased - data0.bytes_aliased) / static_cast<double>(std::max<size_t>(1, frontend_n)),
       "bytes"},
      {"dispatcher.self_us_p50", dispatcher_self, "us"},
      {"dispatcher.queue_us_p50", Quantile(queue_us, 0.5), "us"},
      {"dispatcher.queue_us_p99", Quantile(queue_us, 0.99), "us"},
      {"dispatcher.retries_per_1k",
       Per1k(dispatch1.retries_attempted - dispatch0.retries_attempted, dispatcher_n), "count"},
      {"dispatcher.breaker_fast_fails_per_1k",
       Per1k(dispatch1.breaker_fast_fails - dispatch0.breaker_fast_fails, dispatcher_n), "count"},
      {"engine.compute_wait_p50_us", static_cast<double>(engine1.compute_wait_p50_us), "us"},
      {"engine.compute_wait_p99_us", static_cast<double>(engine1.compute_wait_p99_us), "us"},
      {"engine.steals_per_1k", Per1k(engine1.compute_steals - engine0.compute_steals, dispatcher_n),
       "count"},
      {"sandbox.self_us_p50", sandbox_p50, "us"},
      {"sandbox.load_us_mean", mean(load_us), "us"},
      {"sandbox.setup_us_mean", mean(setup_us), "us"},
      {"sandbox.execute_us_mean", mean(execute_us), "us"},
      {"sandbox.output_us_mean", mean(output_us), "us"},
      {"sandbox.jail_kills_per_1k", Per1k(jail_kills, sandbox_level.spans.size()), "count"},
      {"memory_context.committed_peak_mb", committed_peak_mb, "MiB"},
      {"net.encode_invoke_ns", encode_invoke_ns, "ns"},
      {"net.decode_invoke_ns", decode_invoke_ns, "ns"},
      {"net.encode_outcome_ns", encode_outcome_ns, "ns"},
      {"net.decode_outcome_ns", decode_outcome_ns, "ns"},
      {"net.hop_us_p50", net_p50, "us"},
      {"net.hop_us_p99", net_level.P(0.99), "us"},
      {"net.self_us_p50", net_self, "us"},
      {"net.bytes_per_req",
       static_cast<double>(wire_bytes) / static_cast<double>(std::max<size_t>(1, net_level.spans.size())),
       "bytes"},
      {"cluster.self_us_p50", cluster_self, "us"},
      {"cluster.reroutes_per_1k", Per1k(reroutes, cluster_level.spans.size()), "count"},
      {"loadgen.lag_p99_us", lag_p99, "us"},
      {"trace.untraced_p50_us", untraced_p50, "us"},
      {"trace.inprocess_p50_us", inprocess_p50, "us"},
      {"trace.inprocess_overhead_us", inprocess_p50 - untraced_p50, "us"},
      {"trace.coverage_frac", untraced_p50 > 0 ? covered_us / untraced_p50 : 0, "ratio"},
  };
  if (reference.unsolicited + socket.unsolicited > 0) {
    std::fprintf(stderr, "perfbench: unsolicited HTTP responses: request accounting does not add up\n");
    return 1;
  }
  PrintResult(wrong == 0, attempted, not_ok, metrics);
  return 0;
}

}  // namespace perfbench
