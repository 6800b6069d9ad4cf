#include "workload.h"

#include <cmath>

#include "src/base/rng.h"
#include "src/func/builtins.h"

namespace perfbench {
namespace {

// Limits and rates come from the parent system measured on 4 vCPUs with
// client and server sharing the host; WORKLOADS.md records the
// measurements behind each number.
std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;
  all.push_back(Workload{.name = "local_small",
                         .kind = WorkloadKind::kLocalSmall,
                         .composition = "Echo",
                         .mix = {{1.0, 16}},
                         .limit_us = 20000,
                         .low_rps = 10000,
                         .high_rps = 22000,
                         .ladder_min = 4000,
                         .ladder_max = 150000});
  all.push_back(Workload{.name = "process_cold",
                         .kind = WorkloadKind::kProcessCold,
                         .composition = "MatMul",
                         .mix = {{0.8, 1}, {0.2, 128}},
                         .limit_us = 100000,
                         .low_rps = 250,
                         .high_rps = 600,
                         .ladder_min = 100,
                         .ladder_max = 20000});
  all.push_back(Workload{.name = "remote_mixed",
                         .kind = WorkloadKind::kRemoteMixed,
                         .composition = "Id",
                         .mix = {{0.8, 16}, {0.2, 64 * 1024}},
                         .limit_us = 30000,
                         .low_rps = 3000,
                         .high_rps = 7500,
                         .ladder_min = 1700,
                         .ladder_max = 64000});
  return all;
}

constexpr const char* kCompositions[] = {
    "composition Echo(in) => out { echo(in = all in) => (out = out); }",
    "composition Id(in) => out { echo(in = all in) => (out = out); }",
    "composition MatMul(A, B) => C { matmul(A = all A, B = all B) => (C = C); }",
};

// Distinct templates per class: enough that payload bytes vary, few enough
// that the expected outputs are cheap to precompute.
constexpr size_t kTemplatesPerClass = 32;

std::string RandomBytes(dbase::Rng& rng, size_t n) {
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.NextU64() & 0xff);
  return out;
}

std::string HttpRequestBytes(const std::string& composition, std::string_view body,
                             bool raw) {
  std::string out = "POST /invoke/" + composition + " HTTP/1.1\r\nHost: perfbench\r\n";
  if (raw) out += "X-Dandelion-Raw: 1\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  out.append(body);
  return out;
}

}  // namespace

std::vector<double> Workload::Ladder() const {
  std::vector<double> rungs;
  for (double rate = ladder_min; rate <= ladder_max * 1.0001; rate *= kLadderStep) {
    rungs.push_back(std::round(rate));
  }
  return rungs;
}

const Workload* FindWorkload(std::string_view name) {
  static const std::vector<Workload> workloads = MakeWorkloads();
  for (const auto& workload : workloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

dandelion::PlatformConfig ServingPlatformConfig(const Workload& workload) {
  dandelion::PlatformConfig config;
  config.sleep_for_modeled_latency = false;
  switch (workload.kind) {
    case WorkloadKind::kLocalSmall:
      config.backend = dandelion::IsolationBackend::kThread;
      break;
    case WorkloadKind::kProcessCold:
      // Every instance cold-forks under the seccomp jail (the pool is off
      // by default and the jail is on by default).
      config.backend = dandelion::IsolationBackend::kProcess;
      config.enable_sandbox_pool = false;
      break;
    case WorkloadKind::kRemoteMixed:
      // Engine work runs on the spawned nodes; the frontend's platform
      // only resolves compositions.
      config.backend = dandelion::IsolationBackend::kThread;
      config.num_workers = 1;
      break;
  }
  return config;
}

dbase::Status RegisterCompositions(dandelion::Platform& platform) {
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}));
  RETURN_IF_ERROR(platform.RegisterFunction({.name = "matmul", .body = dfunc::MatMulFunction}));
  for (const char* dsl : kCompositions) {
    RETURN_IF_ERROR(platform.RegisterCompositionDsl(dsl));
  }
  return dbase::OkStatus();
}

RequestPool::RequestPool(const Workload& workload, uint64_t seed) : workload_(&workload) {
  dbase::Rng rng(seed ^ 0x70657266626e6368ULL);
  by_class_.resize(workload.mix.size());
  for (size_t cls = 0; cls < workload.mix.size(); ++cls) {
    const PayloadClass& payload = workload.mix[cls];
    for (size_t i = 0; i < kTemplatesPerClass; ++i) {
      RequestTemplate request;
      if (workload.kind == WorkloadKind::kProcessCold) {
        const int n = static_cast<int>(payload.size);
        const auto a = dfunc::MakeMatrix(n, rng.NextU64());
        const auto b = dfunc::MakeMatrix(n, rng.NextU64());
        request.args = {dfunc::DataSet{"A", {dfunc::DataItem{"", dfunc::EncodeInt64Array(a)}}},
                        dfunc::DataSet{"B", {dfunc::DataItem{"", dfunc::EncodeInt64Array(b)}}}};
        request.expected = dfunc::EncodeInt64Array(dfunc::MultiplyMatrices(a, b, n));
        request.http = HttpRequestBytes(workload.composition, dfunc::MarshalSets(request.args),
                                        /*raw=*/false);
      } else {
        const std::string body = RandomBytes(rng, payload.size);
        request.args = {dfunc::DataSet{"in", {dfunc::DataItem{"", body}}}};
        request.expected = body;
        request.http = HttpRequestBytes(workload.composition, body, /*raw=*/true);
      }
      by_class_[cls].push_back(templates_.size());
      templates_.push_back(std::move(request));
    }
  }
}

size_t RequestPool::Choose(double uniform, uint64_t pick) const {
  size_t cls = 0;
  double acc = workload_->mix[0].share;
  while (uniform >= acc && cls + 1 < workload_->mix.size()) {
    ++cls;
    acc += workload_->mix[cls].share;
  }
  const auto& members = by_class_[cls];
  return members[pick % members.size()];
}

bool OutputMatches(const dfunc::DataSetList& sets, const RequestTemplate& request) {
  const dfunc::DataItem* only = nullptr;
  for (const auto& set : sets) {
    for (const auto& item : set.items) {
      if (only != nullptr) return false;
      only = &item;
    }
  }
  return only != nullptr && only->data.view() == request.expected;
}

Verdict ClassifyResponse(int status, std::string_view body, const RequestTemplate& request) {
  if (status == 429 || status == 503) return Verdict::kRefused;
  if (status != 200) return Verdict::kFailed;
  auto sets = dfunc::UnmarshalSets(body);
  if (!sets.ok() || !OutputMatches(*sets, request)) return Verdict::kWrong;
  return Verdict::kOk;
}

}  // namespace perfbench
