// The benchmark's workloads: what each one sends, how fast, which latency
// limit it is judged by, and how a response is verified. Every input is
// generated from the workload seed; the system under test only ever sees
// these generated requests.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/func/data.h"
#include "src/runtime/platform.h"

namespace perfbench {

enum class WorkloadKind { kLocalSmall, kProcessCold, kRemoteMixed };

// One payload class of a workload's mix (e.g. 16 B echo, 80%).
struct PayloadClass {
  double share = 1.0;
  // Echo payload bytes, or the matrix side for matmul.
  size_t size = 0;
};

// Ratio between neighbouring rungs of every goodput ladder.
inline constexpr double kLadderStep = 1.06;

struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kLocalSmall;
  std::string composition;
  std::vector<PayloadClass> mix;
  // p99 latency limit (µs) that a rung of the goodput ladder must meet.
  double limit_us = 0;
  // Fixed rates (requests/s) for the low and high latency phases.
  double low_rps = 0;
  double high_rps = 0;
  // Goodput ladder: geometric, kLadderStep apart, from ladder_min up to
  // ladder_max.
  double ladder_min = 0;
  double ladder_max = 0;

  std::vector<double> Ladder() const;
};

// Nullptr for an unknown name.
const Workload* FindWorkload(std::string_view name);

// The serving platform's configuration for a workload (backend, workers).
dandelion::PlatformConfig ServingPlatformConfig(const Workload& workload);
// Registers the functions and compositions the workloads invoke.
dbase::Status RegisterCompositions(dandelion::Platform& platform);
// Engine workers per spawned node process (remote_mixed only).
inline constexpr int kNodeWorkers = 2;
inline constexpr int kNumNodes = 2;

// One distinct request: its argument sets, its HTTP wire bytes, and the
// output payload a correct run must return.
struct RequestTemplate {
  dfunc::DataSetList args;
  std::string http;      // Complete POST /invoke/<composition> request.
  std::string expected;  // Expected payload of the single output item.
};

// A seeded pool of distinct requests per payload class, plus the seeded
// choice of class and template for each arrival.
class RequestPool {
 public:
  RequestPool(const Workload& workload, uint64_t seed);

  const Workload& workload() const { return *workload_; }
  const std::vector<RequestTemplate>& templates() const { return templates_; }
  const RequestTemplate& at(size_t index) const { return templates_[index]; }
  // Picks a template for one arrival from `uniform` ∈ [0,1) (class by
  // share) and `pick` (template within the class).
  size_t Choose(double uniform, uint64_t pick) const;

 private:
  const Workload* workload_;
  std::vector<RequestTemplate> templates_;
  std::vector<std::vector<size_t>> by_class_;
};

// Verdict on one response.
enum class Verdict : uint8_t { kOk, kFailed, kWrong, kRefused, kTimedOut };

// Checks an invocation's output sets against the template: exactly one
// output item, byte-equal to the expected payload.
bool OutputMatches(const dfunc::DataSetList& sets, const RequestTemplate& request);
// Classifies an HTTP response (status code + body) for `request`; 200
// bodies are unmarshalled and verified.
Verdict ClassifyResponse(int status, std::string_view body, const RequestTemplate& request);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
