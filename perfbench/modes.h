// The perfbench binary's modes and the pieces they share.
#ifndef PERFBENCH_MODES_H_
#define PERFBENCH_MODES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "procs.h"
#include "src/runtime/cluster.h"
#include "workload.h"

namespace perfbench {

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  // Directory holding the perfbench and dandelion_node binaries; child
  // stderr goes to <bin_dir>/logs/.
  std::string bin_dir;
};

// The serving side of a workload as separate processes: for remote_mixed
// the engine nodes, and the serving frontend process. Destruction stops
// them all.
class Deployment {
 public:
  bool StartNodes(const Options& options);
  bool StartServer(const Options& options);
  uint16_t port() const { return port_; }
  const std::vector<uint16_t>& node_ports() const { return node_ports_; }
  std::vector<pid_t> ServingPids() const;

 private:
  std::vector<std::unique_ptr<Child>> nodes_;
  std::vector<uint16_t> node_ports_;
  std::unique_ptr<Child> server_;
  uint16_t port_ = 0;
};

// The router configuration the serving process (and the traced run) puts
// in front of spawned engine nodes.
dandelion::Cluster::Config RouterConfig(const std::vector<uint16_t>& node_ports);

int Serve(const Workload& workload, const std::vector<uint16_t>& node_ports);
int RunEndToEnd(const Options& options);
int RunTraced(const Options& options);

// Derives a phase seed from the workload seed and a phase label.
uint64_t PhaseSeed(uint64_t seed, const std::string& label);

// Prints the result line: {"correct", "attempted", "failed", "metrics"}.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_MODES_H_
