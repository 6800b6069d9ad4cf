// perfbench: the repository benchmark's binary.
//
//   perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       Untraced (--trace 0): deploys the workload's serving processes,
//       drives them open-loop over loopback HTTP and prints the end-to-end
//       metrics. Traced (--trace 1): replays the same requests through
//       successively deeper public entry points and prints the per-layer
//       metrics. The last stdout line is the JSON result.
//   perfbench serve --workload <name> [--nodes <port,port>]
//       The serving process `run` spawns (see serve.cc).
#include <sys/stat.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "modes.h"

namespace perfbench {

bool Deployment::StartNodes(const Options& options) {
  if (options.workload->kind != WorkloadKind::kRemoteMixed) return true;
  for (int i = 0; i < kNumNodes; ++i) {
    auto node = std::make_unique<Child>();
    const std::string name = "node" + std::to_string(i);
    if (!node->Spawn({options.bin_dir + "/dandelion_node", "--name=" + name,
                      "--workers=" + std::to_string(kNodeWorkers)},
                     options.bin_dir + "/logs/" + name + ".log")) {
      return false;
    }
    nodes_.push_back(std::move(node));
  }
  for (auto& node : nodes_) {
    const long port = node->ReadHandshake("LISTENING ", 30);
    if (port <= 0) return false;
    node_ports_.push_back(static_cast<uint16_t>(port));
  }
  return true;
}

bool Deployment::StartServer(const Options& options) {
  std::vector<std::string> argv = {options.bin_dir + "/perfbench", "serve", "--workload",
                                   options.workload->name};
  if (!node_ports_.empty()) {
    std::string ports;
    for (uint16_t port : node_ports_) ports += (ports.empty() ? "" : ",") + std::to_string(port);
    argv.push_back("--nodes");
    argv.push_back(ports);
  }
  server_ = std::make_unique<Child>();
  if (!server_->Spawn(argv, options.bin_dir + "/logs/server.log")) return false;
  const long port = server_->ReadHandshake("READY ", 30);
  if (port <= 0) return false;
  port_ = static_cast<uint16_t>(port);
  return true;
}

std::vector<pid_t> Deployment::ServingPids() const {
  std::vector<pid_t> pids;
  if (server_) pids.push_back(server_->pid());
  for (const auto& node : nodes_) pids.push_back(node->pid());
  return pids;
}

uint64_t PhaseSeed(uint64_t seed, const std::string& label) {
  uint64_t h = 1469598103934665603ULL ^ seed;
  for (char c : label) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  return h;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const auto& metric : metrics) {
    std::printf("%-36s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench serve --workload <name> [--nodes <port,port>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  perfbench::Options options;
  std::vector<uint16_t> node_ports;
  bool traced = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = perfbench::FindWorkload(value);
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      traced = std::strcmp(value, "1") == 0;
    } else if (key == "--nodes") {
      for (const char* p = value; *p != '\0';) {
        char* end = nullptr;
        node_ports.push_back(static_cast<uint16_t>(std::strtoul(p, &end, 10)));
        p = *end == ',' ? end + 1 : end;
      }
    } else {
      return Usage();
    }
  }
  if (options.workload == nullptr || options.seconds <= 0) return Usage();

  char exe[PATH_MAX] = {};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return 1;
  options.bin_dir = std::string(exe, static_cast<size_t>(n));
  options.bin_dir.erase(options.bin_dir.rfind('/'));
  mkdir((options.bin_dir + "/logs").c_str(), 0755);

  if (mode == "serve") return perfbench::Serve(*options.workload, node_ports);
  if (mode == "run") {
    return traced ? perfbench::RunTraced(options) : perfbench::RunEndToEnd(options);
  }
  return Usage();
}
