// `perfbench serve`: the serving process of one workload. It runs the
// system exactly as a deployment would (platform, HTTP frontend, and for
// remote_mixed a cluster router over the given engine-node ports), prints
// "READY <port>" and serves until SIGTERM. Running it apart from the load
// generator keeps the generator's CPU out of the serving-side numbers.
#include <signal.h>

#include <cstdio>
#include <memory>

#include "modes.h"
#include "src/runtime/cluster.h"
#include "src/runtime/frontend.h"

namespace perfbench {

int Serve(const Workload& workload, const std::vector<uint16_t>& node_ports) {
  // Block the stop signals before any thread exists, so every thread
  // inherits the mask and sigwait below is the only receiver.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  signal(SIGPIPE, SIG_IGN);

  dandelion::Platform platform(ServingPlatformConfig(workload));
  if (auto status = RegisterCompositions(platform); !status.ok()) {
    std::fprintf(stderr, "register: %s\n", status.ToString().c_str());
    return 1;
  }
  std::unique_ptr<dandelion::Cluster> cluster;
  if (!node_ports.empty()) {
    cluster = std::make_unique<dandelion::Cluster>(RouterConfig(node_ports));
  }
  dandelion::HttpFrontend frontend(&platform, dandelion::FrontendConfig{});
  if (cluster) frontend.AttachCluster(cluster.get());
  if (auto status = frontend.Start(); !status.ok()) {
    std::fprintf(stderr, "frontend: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("READY %u\n", static_cast<unsigned>(frontend.port()));
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&stop_signals, &signal_number);
  frontend.Stop();
  if (cluster) cluster->Shutdown();
  platform.Shutdown();
  return 0;
}

dandelion::Cluster::Config RouterConfig(const std::vector<uint16_t>& node_ports) {
  dandelion::Cluster::Config config;
  config.num_nodes = 0;
  config.policy = dandelion::LoadBalancePolicy::kLeastLoaded;
  for (size_t i = 0; i < node_ports.size(); ++i) {
    config.remote_nodes.push_back({"node" + std::to_string(i), node_ports[i]});
  }
  return config;
}

}  // namespace perfbench
