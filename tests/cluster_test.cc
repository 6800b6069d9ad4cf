// Tests for the cluster manager: cluster-wide registration, and the routing
// cases (round-robin, least-loaded, locality, failures, deadlines, served
// accounting) run over both node transports — in-process Platform nodes
// and NodeAgent engines reached over the dnet wire on loopback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "src/base/clock.h"
#include "src/base/thread.h"
#include "src/func/builtins.h"
#include "src/http/services.h"
#include "src/runtime/cluster.h"
#include "src/runtime/node_agent.h"

namespace dandelion {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

Cluster::Config SmallClusterConfig(int nodes, LoadBalancePolicy policy) {
  Cluster::Config config;
  config.num_nodes = nodes;
  config.policy = policy;
  config.node_config.num_workers = 2;
  config.node_config.backend = IsolationBackend::kThread;
  config.node_config.sleep_for_modeled_latency = false;
  return config;
}

DataSetList EchoArgs(const std::string& value) {
  DataSetList args;
  args.push_back(DataSet{"in", {DataItem{"", value}}});
  return args;
}

constexpr const char* kIdDsl =
    "composition Id(in) => out { echo(in = all in) => (out = out); }";

TEST(ClusterTest, RegistrationReachesEveryNode) {
  Cluster cluster(SmallClusterConfig(3, LoadBalancePolicy::kRoundRobin));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(cluster.RegisterCompositionDsl(kIdDsl).ok());
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_TRUE(cluster.node(n).functions().Contains("echo"));
    EXPECT_TRUE(cluster.node(n).compositions().Contains("Id"));
  }
}

TEST(ClusterTest, CoreSplitsReportEveryNode) {
  Cluster::Config config = SmallClusterConfig(3, LoadBalancePolicy::kRoundRobin);
  config.node_config.num_workers = 4;
  config.node_config.initial_comm_workers = 1;
  Cluster cluster(config);
  const auto splits = cluster.CoreSplits();
  ASSERT_EQ(splits.size(), 3u);
  for (const auto& split : splits) {
    EXPECT_EQ(split.compute_workers + split.comm_workers, 4);
    EXPECT_EQ(split.comm_workers, 1);  // No control plane: the initial split.
  }
  // A node-local role shift is visible in the cluster-wide view.
  ASSERT_EQ(cluster.node(0).workers().ShiftWorkers(-1), -1);
  EXPECT_EQ(cluster.CoreSplits()[0].comm_workers, 2);
}

TEST(ClusterTest, RegistrationFailurePropagates) {
  Cluster cluster(SmallClusterConfig(2, LoadBalancePolicy::kRoundRobin));
  ASSERT_TRUE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  EXPECT_FALSE(cluster.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
}

TEST(ClusterTest, ForEachNodeConfiguresServices) {
  Cluster cluster(SmallClusterConfig(2, LoadBalancePolicy::kRoundRobin));
  int visited = 0;
  cluster.ForEachNode([&](Platform& node) {
    ++visited;
    node.mesh().Register("svc.internal", std::make_shared<dhttp::EchoService>());
  });
  EXPECT_EQ(visited, 2);
  EXPECT_TRUE(cluster.node(0).mesh().HasHost("svc.internal"));
  EXPECT_TRUE(cluster.node(1).mesh().HasHost("svc.internal"));
}

// ------------------------------------------------- routing, both flavors

enum class Flavor { kLocal, kRemote };

// A cluster of N nodes of one flavor. Remote nodes are NodeAgents, each
// with its own Platform, serving the dnet wire on an ephemeral loopback
// port; the router dials them with no local nodes of its own.
class ClusterRoutingTest : public ::testing::TestWithParam<Flavor> {
 protected:
  dbase::Status Start(int nodes, LoadBalancePolicy policy) {
    Cluster::Config config = SmallClusterConfig(nodes, policy);
    if (GetParam() == Flavor::kRemote) {
      config.num_nodes = 0;
      config.gossip_interval_us = 0;  // Routing reads router-side state only.
      for (int n = 0; n < nodes; ++n) {
        owned_.push_back(std::make_unique<Platform>(config.node_config));
        agents_.push_back(std::make_unique<NodeAgent>(
            owned_.back().get(), NodeAgentConfig{.node_name = "n" + std::to_string(n)}));
        RETURN_IF_ERROR(agents_.back()->Start());
        config.remote_nodes.push_back({"n" + std::to_string(n), agents_.back()->port()});
        platforms_.push_back(owned_.back().get());
      }
    }
    cluster_ = std::make_unique<Cluster>(config);
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      platforms_.push_back(&cluster_->node(n));
    }
    Register({.name = "echo", .body = dfunc::EchoFunction});
    RegisterDsl(kIdDsl);
    return dbase::OkStatus();
  }

  void TearDown() override {
    cluster_.reset();
    for (auto& agent : agents_) {
      agent->Stop();
    }
  }

  void Register(const dfunc::FunctionSpec& spec) {
    for (Platform* platform : platforms_) {
      ASSERT_TRUE(platform->RegisterFunction(spec).ok());
    }
  }
  void RegisterDsl(const char* dsl) {
    for (Platform* platform : platforms_) {
      ASSERT_TRUE(platform->RegisterCompositionDsl(dsl).ok());
    }
  }
  uint64_t InvocationsStarted() const {
    uint64_t started = 0;
    for (const Platform* platform : platforms_) {
      started += platform->dispatcher_stats().invocations_started;
    }
    return started;
  }

  Cluster& cluster() { return *cluster_; }

 private:
  std::vector<std::unique_ptr<Platform>> owned_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::vector<Platform*> platforms_;  // Serving engines, in node order.
  std::unique_ptr<Cluster> cluster_;
};

#define START_CLUSTER(nodes, policy)                                           \
  if (dbase::Status started = Start(nodes, policy); !started.ok()) {           \
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();    \
  }

// Holds its engine worker for `millis` before echoing.
dfunc::FunctionSpec SlowSpec(const char* name, int millis) {
  return {.name = name, .body = [millis](dfunc::FunctionCtx& ctx) {
            dbase::SpinFor(millis * dbase::kMicrosPerMilli);
            return dfunc::EchoFunction(ctx);
          }};
}

TEST_P(ClusterRoutingTest, RoundRobinSpreadsEvenly) {
  START_CLUSTER(3, LoadBalancePolicy::kRoundRobin);
  for (int i = 0; i < 9; ++i) {
    auto routed =
        cluster().Invoke({.composition = "Id", .args = EchoArgs("x" + std::to_string(i))});
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed.node_index, i % 3);
  }
  const auto counts = cluster().InvocationsPerNode();
  EXPECT_EQ(counts, (std::vector<uint64_t>{3, 3, 3}));
}

TEST_P(ClusterRoutingTest, ResultsCorrectRegardlessOfNode) {
  START_CLUSTER(4, LoadBalancePolicy::kRoundRobin);
  for (int i = 0; i < 12; ++i) {
    const std::string payload = "payload-" + std::to_string(i);
    auto routed = cluster().Invoke({.composition = "Id", .args = EchoArgs(payload)});
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(routed.sets()[0].items[0].data, payload);
  }
}

TEST_P(ClusterRoutingTest, LeastLoadedAvoidsBusyNode) {
  START_CLUSTER(2, LoadBalancePolicy::kLeastLoaded);
  Register(SlowSpec("slow", 50));
  RegisterDsl("composition Slow(in) => out { slow(in = all in) => (out = out); }");

  // First request picks node 0 (all empty) and stays in flight there.
  dbase::Latch slow_done(1);
  cluster().InvokeAsync({.composition = "Slow", .args = EchoArgs("occupy")},
                        [&](dbase::Result<DataSetList> result, int node) {
                          EXPECT_TRUE(result.ok());
                          EXPECT_EQ(node, 0);
                          slow_done.CountDown();
                        });
  // While node 0 is busy, least-loaded must route elsewhere.
  auto routed = cluster().Invoke({.composition = "Id", .args = EchoArgs("quick")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.node_index, 1);
  ASSERT_TRUE(slow_done.WaitFor(5 * dbase::kMicrosPerSecond));
}

TEST_P(ClusterRoutingTest, UnknownCompositionFailsButReportsNode) {
  START_CLUSTER(2, LoadBalancePolicy::kRoundRobin);
  auto routed = cluster().Invoke({.composition = "Ghost", .args = {}});
  EXPECT_FALSE(routed.ok());
  ASSERT_GE(routed.node_index, 0);
  // The node's error is its terminal answer: it counts as served.
  EXPECT_EQ(cluster().InvocationsPerNode()[static_cast<size_t>(routed.node_index)], 1u);
}

TEST_P(ClusterRoutingTest, SingleNodeClusterWorks) {
  START_CLUSTER(1, LoadBalancePolicy::kLeastLoaded);
  auto routed = cluster().Invoke({.composition = "Id", .args = EchoArgs("solo")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.node_index, 0);
}

TEST_P(ClusterRoutingTest, RoutedRequestCarriesDeadlineAndClass) {
  START_CLUSTER(2, LoadBalancePolicy::kLeastLoaded);
  auto routed = cluster().Invoke({.composition = "Id",
                                  .args = EchoArgs("routed"),
                                  .deadline_us = InvocationRequest::DeadlineIn(
                                      5 * dbase::kMicrosPerSecond),
                                  .priority = PriorityClass::kBatch});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_GE(routed.node_index, 0);
  EXPECT_EQ(routed.sets()[0].items[0].data, "routed");
  // The serving node's dispatcher saw the request.
  EXPECT_EQ(InvocationsStarted(), 1u);

  // A routed request whose deadline has already passed fails with
  // kDeadlineExceeded instead of hanging the caller. Deadline 1 is the
  // monotonic epoch: long past.
  auto expired =
      cluster().Invoke({.composition = "Id", .args = EchoArgs("late"), .deadline_us = 1});
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), dbase::StatusCode::kDeadlineExceeded);
}

TEST_P(ClusterRoutingTest, ConcurrentInvocationsAcrossNodes) {
  START_CLUSTER(3, LoadBalancePolicy::kRoundRobin);
  constexpr int kTotal = 48;
  dbase::Latch latch(kTotal);
  std::atomic<int> correct{0};
  for (int i = 0; i < kTotal; ++i) {
    cluster().InvokeAsync({.composition = "Id", .args = EchoArgs("v" + std::to_string(i))},
                          [&, i](dbase::Result<DataSetList> result, int) {
                            if (result.ok() &&
                                (*result)[0].items[0].data == "v" + std::to_string(i)) {
                              correct.fetch_add(1);
                            }
                            latch.CountDown();
                          });
  }
  ASSERT_TRUE(latch.WaitFor(30 * dbase::kMicrosPerSecond));
  EXPECT_EQ(correct.load(), kTotal);
  const auto counts = cluster().InvocationsPerNode();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), uint64_t{0}),
            static_cast<uint64_t>(kTotal));
  for (uint64_t count : counts) {
    EXPECT_EQ(count, static_cast<uint64_t>(kTotal / 3));
  }
}

TEST_P(ClusterRoutingTest, LocalitySticksToTheWarmNodeAndFallsBackForColdOnes) {
  START_CLUSTER(2, LoadBalancePolicy::kLocality);
  Register(SlowSpec("slow", 80));
  RegisterDsl("composition Sticky(in) => out { slow(in = all in) => (out = out); }");

  // A composition never seen before has no affinity: the first invoke pays
  // the least-loaded scan (all idle → node 0) and warms that node.
  auto routed = cluster().Invoke({.composition = "Sticky", .args = EchoArgs("warm")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.node_index, 0);

  // Park an in-flight Sticky on the warm node.
  dbase::Latch parked(1);
  cluster().InvokeAsync({.composition = "Sticky", .args = EchoArgs("occupy")},
                        [&](dbase::Result<DataSetList> result, int node) {
                          EXPECT_TRUE(result.ok());
                          EXPECT_EQ(node, 0);
                          parked.CountDown();
                        });

  // A cold composition still load-balances: node 0 is busier, so Id's
  // first invoke lands on node 1 (and warms it for Id).
  routed = cluster().Invoke({.composition = "Id", .args = EchoArgs("cold")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.node_index, 1);

  // Sticky keeps going to its warm node even though node 1 is idle —
  // exactly the trade locality makes against pure least-loaded.
  routed = cluster().Invoke({.composition = "Sticky", .args = EchoArgs("again")});
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed.node_index, 0);

  ASSERT_TRUE(parked.WaitFor(5 * dbase::kMicrosPerSecond));
}

// The served rule: a node has served an invocation once the router
// surfaces its answer, and affinity is noted at that same point — not at
// dispatch.
std::atomic<bool> g_gate_open{false};

TEST_P(ClusterRoutingTest, ServedAndAffinityAreNotedWhenTheAnswerSurfaces) {
  START_CLUSTER(2, LoadBalancePolicy::kLocality);
  g_gate_open = false;
  Register({.name = "gated", .body = [](dfunc::FunctionCtx& ctx) {
              while (!g_gate_open.load()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
              return dfunc::EchoFunction(ctx);
            }});
  RegisterDsl("composition Gated(in) => out { gated(in = all in) => (out = out); }");

  dbase::Latch done(2);
  std::atomic<int> first_node{-1};
  std::atomic<int> second_node{-1};
  const auto invoke = [&](std::atomic<int>* node_out) {
    cluster().InvokeAsync({.composition = "Gated", .args = EchoArgs("held")},
                          [&, node_out](dbase::Result<DataSetList> result, int node) {
                            EXPECT_TRUE(result.ok());
                            node_out->store(node);
                            done.CountDown();
                          });
  };
  invoke(&first_node);
  // No answer yet, so no affinity: the second invoke load-balances away
  // from the busy node instead of sticking to it.
  invoke(&second_node);
  EXPECT_EQ(cluster().InvocationsPerNode(), (std::vector<uint64_t>{0, 0}));

  g_gate_open = true;
  ASSERT_TRUE(done.WaitFor(5 * dbase::kMicrosPerSecond));
  EXPECT_EQ(first_node.load(), 0);
  EXPECT_EQ(second_node.load(), 1);
  EXPECT_EQ(cluster().InvocationsPerNode(), (std::vector<uint64_t>{1, 1}));
}

INSTANTIATE_TEST_SUITE_P(Flavors, ClusterRoutingTest,
                         ::testing::Values(Flavor::kLocal, Flavor::kRemote),
                         [](const ::testing::TestParamInfo<Flavor>& flavor) {
                           return flavor.param == Flavor::kLocal ? "local" : "remote";
                         });

}  // namespace
}  // namespace dandelion
