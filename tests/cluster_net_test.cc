// Distributed data-plane tests: real TCP node wire between a Cluster
// router and engine nodes (in-process NodeAgents and spawned
// dandelion_node daemons), covering remote invocation end-to-end,
// zero-copy accounting, cross-node shedding, peer-loss absorption via the
// retry taxonomy, gossip-driven membership (suspect → evict → rejoin),
// mesh calls carried over the wire, protocol hygiene against hostile
// frames, the statz cluster section, and the HTTP frontend serving on the
// router's wire reactor.
#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/base/clock.h"
#include "src/base/thread.h"
#include "src/benchutil/spawn_node.h"
#include "src/func/builtins.h"
#include "src/func/data.h"
#include "src/http/http_parser.h"
#include "src/http/sanitizer.h"
#include "src/http/services.h"
#include "src/net/wire.h"
#include "src/runtime/cluster.h"
#include "src/runtime/frontend.h"
#include "src/runtime/node_agent.h"
#include "src/runtime/platform.h"

namespace dandelion {
namespace {

using dfunc::DataItem;
using dfunc::DataSet;
using dfunc::DataSetList;

PlatformConfig FastPlatformConfig() {
  PlatformConfig config;
  config.num_workers = 2;
  config.backend = IsolationBackend::kThread;
  config.sleep_for_modeled_latency = false;
  return config;
}

DataSetList EchoArgs(std::string value) {
  DataSetList args;
  args.push_back(DataSet{"in", {DataItem{"", std::move(value)}}});
  return args;
}

// Holds an engine worker for a while before echoing — the occupier for
// shed and peer-loss scenarios.
dbase::Status NapEcho(dfunc::FunctionCtx& ctx) {
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  return dfunc::EchoFunction(ctx);
}

constexpr const char* kNodeDsl = R"(
composition Id(in) => out { echo(in = all in) => (out = out); }
composition Nap(in) => out { nap(in = all in) => (out = out); }
)";

// One in-process engine node: a Platform wrapped in a NodeAgent serving
// the dnet wire on an ephemeral loopback port.
class AgentNode {
 public:
  explicit AgentNode(NodeAgentConfig config = NodeAgentConfig{})
      : platform_(FastPlatformConfig()), agent_(&platform_, config) {
    EXPECT_TRUE(platform_.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    EXPECT_TRUE(platform_.RegisterFunction({.name = "nap", .body = NapEcho}).ok());
    EXPECT_TRUE(platform_.RegisterCompositionDsl(kNodeDsl).ok());
    started_ = agent_.Start();
  }
  ~AgentNode() { agent_.Stop(); }

  bool skipped() const { return !started_.ok(); }
  std::string skip_reason() const { return started_.ToString(); }
  uint16_t port() const { return agent_.port(); }
  Platform& platform() { return platform_; }
  NodeAgent& agent() { return agent_; }

 private:
  Platform platform_;
  NodeAgent agent_;
  dbase::Status started_;
};

#define SKIP_WITHOUT_LOOPBACK(node)                                               \
  if ((node).skipped()) {                                                         \
    GTEST_SKIP() << "loopback sockets unavailable: " << (node).skip_reason();     \
  }

Cluster::Config RemoteClusterConfig(std::vector<Cluster::RemoteNode> remotes,
                                    LoadBalancePolicy policy) {
  Cluster::Config config;
  config.num_nodes = 0;
  config.policy = policy;
  config.remote_nodes = std::move(remotes);
  config.node_config = FastPlatformConfig();
  config.gossip_interval_us = 0;  // Tests drive GossipNow() by hand.
  return config;
}

const Cluster::PeerStats* FindPeer(const Cluster::ClusterStats& stats,
                                   const std::string& name) {
  for (const auto& peer : stats.peers) {
    if (peer.name == name) return &peer;
  }
  return nullptr;
}

// ------------------------------------------------------------ end-to-end

TEST(ClusterNetTest, RemoteInvokeEndToEnd) {
  AgentNode a(NodeAgentConfig{.node_name = "na"});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(a);
  SKIP_WITHOUT_LOOPBACK(b);

  Cluster cluster(RemoteClusterConfig({{"na", a.port()}, {"nb", b.port()}},
                                      LoadBalancePolicy::kRoundRobin));
  EXPECT_EQ(cluster.num_nodes(), 0);
  EXPECT_EQ(cluster.total_nodes(), 2);

  for (int i = 0; i < 4; ++i) {
    const std::string payload = "remote-" + std::to_string(i);
    auto routed = cluster.Invoke({.composition = "Id", .args = EchoArgs(payload)});
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(routed.sets()[0].items[0].data.ToString(), payload);
    EXPECT_EQ(routed.attempts, 1);
    EXPECT_TRUE(routed.node_name == "na" || routed.node_name == "nb") << routed.node_name;
  }
  const auto counts = cluster.InvocationsPerNode();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0] + counts[1], 4u);
  EXPECT_EQ(a.agent().invocations_served() + b.agent().invocations_served(), 4u);
}

TEST(ClusterNetTest, RemoteInvokeAddsZeroPayloadCopies) {
  constexpr size_t kPayloadBytes = 1 << 20;

  // Baseline: the same invocation served by one in-process local node. The
  // only payload copy on this path is the sandbox boundary itself (function
  // outputs marshal into the sandbox's memory context before the aliased
  // read-back).
  uint64_t local_copied = 0;
  uint64_t local_aliased = 0;
  {
    Cluster::Config config = RemoteClusterConfig({}, LoadBalancePolicy::kRoundRobin);
    config.num_nodes = 1;
    Cluster local(config);
    ASSERT_TRUE(local.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    ASSERT_TRUE(local.RegisterCompositionDsl(kNodeDsl).ok());
    ASSERT_TRUE((local.Invoke({.composition = "Id", .args = EchoArgs("warmup")})).ok());
    const auto before = dfunc::DataPlaneStats::Get().snapshot();
    auto routed =
        local.Invoke({.composition = "Id", .args = EchoArgs(std::string(kPayloadBytes, 'q'))});
    const auto after = dfunc::DataPlaneStats::Get().snapshot();
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    local_copied = after.bytes_copied - before.bytes_copied;
    local_aliased = after.bytes_aliased - before.bytes_aliased;
  }

  AgentNode node(NodeAgentConfig{.node_name = "nz"});
  SKIP_WITHOUT_LOOPBACK(node);
  Cluster cluster(
      RemoteClusterConfig({{"nz", node.port()}}, LoadBalancePolicy::kRoundRobin));
  // Warm-up: connection establishment and first-invoke setup out of the
  // measured window.
  ASSERT_TRUE((cluster.Invoke({.composition = "Id", .args = EchoArgs("warmup")})).ok());

  const auto before = dfunc::DataPlaneStats::Get().snapshot();
  auto routed =
      cluster.Invoke({.composition = "Id", .args = EchoArgs(std::string(kPayloadBytes, 'q'))});
  const auto after = dfunc::DataPlaneStats::Get().snapshot();
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ASSERT_EQ(routed.sets()[0].items[0].data.size(), kPayloadBytes);

  // The wire is a seam of the PR 7 zero-copy plane, not an excuse to copy:
  // scatter-encode → writev on the way out, aliasing unmarshal over the
  // receive buffer on the way in, at both ends. Crossing the wire must add
  // ZERO payload copies over the local path — only aliases (request encode
  // + decode, outcome encode + decode move the payload by reference four
  // more times).
  EXPECT_EQ(after.bytes_copied - before.bytes_copied, local_copied);
  EXPECT_GE(after.bytes_aliased - before.bytes_aliased, local_aliased + 2 * kPayloadBytes);
}

TEST(ClusterNetTest, RemoteDeadlineSurfacesAsDeadlineExceeded) {
  AgentNode node(NodeAgentConfig{.node_name = "nd"});
  SKIP_WITHOUT_LOOPBACK(node);
  Cluster cluster(
      RemoteClusterConfig({{"nd", node.port()}}, LoadBalancePolicy::kRoundRobin));

  InvocationRequest request;
  request.composition = "Nap";  // Naps 500 ms; deadline is 50 ms.
  request.args = EchoArgs("late");
  request.deadline_us = InvocationRequest::DeadlineIn(50 * dbase::kMicrosPerMilli);
  auto routed = cluster.Invoke(std::move(request));
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), dbase::StatusCode::kDeadlineExceeded)
      << routed.status().ToString();
  // A deadline is the client's decision, not a node failure: no re-route.
  EXPECT_EQ(cluster.Stats().reroutes_peer_lost, 0u);
}

// --------------------------------------------------------------- shedding

TEST(ClusterNetTest, ShedPeerReroutesToSibling) {
  // Node A admits one interactive invocation at a time; node B is open.
  AgentNode a(NodeAgentConfig{.node_name = "na", .max_inflight_interactive = 1});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(a);
  SKIP_WITHOUT_LOOPBACK(b);
  Cluster cluster(RemoteClusterConfig({{"na", a.port()}, {"nb", b.port()}},
                                      LoadBalancePolicy::kRoundRobin));

  // Occupy A (round-robin starts there) with a napping invocation.
  dbase::Latch nap_done(1);
  cluster.InvokeAsync({.composition = "Nap", .args = EchoArgs("occupy")},
                      [&](dbase::Result<DataSetList> result, int node) {
                        EXPECT_TRUE(result.ok()) << result.status().ToString();
                        EXPECT_EQ(node, 0);
                        nap_done.CountDown();
                      });
  const auto arrived = [&] {
    return a.platform().dispatcher_stats().invocations_started >= 1;
  };
  for (int i = 0; i < 500 && !arrived(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(arrived()) << "occupier never reached node A";

  // Round-robin sends this one to B directly.
  auto direct = cluster.Invoke({.composition = "Id", .args = EchoArgs("direct")});
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct.node_name, "nb");

  // This one is aimed at A, which sheds at its cap — the router re-routes
  // it once to B instead of surfacing the 429-equivalent.
  auto rerouted = cluster.Invoke({.composition = "Id", .args = EchoArgs("rerouted")});
  ASSERT_TRUE(rerouted.ok()) << rerouted.status().ToString();
  EXPECT_EQ(rerouted.node_name, "nb");
  EXPECT_EQ(rerouted.attempts, 2);

  const auto stats = cluster.Stats();
  EXPECT_EQ(stats.reroutes_shed, 1u);
  const auto* peer_a = FindPeer(stats, "na");
  ASSERT_NE(peer_a, nullptr);
  EXPECT_GE(peer_a->sheds_received, 1u);
  EXPECT_GE(a.agent().invocations_shed(), 1u);

  ASSERT_TRUE(nap_done.WaitFor(5 * dbase::kMicrosPerSecond));
}

// -------------------------------------------------------------- peer loss

TEST(ClusterNetTest, PeerLossMidInvokeReroutesToSurvivor) {
  auto a = std::make_unique<AgentNode>(NodeAgentConfig{.node_name = "na"});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(*a);
  SKIP_WITHOUT_LOOPBACK(b);
  Cluster cluster(RemoteClusterConfig({{"na", a->port()}, {"nb", b.port()}},
                                      LoadBalancePolicy::kRoundRobin));

  dbase::Latch done(1);
  std::atomic<int> served_by{-1};
  std::atomic<bool> ok{false};
  dbase::StatusCode code = dbase::StatusCode::kOk;
  cluster.InvokeAsync({.composition = "Nap", .args = EchoArgs("survivor")},
                      [&](dbase::Result<DataSetList> result, int node) {
                        ok.store(result.ok());
                        if (!result.ok()) code = result.status().code();
                        served_by.store(node);
                        done.CountDown();
                      });
  const auto arrived = [&] {
    return a->platform().dispatcher_stats().invocations_started >= 1;
  };
  for (int i = 0; i < 500 && !arrived(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(arrived()) << "invoke never reached node A";

  // Node A dies mid-invocation. The pending invoke fails kUnavailable
  // ("peer lost"), maps to the retry-safe FailureKind::kPeerLost, and the
  // router re-runs it on B — Dandelion functions are pure, so the re-run
  // is side-effect-safe.
  a.reset();

  ASSERT_TRUE(done.WaitFor(10 * dbase::kMicrosPerSecond));
  EXPECT_TRUE(ok.load()) << dbase::StatusCodeName(code);
  EXPECT_EQ(served_by.load(), 1);

  const auto stats = cluster.Stats();
  EXPECT_GE(stats.reroutes_peer_lost, 1u);
  const auto* peer_a = FindPeer(stats, "na");
  ASSERT_NE(peer_a, nullptr);
  EXPECT_EQ(peer_a->state, "suspect");
}

// ------------------------------------------------- multi-process peer kill

TEST(ClusterNetTest, KilledNodeProcessIsAbsorbedByRetryPolicy) {
  // Two workers per daemon, default admission caps.
  const auto spawn = [](const char* name) { return dbench::SpawnNode(name, 2, 256, 256); };
  dbench::SpawnedNode n0 = spawn("proc0");
  if (!n0.ok()) {
    GTEST_SKIP() << "cannot spawn dandelion_node (no loopback or binary missing)";
  }
  dbench::SpawnedNode n1 = spawn("proc1");
  dbench::SpawnedNode n2 = spawn("proc2");
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(n2.ok());

  Cluster cluster(RemoteClusterConfig(
      {{"proc0", n0.port}, {"proc1", n1.port}, {"proc2", n2.port}},
      LoadBalancePolicy::kRoundRobin));

  // Sanity: every process answers before the kill.
  for (int i = 0; i < 3; ++i) {
    auto warm = cluster.Invoke({.composition = "Id", .args = EchoArgs("warm")});
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }

  // A 600 ms Work invocation lands on proc0 (round-robin wrapped back);
  // SIGKILL the process while it is burning.
  dbase::Latch done(1);
  std::atomic<bool> ok{false};
  std::string failure;
  std::mutex failure_mu;
  cluster.InvokeAsync({.composition = "Work", .args = EchoArgs("600000")},
                      [&](dbase::Result<DataSetList> result, int) {
                        ok.store(result.ok());
                        if (!result.ok()) {
                          std::lock_guard<std::mutex> lock(failure_mu);
                          failure = result.status().ToString();
                        }
                        done.CountDown();
                      });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  n0.Kill(SIGKILL);

  ASSERT_TRUE(done.WaitFor(20 * dbase::kMicrosPerSecond));
  {
    std::lock_guard<std::mutex> lock(failure_mu);
    // The killed peer is environmental (kPeerLost, retry-safe): the retry
    // policy absorbs it by re-routing — never a crash-kind 500.
    EXPECT_TRUE(ok.load()) << failure;
  }
  const auto stats = cluster.Stats();
  EXPECT_GE(stats.reroutes_peer_lost, 1u);
  EXPECT_GE(stats.remote_retry.retries_granted, 1u);

  n1.Kill(SIGTERM);
  n2.Kill(SIGTERM);
}

// ------------------------------------------------------------- mesh calls

TEST(ClusterNetTest, MeshCallRidesTheNodeWire) {
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(b);
  // The service physically lives on node B's mesh.
  b.platform().mesh().Register("svc.internal", std::make_shared<dhttp::EchoService>());

  Cluster::Config config =
      RemoteClusterConfig({{"nb", b.port()}}, LoadBalancePolicy::kRoundRobin);
  config.num_nodes = 1;  // One local node whose mesh calls ride the wire.
  Cluster cluster(config);
  cluster.node(0).mesh().RegisterRemote("svc.internal", "nb");

  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "http://svc.internal/echo";
  request.body = "carried over dnet";
  auto sanitized = dhttp::SanitizeRequest(request.Serialize());
  ASSERT_TRUE(sanitized.ok()) << sanitized.status().ToString();

  auto result = cluster.node(0).mesh().Call(*sanitized);
  EXPECT_EQ(result.response.status_code, 200);
  EXPECT_EQ(result.response.body, "carried over dnet");
  EXPECT_EQ(cluster.node(0).mesh().remote_calls(), 1u);
  // The serving node's mesh saw the call as a local one.
  EXPECT_EQ(b.platform().mesh().total_calls(), 1u);
}

// A mesh call holds a dispatch-pool thread for the service's whole
// latency; an invoke reaching the same node meanwhile must be served
// without waiting for it (mesh serving never runs on the wire loop).
TEST(ClusterNetTest, BlockingMeshCallDoesNotDelayInvokeOnSameNode) {
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(b);
  dbase::Latch entered(1);
  dbase::Latch release(1);
  b.platform().mesh().Register(
      "svc.blocking", std::make_shared<dhttp::LambdaService>(
                          [&](const dhttp::HttpRequest& request, const dhttp::Uri&) {
                            entered.CountDown();
                            release.WaitFor(10 * dbase::kMicrosPerSecond);
                            return dhttp::HttpResponse::Ok(request.body);
                          }));

  Cluster::Config mesh_config =
      RemoteClusterConfig({{"nb", b.port()}}, LoadBalancePolicy::kRoundRobin);
  mesh_config.num_nodes = 1;  // The local node's mesh calls ride the wire.
  Cluster mesh_caller(mesh_config);
  mesh_caller.node(0).mesh().RegisterRemote("svc.blocking", "nb");
  Cluster invoker(RemoteClusterConfig({{"nb", b.port()}}, LoadBalancePolicy::kRoundRobin));

  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "http://svc.blocking/hold";
  request.body = "held";
  auto sanitized = dhttp::SanitizeRequest(request.Serialize());
  ASSERT_TRUE(sanitized.ok()) << sanitized.status().ToString();
  std::atomic<bool> mesh_returned{false};
  dbase::JoiningThread mesh_thread("mesh-call", [&] {
    auto result = mesh_caller.node(0).mesh().Call(*sanitized);
    EXPECT_EQ(result.response.status_code, 200);
    EXPECT_EQ(result.response.body, "held");
    mesh_returned = true;
  });
  ASSERT_TRUE(entered.WaitFor(5 * dbase::kMicrosPerSecond));

  // The service is now blocked inside node B; the invoke must not queue
  // behind it.
  const dbase::Stopwatch watch;
  auto routed = invoker.Invoke({.composition = "Id", .args = EchoArgs("not-delayed")});
  const dbase::Micros elapsed = watch.ElapsedMicros();
  const bool mesh_still_blocked = !mesh_returned.load();
  release.CountDown();
  mesh_thread.Join();
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.sets()[0].items[0].data.ToString(), "not-delayed");
  EXPECT_EQ(routed.node_name, "nb");
  EXPECT_TRUE(mesh_still_blocked);
  EXPECT_LT(elapsed, 2 * dbase::kMicrosPerSecond);
  EXPECT_TRUE(mesh_returned.load());
}

// ------------------------------------------------------------- membership

TEST(ClusterNetTest, MembershipSuspectsEvictsAndReadmits) {
  auto c = std::make_unique<AgentNode>(NodeAgentConfig{.node_name = "nc"});
  SKIP_WITHOUT_LOOPBACK(*c);
  const uint16_t port = c->port();

  Cluster::Config config =
      RemoteClusterConfig({{"nc", port}}, LoadBalancePolicy::kRoundRobin);
  config.membership.suspect_after_us = 100 * dbase::kMicrosPerMilli;
  config.membership.evict_after_us = 250 * dbase::kMicrosPerMilli;
  Cluster cluster(config);

  cluster.GossipNow();
  {
    const auto stats = cluster.Stats();
    const auto* peer = FindPeer(stats, "nc");
    ASSERT_NE(peer, nullptr);
    EXPECT_EQ(peer->state, "active");
    EXPECT_GE(peer->gossip_age_us, 0);
    // Interactive + batch caps, 256 each by default.
    EXPECT_EQ(peer->remote_admission_cap, 512u);
  }

  // The node dies. Gossip starts failing; staleness crosses the suspect
  // threshold, then the eviction threshold.
  c.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  cluster.GossipNow();
  EXPECT_EQ(FindPeer(cluster.Stats(), "nc")->state, "suspect");

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  cluster.GossipNow();
  {
    const auto stats = cluster.Stats();
    EXPECT_EQ(FindPeer(stats, "nc")->state, "left");
    EXPECT_GE(stats.membership.suspects, 1u);
    EXPECT_GE(stats.membership.evictions, 1u);
  }
  // With no eligible node, invokes fail fast instead of hanging.
  auto unroutable = cluster.Invoke({.composition = "Id", .args = EchoArgs("nowhere")});
  EXPECT_FALSE(unroutable.ok());
  EXPECT_EQ(unroutable.status().code(), dbase::StatusCode::kUnavailable);

  // The node comes back on the same port: eviction kept probing it, so
  // one gossip round re-admits it without administrative intervention.
  c = std::make_unique<AgentNode>(NodeAgentConfig{.node_name = "nc", .port = port});
  ASSERT_FALSE(c->skipped()) << c->skip_reason();
  cluster.GossipNow();
  {
    const auto stats = cluster.Stats();
    EXPECT_EQ(FindPeer(stats, "nc")->state, "active");
    EXPECT_GE(stats.membership.rejoins, 1u);
  }
  auto routed = cluster.Invoke({.composition = "Id", .args = EchoArgs("welcome back")});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.node_name, "nc");
}

TEST(ClusterNetTest, GossipFillsPeerStatsAndLocalitysticks) {
  AgentNode a(NodeAgentConfig{.node_name = "na"});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(a);
  SKIP_WITHOUT_LOOPBACK(b);
  Cluster cluster(RemoteClusterConfig({{"na", a.port()}, {"nb", b.port()}},
                                      LoadBalancePolicy::kLocality));

  // First placement falls back to least-loaded; afterwards the serve
  // history pins the composition to that node.
  auto first = cluster.Invoke({.composition = "Id", .args = EchoArgs("first")});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (int i = 0; i < 5; ++i) {
    auto routed = cluster.Invoke({.composition = "Id", .args = EchoArgs("again")});
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(routed.node_index, first.node_index);
  }

  cluster.GossipNow();
  const auto stats = cluster.Stats();
  EXPECT_GE(stats.gossip_rounds, 1u);
  const auto* served_peer = FindPeer(stats, first.node_name);
  ASSERT_NE(served_peer, nullptr);
  EXPECT_TRUE(served_peer->remote);
  EXPECT_EQ(served_peer->served, 6u);
  EXPECT_GE(served_peer->invokes_sent, 6u);
  EXPECT_GT(served_peer->bytes_sent, 0u);
  EXPECT_GT(served_peer->bytes_received, 0u);
  EXPECT_GE(served_peer->gossip_age_us, 0);
}

// -------------------------------------------------------- protocol hygiene

int BlockingConnect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{};
  timeout.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendRaw(int fd, const std::string& bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + offset, bytes.size() - offset);
    if (n <= 0) return;  // Peer already dropped us — that is the point.
    offset += static_cast<size_t>(n);
  }
}

// Reads until EOF (connection dropped by the server) or the RCVTIMEO.
// True when the server dropped the connection: a clean EOF, or a reset —
// aborting with our unsent bytes still in the socket buffer makes the
// kernel answer RST rather than FIN, and both mean "you were cut off".
bool ReadUntilEof(int fd) {
  char buffer[4096];
  while (true) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n == 0) return true;
    if (n < 0) return errno == ECONNRESET;
  }
}

std::string ValidInvokeFrame() {
  dnet::WireInvoke invoke;
  invoke.composition = "Id";
  invoke.invocation_id = 7;
  invoke.args.push_back(DataSet{"in", {DataItem{"", "fuzz seed payload"}}});
  std::string body;
  for (const auto& chunk : dnet::EncodeInvoke(invoke)) {
    body.append(chunk.view());
  }
  dnet::FrameHeader header;
  header.type = dnet::FrameType::kInvoke;
  header.body_len = static_cast<uint32_t>(body.size());
  header.request_id = 99;
  return dnet::EncodeFrameHeader(header) + body;
}

TEST(ClusterNetTest, HostileFramesDropTheConnectionNotTheServer) {
  AgentNode node(NodeAgentConfig{.node_name = "nh",
                                 .limits = dnet::FrameLimits{.max_body_bytes = 4096}});
  SKIP_WITHOUT_LOOPBACK(node);
  const dnet::NodeServer& server = node.agent().server();

  const std::string valid = ValidInvokeFrame();
  std::vector<std::pair<const char*, std::string>> hostile;
  hostile.emplace_back("http instead of dnet", std::string("GET / HTTP/1.1\r\n\r\n"));
  {
    std::string bad_magic = valid;
    bad_magic[0] ^= 0xFF;
    hostile.emplace_back("bad magic", bad_magic);
  }
  {
    std::string bad_version = valid;
    bad_version[4] = 9;
    hostile.emplace_back("unknown version", bad_version);
  }
  {
    std::string bad_type = valid;
    bad_type[5] = 0x5A;
    hostile.emplace_back("unknown frame type", bad_type);
  }
  {
    std::string bad_reserved = valid;
    bad_reserved[12] = 1;
    hostile.emplace_back("reserved word set", bad_reserved);
  }
  {
    dnet::FrameHeader oversized;
    oversized.type = dnet::FrameType::kInvoke;
    oversized.body_len = 5000;  // Beyond the 4096-byte limit.
    hostile.emplace_back("oversized body length", dnet::EncodeFrameHeader(oversized));
  }
  {
    dnet::FrameHeader header;
    header.type = dnet::FrameType::kInvoke;
    header.body_len = 8;
    hostile.emplace_back("corrupt invoke body",
                         dnet::EncodeFrameHeader(header) + std::string(8, '\xEE'));
  }

  uint64_t expected_errors = server.protocol_errors();
  for (const auto& [label, bytes] : hostile) {
    const int fd = BlockingConnect(node.port());
    SendRaw(fd, bytes);
    // The contract: kInvalidArgument internally, connection dropped, no
    // reply bytes owed. From out here that is a clean EOF.
    EXPECT_TRUE(ReadUntilEof(fd)) << label;
    close(fd);
    ++expected_errors;
    const auto counted = [&] { return server.protocol_errors() >= expected_errors; };
    for (int i = 0; i < 500 && !counted(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(counted()) << label << ": protocol_errors=" << server.protocol_errors()
                           << " want>=" << expected_errors;
  }

  // A half-sent header followed by a hangup is not a protocol error, just
  // an EOF — and must not wedge the accept loop.
  {
    const int fd = BlockingConnect(node.port());
    SendRaw(fd, valid.substr(0, 11));
    close(fd);
  }

  // Deterministic fuzz: bounded random mutations of a valid invoke frame.
  // Whatever the bytes decode to, the server must survive.
  uint64_t rng = 0x9E3779B97F4A7C15ull;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 150; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      mutated[next() % mutated.size()] ^= static_cast<char>(next() & 0xFF);
    }
    const int fd = BlockingConnect(node.port());
    SendRaw(fd, mutated);
    close(fd);
  }

  // Liveness: the server still speaks the protocol to a well-behaved
  // router after all of the above.
  Cluster cluster(
      RemoteClusterConfig({{"nh", node.port()}}, LoadBalancePolicy::kRoundRobin));
  auto routed = cluster.Invoke({.composition = "Id", .args = EchoArgs("still alive")});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.sets()[0].items[0].data.ToString(), "still alive");
}

// ------------------------------------------------------------------ statz

void HttpSendAll(int fd, const std::string& data) {
  size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = write(fd, data.data() + offset, data.size() - offset);
    ASSERT_GT(n, 0);
    offset += static_cast<size_t>(n);
  }
}

// Reads `count` pipelined responses off fd, in wire order.
dbase::Result<std::vector<dhttp::HttpResponse>> ReadHttpResponses(int fd, size_t count) {
  std::vector<dhttp::HttpResponse> responses;
  std::string carry;
  char buffer[8192];
  while (responses.size() < count) {
    auto head = dhttp::ScanMessageHead(carry, 1 << 20);
    if (!head.ok()) return head.status();
    if (head->has_value()) {
      const size_t total = (*head)->head_bytes + static_cast<size_t>((*head)->content_length);
      if (carry.size() >= total) {
        ASSIGN_OR_RETURN(dhttp::HttpResponse response,
                         dhttp::ParseResponse(std::string_view(carry).substr(0, total)));
        responses.push_back(std::move(response));
        carry.erase(0, total);
        continue;
      }
    }
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) return dbase::Unavailable("connection closed mid-response");
    carry.append(buffer, static_cast<size_t>(n));
  }
  return responses;
}

dbase::Result<dhttp::HttpResponse> ReadOneHttpResponse(int fd) {
  ASSIGN_OR_RETURN(std::vector<dhttp::HttpResponse> responses, ReadHttpResponses(fd, 1));
  return std::move(responses.front());
}

TEST(ClusterNetTest, StatzReportsClusterSection) {
  AgentNode remote(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(remote);
  Cluster cluster(
      RemoteClusterConfig({{"nb", remote.port()}}, LoadBalancePolicy::kRoundRobin));

  // The frontend's own platform holds the composition catalog; the
  // attached cluster carries the invocations to the remote node.
  Platform platform(FastPlatformConfig());
  ASSERT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
  ASSERT_TRUE(platform.RegisterCompositionDsl(kNodeDsl).ok());
  HttpFrontend frontend(&platform, FrontendConfig{});
  frontend.AttachCluster(&cluster);
  auto started = frontend.Start();
  if (!started.ok()) {
    GTEST_SKIP() << "loopback sockets unavailable: " << started.ToString();
  }

  // One invocation through the whole path: HTTP ingest → cluster routing
  // → dnet wire → remote engine → wire → HTTP response.
  {
    dhttp::HttpRequest request;
    request.method = dhttp::Method::kPost;
    request.target = "/invoke/Id";
    request.headers.Add("X-Dandelion-Raw", "1");
    request.body = "via the whole stack";
    const int fd = BlockingConnect(frontend.port());
    HttpSendAll(fd, request.Serialize());
    auto response = ReadOneHttpResponse(fd);
    close(fd);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status_code, 200);
    auto sets = dfunc::UnmarshalSets(response->body);
    ASSERT_TRUE(sets.ok());
    EXPECT_EQ((*sets)[0].items[0].data.ToString(), "via the whole stack");
    EXPECT_EQ(remote.agent().invocations_served(), 1u);
  }

  cluster.GossipNow();
  {
    const int fd = BlockingConnect(frontend.port());
    HttpSendAll(fd, "GET /statz HTTP/1.1\r\n\r\n");
    auto response = ReadOneHttpResponse(fd);
    close(fd);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status_code, 200);
    const std::string& body = response->body;
    EXPECT_NE(body.find("\"cluster\":{\"enabled\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"reroutes_shed\":"), std::string::npos);
    EXPECT_NE(body.find("\"gossip_rounds\":"), std::string::npos);
    EXPECT_NE(body.find("\"nb\":{\"remote\":true"), std::string::npos) << body;
    EXPECT_NE(body.find("\"bytes_sent\":"), std::string::npos);
  }
  frontend.Stop();
}

// --------------------------------------------------------- shared reactor

// Runs fn on a helper thread and waits at most `bound` for it. A hung call
// cannot be interrupted, so a timeout ends the binary with a failure rather
// than leaving it to ctest's timeout.
void ExpectReturnsWithin(dbase::Micros bound, const char* what, const std::function<void()>& fn) {
  dbase::Latch returned(1);
  dbase::JoiningThread caller("bounded-call", [&] {
    fn();
    returned.CountDown();
  });
  if (!returned.WaitFor(bound)) {
    ADD_FAILURE() << what << " did not return within " << bound << " us";
    std::fflush(stdout);
    std::_Exit(1);
  }
}

// Threads of this process whose name is exactly `name`.
int ThreadsNamed(const std::string& name) {
  int count = 0;
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    return -1;
  }
  while (const dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    std::ifstream comm(std::string("/proc/self/task/") + entry->d_name + "/comm");
    std::string comm_name;
    if (std::getline(comm, comm_name) && comm_name == name) {
      ++count;
    }
  }
  closedir(tasks);
  return count;
}

std::string RawInvokeWire(const std::string& composition, const std::string& body) {
  dhttp::HttpRequest request;
  request.method = dhttp::Method::kPost;
  request.target = "/invoke/" + composition;
  request.headers.Add("X-Dandelion-Raw", "1");
  request.body = body;
  return request.Serialize();
}

// The item an invocation response carries back.
std::string ResponseItem(const dhttp::HttpResponse& response) {
  auto sets = dfunc::UnmarshalSets(response.body);
  if (!sets.ok() || sets->empty() || (*sets)[0].items.empty()) {
    return "<" + std::to_string(response.status_code) + ": " + response.body + ">";
  }
  return (*sets)[0].items[0].data.ToString();
}

// A router process in miniature: the Cluster routing to remote engine
// nodes, and an HttpFrontend in front of it holding the composition
// catalog. Member order is teardown order: frontend, platform, cluster.
struct RouterStack {
  explicit RouterStack(std::vector<Cluster::RemoteNode> remotes)
      : cluster(RemoteClusterConfig(std::move(remotes), LoadBalancePolicy::kRoundRobin)),
        platform(FastPlatformConfig()),
        frontend(std::make_unique<HttpFrontend>(&platform, FrontendConfig{})) {
    EXPECT_TRUE(platform.RegisterFunction({.name = "echo", .body = dfunc::EchoFunction}).ok());
    EXPECT_TRUE(platform.RegisterCompositionDsl(kNodeDsl).ok());
    frontend->AttachCluster(&cluster);
    started = frontend->Start();
  }

  // One raw-mode invoke on a fresh connection; the echoed item or an error.
  std::string InvokeOnce(const std::string& composition, const std::string& body) {
    const int fd = BlockingConnect(frontend->port());
    HttpSendAll(fd, RawInvokeWire(composition, body));
    auto response = ReadOneHttpResponse(fd);
    close(fd);
    return response.ok() ? ResponseItem(*response) : response.status().ToString();
  }

  Cluster cluster;
  Platform platform;
  std::unique_ptr<HttpFrontend> frontend;
  dbase::Status started;
};

#define SKIP_UNLESS_STARTED(stack)                                              \
  if (!(stack).started.ok()) {                                                  \
    GTEST_SKIP() << "loopback sockets unavailable: " << (stack).started.ToString(); \
  }

// The blocking calls wait on a reply only the client's loop can deliver:
// made from that loop's own thread they must fail at once, not hang it.
TEST(ClusterNetTest, BlockingClientCallsOnItsOwnLoopFailFast) {
  AgentNode node(NodeAgentConfig{.node_name = "nl"});
  SKIP_WITHOUT_LOOPBACK(node);
  dnet::NodeClient client(dnet::NodeClient::Config{});
  ASSERT_TRUE(client.Start().ok());
  client.AddPeer("nl", node.port());
  ASSERT_TRUE(client.Gossip("nl", dbase::kMicrosPerSecond).ok());

  dbase::Status invoked;
  dbase::Status gossiped;
  dbase::Status meshed;
  ExpectReturnsWithin(5 * dbase::kMicrosPerSecond, "blocking calls on the client's loop", [&] {
    dbase::Latch ran(1);
    client.loop()->Post([&] {
      dnet::WireInvoke invoke;
      invoke.composition = "Id";
      invoke.args = EchoArgs("never sent");
      invoked = client.Invoke("nl", std::move(invoke), dbase::kMicrosPerSecond).status();
      gossiped = client.Gossip("nl", dbase::kMicrosPerSecond).status();
      meshed = client.MeshCall("nl", "GET / HTTP/1.1\r\n\r\n", dbase::kMicrosPerSecond)
                   .status();
      ran.CountDown();
    });
    ran.Wait();
  });
  EXPECT_EQ(invoked.code(), dbase::StatusCode::kFailedPrecondition) << invoked.ToString();
  EXPECT_EQ(gossiped.code(), dbase::StatusCode::kFailedPrecondition) << gossiped.ToString();
  EXPECT_EQ(meshed.code(), dbase::StatusCode::kFailedPrecondition) << meshed.ToString();
  // The loop kept serving: the same calls work from a foreign thread.
  EXPECT_TRUE(client.Gossip("nl", dbase::kMicrosPerSecond).ok());
}

// With remote nodes the frontend serves on the router's wire reactor and
// starts no thread of its own; a lone request and a 16-deep pipelined
// burst spread over two nodes come back correct and in request order.
TEST(ClusterNetTest, FrontendServesOnTheRoutersReactor) {
  AgentNode a(NodeAgentConfig{.node_name = "na"});
  AgentNode b(NodeAgentConfig{.node_name = "nb"});
  SKIP_WITHOUT_LOOPBACK(a);
  SKIP_WITHOUT_LOOPBACK(b);
  RouterStack stack({{"na", a.port()}, {"nb", b.port()}});
  SKIP_UNLESS_STARTED(stack);
  ASSERT_NE(stack.cluster.reactor(), nullptr);
  EXPECT_EQ(ThreadsNamed("frontend"), 0);
  EXPECT_EQ(ThreadsNamed("dnet-client"), 1);

  EXPECT_EQ(stack.InvokeOnce("Id", "lone"), "lone");

  constexpr int kBurst = 16;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += RawInvokeWire("Id", "burst-" + std::to_string(i));
  }
  const int fd = BlockingConnect(stack.frontend->port());
  HttpSendAll(fd, burst);
  auto responses = ReadHttpResponses(fd, kBurst);
  close(fd);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  for (int i = 0; i < kBurst; ++i) {
    const dhttp::HttpResponse& response = (*responses)[static_cast<size_t>(i)];
    EXPECT_EQ(response.status_code, 200) << i;
    EXPECT_EQ(ResponseItem(response), "burst-" + std::to_string(i));
  }
  EXPECT_GT(a.agent().invocations_served(), 0u);
  EXPECT_GT(b.agent().invocations_served(), 0u);
}

// Stopping and destroying the frontend while remote invokes are in flight
// leaves their outcomes to land on the still-running reactor afterwards:
// they must find the frontend's alive token cleared and touch nothing of
// it (the sanitizer build turns a slip into a use-after-free report).
TEST(ClusterNetTest, FrontendGoneBeforeRemoteOutcomesLand) {
  AgentNode node(NodeAgentConfig{.node_name = "ns"});
  SKIP_WITHOUT_LOOPBACK(node);
  RouterStack stack({{"ns", node.port()}});
  SKIP_UNLESS_STARTED(stack);

  constexpr int kInFlight = 2;
  std::vector<int> fds;
  for (int i = 0; i < kInFlight; ++i) {
    fds.push_back(BlockingConnect(stack.frontend->port()));
    HttpSendAll(fds.back(), RawInvokeWire("Nap", "late-" + std::to_string(i)));
  }
  const auto started = [&] {
    return node.platform().dispatcher_stats().invocations_started >= kInFlight;
  };
  for (int i = 0; i < 1000 && !started(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(started());
  ASSERT_EQ(node.agent().invocations_served(), 0u) << "the naps finished before the stop";

  stack.frontend->Stop();
  stack.frontend.reset();

  for (int i = 0; i < 2500 && node.agent().invocations_served() < kInFlight; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(node.agent().invocations_served(), static_cast<uint64_t>(kInFlight));
  // A round trip on the same connection queues behind the late outcomes:
  // once it is back, the reactor has handled all of them.
  auto routed = stack.cluster.Invoke({.composition = "Id", .args = EchoArgs("after")});
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed.sets()[0].items[0].data.ToString(), "after");
  for (const int fd : fds) {
    close(fd);
  }
}

// Start, Stop, Start again on the borrowed reactor: the frontend serves
// again, still without a thread of its own.
TEST(ClusterNetTest, FrontendRestartsOnTheBorrowedReactor) {
  AgentNode node(NodeAgentConfig{.node_name = "nr"});
  SKIP_WITHOUT_LOOPBACK(node);
  RouterStack stack({{"nr", node.port()}});
  SKIP_UNLESS_STARTED(stack);
  EXPECT_EQ(stack.InvokeOnce("Id", "first"), "first");
  stack.frontend->Stop();
  EXPECT_FALSE(stack.frontend->running());
  ASSERT_TRUE(stack.frontend->Start().ok());
  EXPECT_EQ(ThreadsNamed("frontend"), 0);
  EXPECT_EQ(stack.InvokeOnce("Id", "second"), "second");
  EXPECT_EQ(node.agent().invocations_served(), 2u);
}

// The reverse of the documented order: the cluster (and with it the
// reactor) shuts down while the frontend still has a connection open.
// Stop() must tear down on the finished loop instead of waiting on it.
TEST(ClusterNetTest, FrontendStopAfterClusterShutdownReturns) {
  AgentNode node(NodeAgentConfig{.node_name = "nq"});
  SKIP_WITHOUT_LOOPBACK(node);
  RouterStack stack({{"nq", node.port()}});
  SKIP_UNLESS_STARTED(stack);
  EXPECT_EQ(stack.InvokeOnce("Id", "served"), "served");
  const int idle_fd = BlockingConnect(stack.frontend->port());

  stack.cluster.Shutdown();
  ExpectReturnsWithin(5 * dbase::kMicrosPerSecond, "frontend Stop() after cluster Shutdown()",
                      [&] { stack.frontend->Stop(); });
  EXPECT_FALSE(stack.frontend->running());
  // Torn down for real: the open connection sees EOF.
  char byte;
  EXPECT_EQ(read(idle_fd, &byte, 1), 0);
  close(idle_fd);
}

}  // namespace
}  // namespace dandelion
