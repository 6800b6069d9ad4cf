// Cluster manager (§5): "orchestrates multiple worker nodes and load
// balances composition invocations across nodes. We extended Dirigent to
// support Dandelion worker nodes."
//
// Every node is one record in one list: first the N in-process nodes, then
// the remote engine processes in join order. A record differs only in its
// transport — an owned Platform, or a peer of the connection-pooling
// NodeClient reached over the dnet wire (ROADMAP "Distributed data
// plane"). Routing, admission, re-routing and accounting never look at the
// transport; only "launch on this node" and "read this node's load" do.
//
// Routing is locality-aware under LoadBalancePolicy::kLocality: a
// composition goes to the node that served it most recently (plus the
// resident-composition lists remote nodes gossip), falling back to
// kLeastLoaded when the sticky node is saturated, suspect or gone. Remote
// load is read from gossiped ElasticitySignals.
//
// Served rule: a node has served an invocation when the router surfaces
// the outcome of its launch there — a result or an error, including a
// second shed — instead of re-routing it. Affinity is noted at that same
// point. A peer lost mid-flight returned no answer and counts for neither.
//
// Cross-node shedding: a node that responds 429-style (kUnavailable with
// the shed frame flag) gets the invocation re-routed once to another node
// before the error surfaces. Transport failures map into the PR 8 failure
// taxonomy as FailureKind::kPeerLost — retry-safe, because Dandelion
// functions are pure — and are absorbed by a router-side RetryPolicy
// (breaker keyed by node) that re-routes to surviving nodes; jail kills
// and other deterministic function failures surface unchanged. A local
// node never sheds and never loses its peer. Node join/leave is
// policy-driven: a gossip loop feeds dpolicy::MembershipPolicy, which
// suspects stale peers, evicts dead ones, re-admits rejoiners, and counts
// fleet scale hints.
#ifndef SRC_RUNTIME_CLUSTER_H_
#define SRC_RUNTIME_CLUSTER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/node_client.h"
#include "src/policy/membership.h"
#include "src/policy/retry.h"
#include "src/runtime/platform.h"

namespace dandelion {

enum class LoadBalancePolicy {
  kRoundRobin,
  // Routes to the node with the fewest in-flight invocations + queued
  // engine tasks (gossiped backlog for remote nodes).
  kLeastLoaded,
  // Sticky composition→node affinity from serve history and gossiped
  // residency; falls back to kLeastLoaded when the affine node is
  // saturated or unavailable.
  kLocality,
};

class Cluster {
 public:
  struct RemoteNode {
    std::string name;
    uint16_t port = 0;
  };

  struct Config {
    // In-process nodes; 0 is allowed when remote nodes are configured.
    int num_nodes = 2;
    PlatformConfig node_config;
    LoadBalancePolicy policy = LoadBalancePolicy::kRoundRobin;

    // Engine processes to dial over the dnet wire (loopback ports).
    std::vector<RemoteNode> remote_nodes;
    std::string router_name = "router";
    // Gossip cadence for remote signals + membership; 0 disables the
    // background loop (tests drive GossipNow() by hand).
    dbase::Micros gossip_interval_us = 200 * dbase::kMicrosPerMilli;
    dpolicy::MembershipOptions membership;
  };

  explicit Cluster(Config config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // In-process nodes: indices [0, num_nodes()).
  int num_nodes() const { return num_locals_; }
  Platform& node(int index);
  // Every node ever added, local or remote (records persist through
  // eviction so node indices stay stable).
  int total_nodes() const;

  // Dynamic membership: join a running engine process, or re-admit an
  // evicted one (possibly on a new port). Join makes the node routable
  // immediately; the membership policy evicts it if it never answers
  // gossip.
  dbase::Status AddRemoteNode(const std::string& name, uint16_t port);

  // Registration is cluster-wide for local nodes (a node can only serve
  // what it has registered); remote nodes register their own functions at
  // spawn (see src/tools/dandelion_node.cc).
  dbase::Status RegisterFunction(const dfunc::FunctionSpec& spec);
  dbase::Status RegisterCompositionDsl(std::string_view dsl_source);

  // Applies `setup` to every local node — e.g. registering mesh services.
  void ForEachNode(const std::function<void(Platform&)>& setup);

  // Load-balanced invocation. Returns the result plus which node served it
  // (for tests and placement studies). `result` is empty only before the
  // invocation has been routed — a terminal RoutedResult always holds one.
  struct RoutedResult {
    std::optional<dbase::Result<dfunc::DataSetList>> result;
    int node_index = -1;
    std::string node_name;
    // Total placement attempts: >1 means shedding or peer loss re-routed.
    int attempts = 1;

    bool ok() const { return result.has_value() && result->ok(); }
    dbase::Status status() const {
      return result.has_value() ? result->status() : dbase::Unavailable("not routed");
    }
    const dfunc::DataSetList& sets() const { return result->value(); }
  };
  // Routed invokes take first-class requests: the deadline and cancel flag
  // travel with the invocation to whichever node serves it (remote nodes
  // get the *remaining* time re-anchored on their own clock), and
  // placement can consider the request class (under kLeastLoaded,
  // interactive requests pay the load scan while batch spreads
  // round-robin — backlog smoothing is enough for work that tolerates
  // queueing). A remote invoke returns an empty handle: it cannot be
  // cancelled yet.
  RoutedResult Invoke(InvocationRequest request);
  InvocationHandle InvokeAsync(
      InvocationRequest request,
      std::function<void(dbase::Result<dfunc::DataSetList>, int node)> callback);

  // Per-node served counters (see the served rule above), in node order.
  std::vector<uint64_t> InvocationsPerNode() const;

  // Per-local-node compute/comm core split — cluster-wide view of what each
  // node's elasticity control plane (configured via node_config) has done.
  struct CoreSplit {
    int compute_workers = 0;
    int comm_workers = 0;
  };
  std::vector<CoreSplit> CoreSplits() const;

  // The router's wire reactor: the NodeClient's loop, on which every dnet
  // connection runs. Null while no remote node has ever joined. An
  // HttpFrontend attached to this cluster serves its HTTP sockets on it,
  // so a remote invoke goes from HTTP parse to wire send and from outcome
  // decode to HTTP write without a thread hand-off. After Shutdown() it is
  // a finished loop that refuses posts.
  std::shared_ptr<dbase::EventLoop> reactor() const;

  // One synchronous gossip + membership round (the background loop runs
  // this on gossip_interval_us; tests call it directly).
  void GossipNow();

  // The statz "cluster" section's source of truth.
  struct PeerStats {
    std::string name;
    bool remote = false;
    std::string_view state = "active";
    uint64_t served = 0;
    int64_t inflight = 0;  // Router-side in-flight toward this node.
    // Remote-only wire counters (from the NodeClient).
    uint64_t invokes_sent = 0;
    uint64_t sheds_received = 0;
    uint64_t peer_lost_failures = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    // Age of the last gossip snapshot; -1 = never heard.
    int64_t gossip_age_us = -1;
    // From the peer's last gossiped ElasticitySignals.
    uint64_t remote_inflight = 0;
    uint64_t remote_admission_cap = 0;
    double utilization = 0.0;
  };
  struct ClusterStats {
    std::vector<PeerStats> peers;
    uint64_t reroutes_shed = 0;
    uint64_t reroutes_peer_lost = 0;
    uint64_t reroute_denied = 0;
    uint64_t no_eligible_node = 0;
    uint64_t gossip_rounds = 0;
    dpolicy::MembershipStats membership;
    dpolicy::RetryPolicyStats remote_retry;
  };
  ClusterStats Stats() const;

  void Shutdown();

 private:
  // One routable node. Fields under `mu` change on gossip and membership
  // transitions; a local node stays kActive and is never gossiped.
  struct Node {
    std::string name;
    // Transport: the owned in-process engine, or null for the NodeClient
    // peer called `name`.
    std::unique_ptr<Platform> platform;
    std::atomic<uint64_t> served{0};
    std::atomic<int64_t> inflight{0};  // Router-side, toward this node.
    mutable std::mutex mu;
    dpolicy::MemberState state = dpolicy::MemberState::kActive;
    dnet::WireNodeStatus status;       // Last gossip snapshot.
    dbase::Micros last_gossip_us = 0;  // 0 = never heard.
  };
  // How one launch on one node ended.
  struct Attempt {
    dbase::Result<dfunc::DataSetList> result;
    bool shed = false;       // The node refused at admission (429-style).
    bool peer_lost = false;  // The transport lost the node mid-flight.
  };
  // One routed invocation across its placements.
  struct Route;

  // Internal terminal callback: result, serving node index, total
  // placement attempts (so RoutedResult can report re-routes).
  using RoutedCallback =
      std::function<void(dbase::Result<dfunc::DataSetList>, int node, int attempts)>;

  // Picks an eligible node not in `exclude` (nullptr when none); its index
  // goes to `*index`.
  Node* PickNode(const InvocationRequest& request, const std::set<int>& exclude, int* index);
  static bool Eligible(const Node& node, bool allow_suspect);
  static bool Saturated(const Node& node);
  // Per-transport: this node's current load, and one launch on it.
  double Load(const Node& node) const;
  InvocationHandle Launch(Node& node, const InvocationRequest& request,
                          std::function<void(Attempt)> done);
  void Dispatch(const std::shared_ptr<Route>& route, InvocationHandle* first_handle);
  void Settle(const std::shared_ptr<Route>& route, int index, Node& node, Attempt attempt);
  InvocationHandle InvokeRouted(InvocationRequest request, RoutedCallback callback);
  void NoteAffinity(const std::string& composition, int index);
  int AffinityFor(const std::string& composition) const;
  std::string NodeName(int index) const;
  // The in-process engines, in node order.
  std::vector<Platform*> Locals() const;
  void EnsureClientStarted();
  void ApplyMembership(const dpolicy::MembershipDecision& decision);

  Config config_;
  int num_locals_ = 0;
  std::atomic<uint64_t> round_robin_{0};
  std::atomic<uint64_t> next_invocation_id_{1};

  // Locals first, then remotes in join order. Append-only under nodes_mu_;
  // records are heap-allocated so raw pointers stay valid across growth.
  mutable std::mutex nodes_mu_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Started with the first remote node; guarded by nodes_mu_.
  std::unique_ptr<dnet::NodeClient> client_;

  // Composition → node index (most recent server / gossiped residency).
  mutable std::mutex affinity_mu_;
  std::unordered_map<std::string, int> affinity_;

  // Router-side policy state.
  mutable std::mutex policy_mu_;
  dpolicy::RetryPolicy remote_retry_;
  dpolicy::MembershipPolicy membership_;

  // Re-route + gossip counters.
  std::atomic<uint64_t> reroutes_shed_{0};
  std::atomic<uint64_t> reroutes_peer_lost_{0};
  std::atomic<uint64_t> reroute_denied_{0};
  std::atomic<uint64_t> no_eligible_node_{0};
  std::atomic<uint64_t> gossip_rounds_{0};

  // Background gossip loop.
  std::mutex gossip_mu_;
  std::condition_variable gossip_cv_;
  bool stopping_ = false;
  std::unique_ptr<dbase::JoiningThread> gossip_thread_;

  std::atomic<bool> shut_down_{false};
};

}  // namespace dandelion

#endif  // SRC_RUNTIME_CLUSTER_H_
