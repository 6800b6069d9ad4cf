#include "src/runtime/cluster.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "src/base/clock.h"
#include "src/http/http_parser.h"

namespace dandelion {

namespace {
// Router-side timeout for remote invokes carrying no deadline.
constexpr dbase::Micros kRemoteInvokeTimeoutUs = 120 * dbase::kMicrosPerSecond;
// Grace added to the router-side timeout when the request carries a
// deadline, so the serving node's own deadline machinery (which produces
// the richer report) wins the race against the client timer.
constexpr dbase::Micros kRemoteDeadlineGraceUs = 100 * dbase::kMicrosPerMilli;
// Per-peer gossip timeout cap: one slow peer must not stall the round.
constexpr dbase::Micros kGossipTimeoutCapUs = 500 * dbase::kMicrosPerMilli;
}  // namespace

struct Cluster::Route {
  InvocationRequest request;
  RoutedCallback callback;
  int attempts = 0;  // Placements before the current one.
  std::set<int> tried;
  bool shed_rerouted = false;
};

Cluster::Cluster(Config config)
    : config_(std::move(config)), membership_(config_.membership) {
  // With remote nodes configured a router-only cluster (0 locals) is
  // legitimate; a fully empty cluster is not.
  num_locals_ = config_.remote_nodes.empty() ? std::max(1, config_.num_nodes)
                                             : std::max(0, config_.num_nodes);
  for (int n = 0; n < num_locals_; ++n) {
    auto node = std::make_unique<Node>();
    node->name = "local-" + std::to_string(n);
    node->platform = std::make_unique<Platform>(config_.node_config);
    // Every local node's mesh can carry remote-registered hosts over the
    // node wire — the same socket path invokes ride.
    node->platform->mesh().SetRemoteTransport(
        [this](const std::string& peer, const dhttp::SanitizedRequest& request)
            -> dbase::Result<dhttp::MeshCallResult> {
          dnet::NodeClient* client = nullptr;
          {
            std::lock_guard<std::mutex> lock(nodes_mu_);
            client = client_.get();
          }
          if (client == nullptr) {
            return dbase::FailedPrecondition("cluster has no remote nodes");
          }
          ASSIGN_OR_RETURN(
              dnet::WireMeshReply reply,
              client->MeshCall(peer, request.request.Serialize(), 2 * dbase::kMicrosPerSecond));
          ASSIGN_OR_RETURN(dhttp::HttpResponse response, dhttp::ParseResponse(reply.response));
          dhttp::MeshCallResult result;
          result.response = std::move(response);
          result.latency_us = reply.latency_us;
          return result;
        });
    nodes_.push_back(std::move(node));
  }
  for (const RemoteNode& remote : config_.remote_nodes) {
    (void)AddRemoteNode(remote.name, remote.port);
  }
}

Cluster::~Cluster() { Shutdown(); }

void Cluster::EnsureClientStarted() {
  // Caller holds nodes_mu_.
  if (client_ != nullptr) {
    return;
  }
  dnet::NodeClient::Config client_config;
  client_config.node_name = config_.router_name;
  client_ = std::make_unique<dnet::NodeClient>(client_config);
  client_->Start();
  if (config_.gossip_interval_us > 0) {
    gossip_thread_ = std::make_unique<dbase::JoiningThread>("cluster-gossip", [this] {
      std::unique_lock<std::mutex> lock(gossip_mu_);
      while (!stopping_) {
        gossip_cv_.wait_for(lock, std::chrono::microseconds(config_.gossip_interval_us));
        if (stopping_) {
          break;
        }
        lock.unlock();
        GossipNow();
        lock.lock();
      }
    });
  }
}

dbase::Status Cluster::AddRemoteNode(const std::string& name, uint16_t port) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  EnsureClientStarted();
  for (auto& node : nodes_) {
    if (node->name != name) {
      continue;
    }
    std::lock_guard<std::mutex> node_lock(node->mu);
    if (node->state != dpolicy::MemberState::kLeft) {
      return dbase::AlreadyExists("node already joined: " + name);
    }
    // Administrative rejoin of an evicted node (possibly on a new port
    // after a restart).
    node->state = dpolicy::MemberState::kActive;
    node->last_gossip_us = 0;
    client_->RemovePeer(name);
    client_->AddPeer(name, port);
    return dbase::OkStatus();
  }
  client_->AddPeer(name, port);
  auto node = std::make_unique<Node>();
  node->name = name;
  nodes_.push_back(std::move(node));
  return dbase::OkStatus();
}

std::shared_ptr<dbase::EventLoop> Cluster::reactor() const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  return client_ != nullptr ? client_->loop() : nullptr;
}

Platform& Cluster::node(int index) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  return *nodes_[static_cast<size_t>(index)]->platform;
}

int Cluster::total_nodes() const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  return static_cast<int>(nodes_.size());
}

std::vector<Platform*> Cluster::Locals() const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  std::vector<Platform*> locals;
  for (const auto& node : nodes_) {
    if (node->platform != nullptr) {
      locals.push_back(node->platform.get());
    }
  }
  return locals;
}

dbase::Status Cluster::RegisterFunction(const dfunc::FunctionSpec& spec) {
  for (Platform* platform : Locals()) {
    RETURN_IF_ERROR(platform->RegisterFunction(spec));
  }
  return dbase::OkStatus();
}

dbase::Status Cluster::RegisterCompositionDsl(std::string_view dsl_source) {
  for (Platform* platform : Locals()) {
    RETURN_IF_ERROR(platform->RegisterCompositionDsl(dsl_source));
  }
  return dbase::OkStatus();
}

void Cluster::ForEachNode(const std::function<void(Platform&)>& setup) {
  for (Platform* platform : Locals()) {
    setup(*platform);
  }
}

void Cluster::NoteAffinity(const std::string& composition, int index) {
  std::lock_guard<std::mutex> lock(affinity_mu_);
  affinity_[composition] = index;
}

int Cluster::AffinityFor(const std::string& composition) const {
  std::lock_guard<std::mutex> lock(affinity_mu_);
  auto it = affinity_.find(composition);
  return it == affinity_.end() ? -1 : it->second;
}

bool Cluster::Eligible(const Node& node, bool allow_suspect) {
  std::lock_guard<std::mutex> lock(node.mu);
  switch (node.state) {
    case dpolicy::MemberState::kActive:
      return true;
    case dpolicy::MemberState::kSuspect:
      return allow_suspect;
    case dpolicy::MemberState::kLeft:
      return false;
  }
  return false;
}

bool Cluster::Saturated(const Node& node) {
  const uint64_t router_inflight =
      static_cast<uint64_t>(std::max<int64_t>(0, node.inflight.load(std::memory_order_relaxed)));
  std::lock_guard<std::mutex> lock(node.mu);
  return node.status.admission_cap > 0 &&
         node.status.inflight + router_inflight >= node.status.admission_cap;
}

double Cluster::Load(const Node& node) const {
  const double router_inflight =
      static_cast<double>(node.inflight.load(std::memory_order_relaxed));
  if (node.platform != nullptr) {
    const EngineStats stats = node.platform->engine_stats();
    return router_inflight + static_cast<double>(stats.compute_queue_len + stats.comm_queue_len);
  }
  std::lock_guard<std::mutex> lock(node.mu);
  if (node.last_gossip_us == 0) {
    // Never heard: a fresh joiner is presumed idle — only what we have in
    // flight toward it counts.
    return router_inflight;
  }
  const dpolicy::ElasticitySignals& s = node.status.signals;
  double load = router_inflight + static_cast<double>(node.status.inflight) +
                static_cast<double>(s.compute_backlog + s.comm_backlog);
  const dbase::Micros age = dbase::MonotonicClock::Get()->NowMicros() - node.last_gossip_us;
  if (age > config_.membership.suspect_after_us) {
    // Stale signals: rank below every fresh node without hard-excluding.
    load += 1e6;
  }
  return load;
}

Cluster::Node* Cluster::PickNode(const InvocationRequest& request, const std::set<int>& exclude,
                                 int* index) {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  const int total = static_cast<int>(nodes_.size());
  const auto eligible = [&](int n, bool allow_suspect) {
    return exclude.count(n) == 0 && Eligible(*nodes_[static_cast<size_t>(n)], allow_suspect);
  };
  const auto pick = [&](int n) {
    *index = n;
    return nodes_[static_cast<size_t>(n)].get();
  };
  // Locality first: the sticky node wins while it is healthy and below its
  // gossiped admission cap; otherwise fall through to the load fallback.
  if (config_.policy == LoadBalancePolicy::kLocality) {
    const int affine = AffinityFor(request.composition);
    if (affine >= 0 && affine < total && eligible(affine, false) &&
        !Saturated(*nodes_[static_cast<size_t>(affine)])) {
      return pick(affine);
    }
  }
  // Batch work tolerates queueing: under the load-aware policies it still
  // spreads round-robin (backlog smoothing) while interactive requests pay
  // the load scan for the quietest node.
  const bool scan = config_.policy != LoadBalancePolicy::kRoundRobin &&
                    request.priority != PriorityClass::kBatch && total > 1;
  for (const bool allow_suspect : {false, true}) {
    if (!scan) {
      const uint64_t start = round_robin_.fetch_add(1, std::memory_order_relaxed);
      for (int i = 0; i < total; ++i) {
        const int candidate = static_cast<int>((start + static_cast<uint64_t>(i)) %
                                               static_cast<uint64_t>(total));
        if (eligible(candidate, allow_suspect)) {
          return pick(candidate);
        }
      }
      continue;
    }
    int best = -1;
    double best_load = std::numeric_limits<double>::max();
    for (int n = 0; n < total; ++n) {
      if (!eligible(n, allow_suspect)) {
        continue;
      }
      const double load = Load(*nodes_[static_cast<size_t>(n)]);
      if (load < best_load) {
        best_load = load;
        best = n;
      }
    }
    if (best >= 0) {
      return pick(best);
    }
  }
  return nullptr;
}

InvocationHandle Cluster::Launch(Node& node, const InvocationRequest& request,
                                 std::function<void(Attempt)> done) {
  if (node.platform != nullptr) {
    return node.platform->Submit(
        request, [done = std::move(done)](dbase::Result<dfunc::DataSetList> result) {
          done({std::move(result)});
        });
  }

  dnet::WireInvoke wire;
  wire.composition = request.composition;
  // Payloads are refcounted slices (PR 7): this copy shares buffers, and a
  // re-route after a shed or a dead peer re-sends the same bytes without
  // materializing them twice.
  wire.args = request.args;
  wire.priority = static_cast<uint8_t>(request.priority);
  wire.invocation_id = request.id;
  dbase::Micros timeout = kRemoteInvokeTimeoutUs;
  if (request.deadline_us > 0) {
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    const dbase::Micros remaining = request.deadline_us > now ? request.deadline_us - now : 1;
    wire.remaining_deadline_us = remaining;
    timeout = std::min(timeout, remaining + kRemoteDeadlineGraceUs);
  }
  // A remote node joined after the client started, and its record was
  // read under nodes_mu_, so client_ is set and stays set.
  client_->InvokeAsync(
      node.name, std::move(wire), timeout,
      [done = std::move(done)](dbase::Result<dnet::WireOutcome> raw) {
        if (!raw.ok()) {
          // kUnavailable means the peer (or the connection to it) died
          // mid-flight. Everything else (deadline, shutdown) is the
          // client's own doing.
          const bool lost = raw.status().code() == dbase::StatusCode::kUnavailable;
          done({raw.status(), false, lost});
          return;
        }
        dnet::WireOutcome outcome = std::move(raw).value();
        if (outcome.code == dbase::StatusCode::kOk) {
          done({std::move(outcome.sets)});
          return;
        }
        done({dbase::Status(outcome.code, std::move(outcome.message)), outcome.shed});
      });
  return InvocationHandle();
}

void Cluster::Dispatch(const std::shared_ptr<Route>& route, InvocationHandle* first_handle) {
  int index = -1;
  Node* node = PickNode(route->request, route->tried, &index);
  if (node == nullptr) {
    no_eligible_node_.fetch_add(1, std::memory_order_relaxed);
    route->callback(
        dbase::Unavailable("no eligible cluster node for '" + route->request.composition + "'"),
        -1, route->attempts + 1);
    return;
  }
  node->inflight.fetch_add(1, std::memory_order_relaxed);
  InvocationHandle handle =
      Launch(*node, route->request, [this, route, index, node](Attempt attempt) {
        node->inflight.fetch_sub(1, std::memory_order_relaxed);
        Settle(route, index, *node, std::move(attempt));
      });
  if (first_handle != nullptr) {
    *first_handle = std::move(handle);
  }
}

void Cluster::Settle(const std::shared_ptr<Route>& route, int index, Node& node,
                     Attempt attempt) {
  if (attempt.peer_lost) {
    // FailureKind::kPeerLost: retry-safe because functions are pure.
    dpolicy::RetryDecision decision;
    {
      std::lock_guard<std::mutex> lock(policy_mu_);
      decision = remote_retry_.OnFailure(node.name, dpolicy::FailureKind::kPeerLost,
                                         route->request.priority != PriorityClass::kBatch,
                                         route->attempts,
                                         dbase::MonotonicClock::Get()->NowMicros());
    }
    {
      std::lock_guard<std::mutex> lock(node.mu);
      if (node.state == dpolicy::MemberState::kActive) {
        node.state = dpolicy::MemberState::kSuspect;
      }
    }
    if (!decision.retry) {
      reroute_denied_.fetch_add(1, std::memory_order_relaxed);
      route->callback(std::move(attempt.result), index, route->attempts + 1);
      return;
    }
    reroutes_peer_lost_.fetch_add(1, std::memory_order_relaxed);
  } else if (attempt.shed && !route->shed_rerouted) {
    // 429-style admission shed: re-route once, then surface.
    reroutes_shed_.fetch_add(1, std::memory_order_relaxed);
    route->shed_rerouted = true;
  } else {
    // The node's terminal answer. Deterministic function failures
    // (including jail kills, never retry-safe) and errors the node's own
    // RetryPolicy already gave up on surface unchanged.
    if (attempt.result.ok()) {
      std::lock_guard<std::mutex> lock(policy_mu_);
      remote_retry_.OnSuccess(node.name);
    }
    node.served.fetch_add(1, std::memory_order_relaxed);
    NoteAffinity(route->request.composition, index);
    route->callback(std::move(attempt.result), index, route->attempts + 1);
    return;
  }
  ++route->attempts;
  route->tried.insert(index);
  Dispatch(route, nullptr);
}

InvocationHandle Cluster::InvokeRouted(InvocationRequest request, RoutedCallback callback) {
  if (request.id == 0) {
    // One cluster-wide id per invocation: re-routes keep it, so a node
    // serving a re-sent invocation and the cancel path agree on identity.
    request.id = next_invocation_id_.fetch_add(1, std::memory_order_relaxed);
  }
  auto route = std::make_shared<Route>();
  route->request = std::move(request);
  route->callback = std::move(callback);
  InvocationHandle handle;
  Dispatch(route, &handle);
  return handle;
}

InvocationHandle Cluster::InvokeAsync(
    InvocationRequest request,
    std::function<void(dbase::Result<dfunc::DataSetList>, int)> callback) {
  return InvokeRouted(std::move(request),
                      [callback = std::move(callback)](dbase::Result<dfunc::DataSetList> result,
                                                       int node, int /*attempts*/) {
                        callback(std::move(result), node);
                      });
}

Cluster::RoutedResult Cluster::Invoke(InvocationRequest request) {
  struct WaitState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RoutedResult routed;
  };
  auto state = std::make_shared<WaitState>();
  // Every placement ends in a callback — the serving node answers at the
  // deadline, the wire's client timer shortly after — so this wait is a
  // never-hang backstop: a lost callback surfaces as kDeadlineExceeded.
  constexpr dbase::Micros kBlockingWaitCapUs = 120 * dbase::kMicrosPerSecond;
  constexpr dbase::Micros kDeadlineGraceUs = 5 * dbase::kMicrosPerSecond;
  dbase::Micros wait_us = kBlockingWaitCapUs;
  if (request.deadline_us > 0) {
    const dbase::Micros remaining =
        request.deadline_us - dbase::MonotonicClock::Get()->NowMicros();
    wait_us = std::min(wait_us, std::max<dbase::Micros>(remaining, 0) + kDeadlineGraceUs);
  }
  InvocationHandle handle = InvokeRouted(
      std::move(request),
      [this, state](dbase::Result<dfunc::DataSetList> result, int node, int attempts) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->routed.result = std::move(result);
        state->routed.node_index = node;
        state->routed.node_name = NodeName(node);
        state->routed.attempts = attempts;
        state->done = true;
        state->cv.notify_one();
      });
  std::unique_lock<std::mutex> lock(state->mu);
  if (!state->cv.wait_for(lock, std::chrono::microseconds(wait_us),
                          [&] { return state->done; })) {
    lock.unlock();
    handle.Cancel();
    RoutedResult routed;
    routed.result = dbase::DeadlineExceeded("routed invoke timed out");
    return routed;
  }
  return std::move(state->routed);
}

std::string Cluster::NodeName(int index) const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  if (index < 0 || index >= static_cast<int>(nodes_.size())) {
    return "";
  }
  return nodes_[static_cast<size_t>(index)]->name;
}

std::vector<uint64_t> Cluster::InvocationsPerNode() const {
  std::lock_guard<std::mutex> lock(nodes_mu_);
  std::vector<uint64_t> counts;
  counts.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    counts.push_back(node->served.load(std::memory_order_relaxed));
  }
  return counts;
}

std::vector<Cluster::CoreSplit> Cluster::CoreSplits() const {
  std::vector<CoreSplit> splits;
  for (const Platform* platform : Locals()) {
    // One role scan per node (full EngineStats would lock every queue shard
    // just to read two ints); comm derived so the split sums to the pool.
    const WorkerSet& workers = platform->workers();
    const int compute = workers.compute_workers();
    splits.push_back({compute, workers.total_workers() - compute});
  }
  return splits;
}

void Cluster::GossipNow() {
  // Gossip probes the wire peers; local nodes have nothing to report.
  std::vector<std::pair<int, Node*>> remotes;
  dnet::NodeClient* client = nullptr;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    client = client_.get();
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->platform == nullptr) {
        remotes.emplace_back(static_cast<int>(i), nodes_[i].get());
      }
    }
  }
  if (client == nullptr || remotes.empty()) {
    return;
  }
  const dbase::Micros timeout =
      config_.gossip_interval_us > 0
          ? std::min(config_.gossip_interval_us, kGossipTimeoutCapUs)
          : kGossipTimeoutCapUs;

  std::vector<dpolicy::MemberSignals> signals;
  signals.reserve(remotes.size());
  for (const auto& [index, node] : remotes) {
    // Evicted nodes keep getting probed so they can rejoin when they come
    // back.
    dbase::Result<dnet::WireNodeStatus> status = client->Gossip(node->name, timeout);
    std::vector<std::string> resident;
    dpolicy::MemberSignals member;
    member.name = node->name;
    {
      std::lock_guard<std::mutex> lock(node->mu);
      if (status.ok()) {
        node->status = std::move(status).value();
        node->last_gossip_us = dbase::MonotonicClock::Get()->NowMicros();
        resident = node->status.resident_compositions;
      }
      member.last_heard_us = node->last_gossip_us;
      if (node->status.admission_cap > 0) {
        member.utilization = static_cast<double>(node->status.inflight) /
                             static_cast<double>(node->status.admission_cap);
      }
    }
    // Gossiped residency feeds locality routing: route a composition to
    // the node that already holds its context/data.
    for (const std::string& composition : resident) {
      NoteAffinity(composition, index);
    }
    signals.push_back(std::move(member));
  }

  dpolicy::MembershipDecision decision;
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    decision = membership_.Tick(dbase::MonotonicClock::Get()->NowMicros(), signals);
  }
  ApplyMembership(decision);
  gossip_rounds_.fetch_add(1, std::memory_order_relaxed);
}

void Cluster::ApplyMembership(const dpolicy::MembershipDecision& decision) {
  // Scale hints are only counted (membership stats); no node is drained.
  std::lock_guard<std::mutex> lock(nodes_mu_);
  for (const dpolicy::MemberTransition& transition : decision.transitions) {
    for (const auto& node : nodes_) {
      if (node->name == transition.name) {
        std::lock_guard<std::mutex> node_lock(node->mu);
        node->state = transition.to;
        break;
      }
    }
  }
}

Cluster::ClusterStats Cluster::Stats() const {
  ClusterStats stats;
  stats.reroutes_shed = reroutes_shed_.load(std::memory_order_relaxed);
  stats.reroutes_peer_lost = reroutes_peer_lost_.load(std::memory_order_relaxed);
  stats.reroute_denied = reroute_denied_.load(std::memory_order_relaxed);
  stats.no_eligible_node = no_eligible_node_.load(std::memory_order_relaxed);
  stats.gossip_rounds = gossip_rounds_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    const std::vector<dnet::NodeClient::PeerSnapshot> wire =
        client_ != nullptr ? client_->SnapshotPeers()
                           : std::vector<dnet::NodeClient::PeerSnapshot>{};
    const dbase::Micros now = dbase::MonotonicClock::Get()->NowMicros();
    for (const auto& node : nodes_) {
      PeerStats peer;
      peer.name = node->name;
      peer.remote = node->platform == nullptr;
      peer.served = node->served.load(std::memory_order_relaxed);
      peer.inflight = node->inflight.load(std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> node_lock(node->mu);
        peer.state = dpolicy::MemberStateName(node->state);
        peer.gossip_age_us =
            node->last_gossip_us > 0 ? static_cast<int64_t>(now - node->last_gossip_us) : -1;
        peer.remote_inflight = node->status.inflight;
        peer.remote_admission_cap = node->status.admission_cap;
        if (node->status.admission_cap > 0) {
          peer.utilization = static_cast<double>(node->status.inflight) /
                             static_cast<double>(node->status.admission_cap);
        }
      }
      for (const auto& snapshot : wire) {
        if (peer.remote && snapshot.name == node->name) {
          peer.invokes_sent = snapshot.invokes_sent;
          peer.sheds_received = snapshot.sheds_received;
          peer.peer_lost_failures = snapshot.peer_lost_failures;
          peer.bytes_sent = snapshot.bytes_sent;
          peer.bytes_received = snapshot.bytes_received;
          break;
        }
      }
      stats.peers.push_back(std::move(peer));
    }
  }
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    stats.membership = membership_.stats();
    stats.remote_retry = remote_retry_.Stats();
  }
  return stats;
}

void Cluster::Shutdown() {
  if (shut_down_.exchange(true, std::memory_order_relaxed)) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(gossip_mu_);
    stopping_ = true;
  }
  gossip_cv_.notify_all();
  gossip_thread_.reset();
  dnet::NodeClient* client = nullptr;
  {
    std::lock_guard<std::mutex> lock(nodes_mu_);
    client = client_.get();
  }
  // Stopped outside nodes_mu_: the stop waits for the reactor, and work on
  // the reactor takes that lock — a peer-lost re-route picking a node, a
  // frontend serving on it dispatching or answering /statz.
  if (client != nullptr) {
    client->Stop();
  }
  for (Platform* platform : Locals()) {
    platform->Shutdown();
  }
}

}  // namespace dandelion
