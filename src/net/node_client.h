// NodeClient: the router/frontend side of the dnet wire. One EventLoop
// thread multiplexes a pooled connection per peer; callers on any thread
// issue invokes (async or blocking), gossip probes, cancels, and mesh
// calls. The loop is shared: the router's HTTP frontend registers its own
// sockets on it (see loop()), so HTTP parsing, the invoke send and the
// outcome decode all run on one thread. A connection is (re)established
// lazily on first use and failures fail fast: every request pending on a
// dead connection completes with kUnavailable ("peer lost") so the layer
// above (Cluster) can map it to the retry-eligible FailureKind and
// re-route.
#ifndef SRC_NET_NODE_CLIENT_H_
#define SRC_NET_NODE_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/event_loop.h"
#include "src/base/status.h"
#include "src/base/thread.h"
#include "src/net/frame_socket.h"
#include "src/net/wire.h"

namespace dnet {

class NodeClient {
 public:
  struct Config {
    std::string node_name = "router";
    FrameLimits limits;
    dbase::Micros connect_timeout_us = 2 * dbase::kMicrosPerSecond;
  };

  // Per-peer transport counters for statz (a snapshot, not live refs).
  struct PeerSnapshot {
    std::string name;
    uint16_t port = 0;
    bool connected = false;
    uint64_t inflight = 0;
    uint64_t invokes_sent = 0;
    uint64_t sheds_received = 0;
    uint64_t peer_lost_failures = 0;
    uint64_t bytes_sent = 0;
    uint64_t bytes_received = 0;
    // Monotonic time of the last gossip reply; 0 = never.
    dbase::Micros last_gossip_us = 0;
  };

  using OutcomeCallback = std::function<void(dbase::Result<WireOutcome>)>;

  explicit NodeClient(Config config);
  ~NodeClient();

  dbase::Status Start();
  void Stop();

  // The reactor every peer connection runs on: null before Start(). Other
  // owners may register their own fds on it (loop-thread rules apply) and
  // share ownership, so it outlives the client. After Stop() it is a
  // finished loop that refuses posts; a later Start() makes a new one.
  // Not synchronized with Start().
  std::shared_ptr<dbase::EventLoop> loop() const { return loop_; }

  // Peer table (thread-safe). Adding an existing name updates its port
  // and drops any stale connection.
  void AddPeer(const std::string& name, uint16_t port);
  void RemovePeer(const std::string& name);
  std::vector<PeerSnapshot> SnapshotPeers() const;

  // Sends one invoke; the callback fires exactly once from the loop
  // thread (or inline on immediate connect failure): the decoded outcome,
  // kUnavailable "peer lost ..." when the connection dies first, or
  // kDeadlineExceeded when timeout_us elapses (a kCancel chases the
  // invoke). timeout_us <= 0 means no client-side timer. Thread-safe.
  void InvokeAsync(const std::string& peer, WireInvoke invoke, dbase::Micros timeout_us,
                   OutcomeCallback callback);
  // Blocking wrapper over InvokeAsync. The blocking calls (Invoke, Gossip,
  // MeshCall) wait for a reply only the loop can deliver, so on the loop
  // thread itself they return kFailedPrecondition at once instead of
  // hanging it — and with it every socket on the loop.
  dbase::Result<WireOutcome> Invoke(const std::string& peer, WireInvoke invoke,
                                    dbase::Micros timeout_us);

  // Requests a status snapshot from the peer (blocking, bounded).
  dbase::Result<WireNodeStatus> Gossip(const std::string& peer, dbase::Micros timeout_us);

  // Fire-and-forget cancel for an invocation sent earlier.
  void Cancel(const std::string& peer, uint64_t request_id);

  // Carries a serialized mesh request to the peer (blocking, bounded).
  dbase::Result<WireMeshReply> MeshCall(const std::string& peer, std::string request,
                                        dbase::Micros timeout_us);

  NodeClient(const NodeClient&) = delete;
  NodeClient& operator=(const NodeClient&) = delete;

 private:
  struct Pending {
    FrameType expect;  // kOutcome, kGossip, or kMeshReply.
    std::string peer;
    OutcomeCallback on_outcome;                                    // expect == kOutcome.
    std::function<void(dbase::Result<dbase::BufferSlice>)> on_raw; // gossip / mesh.
    dbase::EventLoop::TimerId timer = 0;                           // 0 = none.
  };

  struct Peer {
    uint16_t port = 0;
    std::shared_ptr<FrameSocket> socket;  // Null until connected.
    uint64_t inflight = 0;
    uint64_t invokes_sent = 0;
    uint64_t sheds_received = 0;
    uint64_t peer_lost_failures = 0;
    // Byte counters accumulated from connections that already closed.
    uint64_t bytes_sent_closed = 0;
    uint64_t bytes_received_closed = 0;
    dbase::Micros last_gossip_us = 0;
  };

  // Loop-thread-only. Connects if needed; null on failure.
  FrameSocket* EnsureConnected(const std::string& peer);
  // Loop-thread-only central send: connects, registers the pending entry,
  // arms the timeout, ships the frame.
  void SendRequest(const std::string& peer, FrameType type, uint16_t flags,
                   std::vector<dbase::BufferSlice> body, dbase::Micros timeout_us,
                   Pending pending);
  void OnFrame(const std::string& peer, const FrameHeader& header, dbase::BufferSlice body);
  void OnPeerClosed(const std::string& peer, const dbase::Status& reason);
  void FailPending(uint64_t request_id, const dbase::Status& status);
  // kFailedPrecondition when a blocking call would wait on its own loop.
  dbase::Status CheckMayBlock() const;
  // Blocking request helper for gossip/mesh.
  dbase::Result<dbase::BufferSlice> RawRequest(const std::string& peer, FrameType type,
                                               std::string body, FrameType expect,
                                               dbase::Micros timeout_us);

  Config config_;
  std::shared_ptr<dbase::EventLoop> loop_;
  std::unique_ptr<dbase::JoiningThread> loop_thread_;
  std::atomic<bool> running_{false};

  // Loop-thread-only (peer table mutations are posted to the loop).
  std::map<std::string, Peer> peers_;
  std::map<uint64_t, Pending> pending_;
  uint64_t next_request_id_ = 1;

  // Mirror of the peer table for thread-safe snapshots.
  mutable std::mutex snapshot_mu_;
  std::map<std::string, PeerSnapshot> snapshot_;
  void PublishSnapshot(const std::string& peer);  // Loop-thread-only.
};

}  // namespace dnet

#endif  // SRC_NET_NODE_CLIENT_H_
