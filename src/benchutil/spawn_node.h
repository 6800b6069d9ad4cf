// Spawns a dandelion_node engine daemon next to the calling binary for
// multi-process cluster runs (benches and the cluster wire tests). The
// daemon binds an ephemeral port and announces it on stdout as
// "LISTENING <port>"; the spawner reads that handshake over a pipe.
#ifndef SRC_BENCHUTIL_SPAWN_NODE_H_
#define SRC_BENCHUTIL_SPAWN_NODE_H_

#include <signal.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace dbench {

struct SpawnedNode {
  pid_t pid = -1;
  uint16_t port = 0;

  bool ok() const { return pid > 0 && port != 0; }
  // Signals the daemon and reaps it; a no-op once killed.
  void Kill(int signal_number = SIGKILL);
};

// Starts `dandelion_node --name=<name> --port=0 --workers=<workers>
// --interactive-cap=<interactive_cap> --batch-cap=<batch_cap>` from the
// calling binary's directory. Returns a node with ok() == false when the
// binary is missing or the handshake does not arrive within 15 s.
SpawnedNode SpawnNode(const std::string& name, int workers, size_t interactive_cap,
                      size_t batch_cap);

}  // namespace dbench

#endif  // SRC_BENCHUTIL_SPAWN_NODE_H_
