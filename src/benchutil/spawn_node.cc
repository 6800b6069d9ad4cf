#include "src/benchutil/spawn_node.h"

#include <libgen.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>

namespace dbench {
namespace {

std::string NodeBinaryPath() {
  char exe[4096] = {};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return "";
  std::string dir(exe, static_cast<size_t>(n));
  return std::string(dirname(dir.data())) + "/dandelion_node";
}

}  // namespace

void SpawnedNode::Kill(int signal_number) {
  if (pid <= 0) return;
  kill(pid, signal_number);
  int status = 0;
  waitpid(pid, &status, 0);
  pid = -1;
}

SpawnedNode SpawnNode(const std::string& name, int workers, size_t interactive_cap,
                      size_t batch_cap) {
  SpawnedNode node;
  const std::string binary = NodeBinaryPath();
  if (binary.empty() || access(binary.c_str(), X_OK) != 0) return node;

  int fds[2];
  if (pipe(fds) != 0) return node;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return node;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    const std::string name_flag = "--name=" + name;
    const std::string workers_flag = "--workers=" + std::to_string(workers);
    const std::string icap_flag = "--interactive-cap=" + std::to_string(interactive_cap);
    const std::string bcap_flag = "--batch-cap=" + std::to_string(batch_cap);
    const char* argv[] = {binary.c_str(),      name_flag.c_str(), "--port=0",
                          workers_flag.c_str(), icap_flag.c_str(), bcap_flag.c_str(),
                          nullptr};
    execv(binary.c_str(), const_cast<char**>(argv));
    _exit(127);
  }
  close(fds[1]);
  node.pid = pid;

  // Read the "LISTENING <port>" handshake with a bounded wait.
  std::string line;
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (std::chrono::steady_clock::now() < give_up) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, 200) <= 0) continue;
    char buffer[128];
    const ssize_t got = read(fds[0], buffer, sizeof(buffer));
    if (got <= 0) break;
    line.append(buffer, static_cast<size_t>(got));
    const size_t newline = line.find('\n');
    if (newline != std::string::npos) {
      unsigned port = 0;
      if (sscanf(line.c_str(), "LISTENING %u", &port) == 1) {
        node.port = static_cast<uint16_t>(port);
      }
      break;
    }
  }
  close(fds[0]);
  if (node.port == 0) node.Kill();
  return node;
}

}  // namespace dbench
