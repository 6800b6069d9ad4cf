#include "procs.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "loadgen.h"

namespace perfbench {

bool Child::Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) return false;
  std::vector<char*> args;
  for (const auto& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid == 0) {
    // Only async-signal-safe calls until exec. The child dies with the
    // benchmark even if the benchmark itself is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(pipe_fds[1], STDOUT_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  if (pid < 0) {
    close(pipe_fds[0]);
    return false;
  }
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];
  return true;
}

long Child::ReadHandshake(const std::string& prefix, double timeout_s) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  while (true) {
    size_t eol;
    while ((eol = buffered_.find('\n')) != std::string::npos) {
      const std::string line = buffered_.substr(0, eol);
      buffered_.erase(0, eol + 1);
      if (line.rfind(prefix, 0) == 0) return std::strtol(line.c_str() + prefix.size(), nullptr, 10);
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) return -1;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) return -1;
    char chunk[512];
    const ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) return -1;
    buffered_.append(chunk, static_cast<size_t>(n));
  }
}

void Child::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {
      reaped = waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!reaped) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double CpuMicros(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime is field 14.
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  double ticks = 0;
  for (int index = 3; fields >> field && index <= 17; ++index) {
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);  // utime stime cutime cstime
  }
  return ticks * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  HostTicks ticks;
  in >> cpu;  // "cpu": the sum over all CPUs.
  double value = 0;
  // user nice system idle iowait irq softirq steal guest guest_nice; the
  // guest fields are already counted in user and nice.
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string response;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string request = "GET " + path + " HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n";
    if (send(fd, request.data(), request.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(request.size())) {
      char chunk[4096];
      ssize_t n;
      while ((n = recv(fd, chunk, sizeof(chunk), 0)) > 0) response.append(chunk, static_cast<size_t>(n));
    }
  }
  close(fd);
  const size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

uint64_t JsonCounter(const std::string& json, const std::string& key, const std::string& section) {
  const size_t from = section.empty() ? 0 : json.find("\"" + section + "\":{");
  if (from == std::string::npos) return 0;
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, from);
  return at == std::string::npos ? 0 : std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

}  // namespace perfbench
