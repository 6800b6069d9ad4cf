// Child processes of the benchmark (serving process, engine nodes) and
// what the benchmark reads about them from /proc.
#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// A spawned child whose stdout is a pipe to us. The destructor stops it
// (SIGTERM, then SIGKILL after a grace period) and reaps it.
class Child {
 public:
  Child() = default;
  ~Child() { Stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Starts `argv[0]` with stderr appended to `log_path`; the child is
  // killed if this process dies. Call from the main thread (the death
  // signal follows the spawning thread). Returns false on failure.
  bool Spawn(const std::vector<std::string>& argv, const std::string& log_path);
  // Reads stdout lines until one starts with `prefix`; returns the integer
  // after it, or -1 on EOF/timeout.
  long ReadHandshake(const std::string& prefix, double timeout_s);
  void Stop();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string buffered_;
};

// user+sys CPU of a process including its reaped children (µs).
double CpuMicros(pid_t pid);
// The host's steal time and all CPU time, summed over the CPUs, in clock
// ticks since boot (/proc/stat): the time the hypervisor ran other
// tenants on this machine's CPUs, and its total.
struct HostTicks {
  double steal = 0;
  double total = 0;
};
HostTicks ReadHostTicks();
// Peak resident set (VmHWM) in MiB.
double PeakRssMb(pid_t pid);

// One blocking GET on loopback; the response body, or "" on failure.
std::string HttpGet(uint16_t port, const std::string& path);
// The unsigned integer after "\"key\":" in a JSON text, searched from
// the start of object "\"section\":{" when a section is given (0 if
// absent).
uint64_t JsonCounter(const std::string& json, const std::string& key,
                     const std::string& section = "");

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
