// Epoll-based event loop: the reactor under the async HTTP frontend. One
// thread calls Run(); it multiplexes socket readiness, one-shot timers, and
// posted closures (other threads wake it through an eventfd; the loop's
// own posts need no wakeup — it polls instead of blocking while they are
// pending). All fd and timer registration is expected to happen on the
// loop thread except Post(), RunAndWait() and Stop(), which are safe from
// anywhere — async work (engine completions) re-enters the loop by posting
// a closure rather than touching loop state. One loop can carry several
// owners' sockets: the router's HTTP frontend serves on its NodeClient's
// loop.
#ifndef SRC_BASE_EVENT_LOOP_H_
#define SRC_BASE_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"

namespace dbase {

class EventLoop {
 public:
  // Receives the EPOLLIN/EPOLLOUT/EPOLLHUP/... bitmask that fired.
  using FdCallback = std::function<void(uint32_t events)>;
  using TimerId = uint64_t;

  // Creates the epoll instance and the wakeup eventfd; fails (Unavailable)
  // only when the kernel refuses the descriptors.
  static Result<std::unique_ptr<EventLoop>> Create();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Dispatches events until Stop(). Runs posted closures and due timers
  // between epoll waits. On the way out it runs posted closures until none
  // are left, including those they post in turn; then the loop is finished
  // and refuses further posts.
  void Run();
  // Thread-safe; wakes the loop and makes Run() return after the current
  // iteration finishes. Idempotent.
  void Stop();

  // Registers fd for the given EPOLL* interest set (level-triggered unless
  // EPOLLET is included). The callback stays attached until Remove().
  Status Add(int fd, uint32_t events, FdCallback callback);
  // Changes the interest set of an fd previously Add()ed.
  Status Modify(int fd, uint32_t events);
  // Deregisters fd. Pending events already harvested for this fd are
  // discarded (the dispatch loop re-checks registration per event). Does
  // not close the fd.
  void Remove(int fd);

  // Thread-safe: enqueues fn to run on the loop thread and wakes the loop.
  // From the loop thread itself no wakeup is written: fn runs after the
  // current batch of events, posted closures and timers, in post order.
  // Returns true when fn will run. Once Run() has finished, fn is dropped
  // and false is returned — the caller knows the loop thread will never
  // touch what fn would have, and may do that work itself.
  bool Post(std::function<void()> fn);

  // Runs fn on the loop thread and returns once it has run; from the loop
  // thread itself fn runs inline. Returns false, without running fn, when
  // the loop has finished. The loop must be running or finished: on a loop
  // whose Run() has not started yet, this waits until it does.
  bool RunAndWait(const std::function<void()>& fn);

  // One-shot timer: fn runs on the loop thread once, ~delay from now.
  // Returns an id usable with CancelTimer; ids are never reused.
  TimerId AddTimer(Micros delay, std::function<void()> fn);
  void CancelTimer(TimerId id);

  // True when called from inside Run() on the loop thread. Safe from any
  // thread: it reads only the caller's own thread-local state.
  bool IsLoopThread() const;

 private:
  EventLoop(int epoll_fd, int wakeup_fd);

  // Runs the closures posted so far. Returns false when there were none;
  // with `finish`, that also marks the loop finished, atomically with the
  // empty check, so no post can slip in between.
  bool RunPosted(bool finish = false);
  void RunDueTimers(Micros now);
  // Milliseconds until the next timer is due (for epoll_wait), or -1 to
  // block indefinitely.
  int NextTimeoutMillis(Micros now) const;

  const int epoll_fd_;
  const int wakeup_fd_;

  // Loop-thread-only state. Callbacks are held by shared_ptr so dispatch
  // can pin one across its own Remove() without deep-copying the closure
  // per event.
  std::map<int, std::shared_ptr<const FdCallback>> fd_callbacks_;
  struct Timer {
    Micros deadline;
    std::function<void()> fn;
  };
  std::map<TimerId, Timer> timers_;
  // Min-heap of (deadline, id); stale entries (cancelled / re-armed ids)
  // are skipped because the id is gone from timers_.
  using TimerKey = std::pair<Micros, TimerId>;
  std::priority_queue<TimerKey, std::vector<TimerKey>, std::greater<TimerKey>> timer_heap_;
  TimerId next_timer_id_ = 1;
  // The loop thread posted to itself since the last RunPosted() swap, so
  // posted_ may be non-empty with no eventfd write behind it: the next
  // epoll_wait must poll instead of block.
  bool self_posted_ = false;

  // Cross-thread state.
  std::mutex posted_mu_;
  std::vector<std::function<void()>> posted_;
  bool finished_ = false;  // Guarded by posted_mu_; see Post().
  std::atomic<bool> stopped_{false};
};

}  // namespace dbase

#endif  // SRC_BASE_EVENT_LOOP_H_
