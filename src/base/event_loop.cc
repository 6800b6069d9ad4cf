#include "src/base/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/base/log.h"
#include "src/base/thread.h"

namespace dbase {
namespace {

constexpr int kMaxEventsPerWait = 64;

// The loop whose Run() is executing on this thread, if any. Thread-local,
// so IsLoopThread() is a race-free read from any thread.
thread_local const EventLoop* current_loop = nullptr;

}  // namespace

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  const int epoll_fd = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return Unavailable(std::string("epoll_create1 failed: ") + std::strerror(errno));
  }
  const int wakeup_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd < 0) {
    close(epoll_fd);
    return Unavailable(std::string("eventfd failed: ") + std::strerror(errno));
  }
  std::unique_ptr<EventLoop> loop(new EventLoop(epoll_fd, wakeup_fd));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd;
  if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wakeup_fd, &ev) != 0) {
    return Unavailable(std::string("epoll_ctl(wakeup) failed: ") + std::strerror(errno));
  }
  return loop;
}

EventLoop::EventLoop(int epoll_fd, int wakeup_fd)
    : epoll_fd_(epoll_fd), wakeup_fd_(wakeup_fd) {}

EventLoop::~EventLoop() {
  close(wakeup_fd_);
  close(epoll_fd_);
}

Status EventLoop::Add(int fd, uint32_t events, FdCallback callback) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Internal(std::string("epoll_ctl(ADD) failed: ") + std::strerror(errno));
  }
  fd_callbacks_[fd] = std::make_shared<const FdCallback>(std::move(callback));
  return OkStatus();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Internal(std::string("epoll_ctl(MOD) failed: ") + std::strerror(errno));
  }
  return OkStatus();
}

void EventLoop::Remove(int fd) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fd_callbacks_.erase(fd);
}

bool EventLoop::IsLoopThread() const { return current_loop == this; }

bool EventLoop::Post(std::function<void()> fn) {
  // The loop's own posts write no wakeup: Run() polls instead of blocking
  // while self_posted_ is set. A foreign post that finds the queue
  // non-empty skips the write too — a wakeup is already in flight, or a
  // pending self-post keeps the loop from blocking before RunPosted().
  const bool self = IsLoopThread();
  bool need_wake;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    if (finished_) {
      return false;
    }
    need_wake = !self && posted_.empty();
    posted_.push_back(std::move(fn));
  }
  if (self) {
    self_posted_ = true;
  }
  if (need_wake) {
    const uint64_t one = 1;
    // The eventfd is valid for the EventLoop's whole lifetime; a full
    // counter (EAGAIN) already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = write(wakeup_fd_, &one, sizeof(one));
  }
  return true;
}

bool EventLoop::RunAndWait(const std::function<void()>& fn) {
  if (IsLoopThread()) {
    fn();
    return true;
  }
  Latch ran(1);
  if (!Post([&fn, &ran] {
        fn();
        ran.CountDown();
      })) {
    return false;
  }
  ran.Wait();
  return true;
}

void EventLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(wakeup_fd_, &one, sizeof(one));
}

EventLoop::TimerId EventLoop::AddTimer(Micros delay, std::function<void()> fn) {
  const TimerId id = next_timer_id_++;
  const Micros deadline = MonotonicClock::Get()->NowMicros() + (delay < 0 ? 0 : delay);
  timers_[id] = Timer{deadline, std::move(fn)};
  timer_heap_.push({deadline, id});
  return id;
}

void EventLoop::CancelTimer(TimerId id) { timers_.erase(id); }

bool EventLoop::RunPosted(bool finish) {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    batch.swap(posted_);
    if (batch.empty()) {
      if (finish) {
        finished_ = true;
      }
      return false;
    }
  }
  // Closures this batch posts to the loop land in posted_ and set the flag
  // again; they run in the next turn, after an epoll_wait that polls.
  self_posted_ = false;
  for (auto& fn : batch) {
    fn();
  }
  return true;
}

void EventLoop::RunDueTimers(Micros now) {
  while (!timer_heap_.empty() && timer_heap_.top().first <= now) {
    const TimerId id = timer_heap_.top().second;
    timer_heap_.pop();
    auto it = timers_.find(id);
    if (it == timers_.end()) {
      continue;  // Cancelled.
    }
    std::function<void()> fn = std::move(it->second.fn);
    timers_.erase(it);
    fn();
  }
}

int EventLoop::NextTimeoutMillis(Micros now) const {
  if (timer_heap_.empty()) {
    return -1;
  }
  const Micros remaining = timer_heap_.top().first - now;
  if (remaining <= 0) {
    return 0;
  }
  // Round up so a timer is never polled before it is due.
  return static_cast<int>((remaining + kMicrosPerMilli - 1) / kMicrosPerMilli);
}

void EventLoop::Run() {
  current_loop = this;
  epoll_event events[kMaxEventsPerWait];
  while (!stopped_.load(std::memory_order_acquire)) {
    const int timeout =
        self_posted_ ? 0 : NextTimeoutMillis(MonotonicClock::Get()->NowMicros());
    const int n = epoll_wait(epoll_fd_, events, kMaxEventsPerWait, timeout);
    if (n < 0 && errno != EINTR) {
      DLOG(Error) << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_) {
        // One read resets an eventfd counter to zero, however many posts
        // added to it.
        uint64_t drained;
        [[maybe_unused]] const ssize_t r = read(wakeup_fd_, &drained, sizeof(drained));
        continue;
      }
      // Re-lookup per event: an earlier callback in this batch may have
      // Remove()d this fd (e.g. closed a sibling connection).
      auto it = fd_callbacks_.find(fd);
      if (it == fd_callbacks_.end()) {
        continue;
      }
      // Pin the callback (pointer copy, not closure copy): it may Remove()
      // its own fd mid-call, and erasing the stored entry must not destroy
      // the closure under its own feet.
      const std::shared_ptr<const FdCallback> callback = it->second;
      (*callback)(events[i].events);
    }
    RunPosted();
    RunDueTimers(MonotonicClock::Get()->NowMicros());
  }
  // Closures posted before the loop finishes all run — shutdown work posted
  // around Stop() is not silently dropped, and neither is what it posts in
  // turn. From the moment the queue is found empty, Post() refuses.
  while (RunPosted(/*finish=*/true)) {
  }
  current_loop = nullptr;
}

}  // namespace dbase
