// Tests for dbase::EventLoop: fd readiness dispatch, cross-thread Post,
// the loop's own (wakeup-free) posts, one-shot timers with cancellation,
// clean Stop semantics, the shutdown drain and RunAndWait.
#include "src/base/event_loop.h"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>

#include "src/base/clock.h"
#include "src/base/thread.h"

namespace dbase {
namespace {

std::unique_ptr<EventLoop> MustCreate() {
  auto loop = EventLoop::Create();
  EXPECT_TRUE(loop.ok()) << loop.status().ToString();
  return std::move(loop).value();
}

// Runs a loop on its own thread; stops and joins it on destruction too, so
// an ASSERT that returns early fails the test instead of hanging it on the
// join of a loop nobody stopped.
class LoopRunner {
 public:
  explicit LoopRunner(EventLoop* loop) : loop_(loop), thread_("loop", [loop] { loop->Run(); }) {}
  ~LoopRunner() { Stop(); }
  // Stops the loop and waits for Run() to return. Idempotent.
  void Stop() {
    loop_->Stop();
    thread_.Join();
  }

 private:
  EventLoop* loop_;
  JoiningThread thread_;
};

TEST(EventLoopTest, PostRunsOnLoopThread) {
  auto loop = MustCreate();
  std::thread::id loop_id;
  Latch ran(1);
  LoopRunner runner(loop.get());
  loop->Post([&] {
    loop_id = std::this_thread::get_id();
    EXPECT_TRUE(loop->IsLoopThread());
    ran.CountDown();
  });
  ASSERT_TRUE(ran.WaitFor(5 * kMicrosPerSecond));
  EXPECT_FALSE(loop->IsLoopThread());
  runner.Stop();
  EXPECT_NE(loop_id, std::this_thread::get_id());
}

// A closure the loop posts to itself writes no eventfd wakeup; with no fd
// ready and no timer armed, the loop must still poll instead of blocking.
TEST(EventLoopTest, SelfPostRunsWithoutReadyFdOrTimer) {
  auto loop = MustCreate();
  Latch ran(1);
  LoopRunner runner(loop.get());
  loop->Post([&] {
    loop->Post([&] {
      EXPECT_TRUE(loop->IsLoopThread());
      ran.CountDown();
    });
  });
  EXPECT_TRUE(ran.WaitFor(5 * kMicrosPerSecond));
  runner.Stop();
}

// A cross-thread Post that finds the queue non-empty skips its wakeup
// write; when the loop's own unsignalled post is what made it non-empty,
// both closures must still run, in post order.
TEST(EventLoopTest, CrossThreadPostWhileSelfPostPendingRuns) {
  auto loop = MustCreate();
  std::mutex order_mu;
  std::string order;
  Latch ran(2);
  auto record = [&](char step) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(step);
    ran.CountDown();
  };
  LoopRunner runner(loop.get());
  loop->Post([&] {
    loop->Post([&] { record('a'); });
    // Enqueued while the self-post is pending, from a foreign thread.
    std::thread other([&] { loop->Post([&] { record('b'); }); });
    other.join();
  });
  EXPECT_TRUE(ran.WaitFor(5 * kMicrosPerSecond));
  runner.Stop();
  EXPECT_EQ(order, "ab");
}

// Closures a batch posts to the loop run after the whole batch, in post
// order, and so do the ones they post in turn.
TEST(EventLoopTest, SelfPostsDuringABatchRunAfterItInOrder) {
  auto loop = MustCreate();
  std::string order;  // Loop thread only until runner.Stop().
  Latch done(1);
  // Posted before Run(): both land in the loop's first batch.
  loop->Post([&] {
    order.push_back('x');
    loop->Post([&] {
      order.push_back('1');
      loop->Post([&] {
        order.push_back('w');
        done.CountDown();
      });
    });
    loop->Post([&] { order.push_back('2'); });
  });
  loop->Post([&] { order.push_back('z'); });
  LoopRunner runner(loop.get());
  EXPECT_TRUE(done.WaitFor(5 * kMicrosPerSecond));
  runner.Stop();
  EXPECT_EQ(order, "xz12w");
}

TEST(EventLoopTest, FdReadinessDispatched) {
  auto loop = MustCreate();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  std::string received;
  Latch got(1);
  ASSERT_TRUE(loop->Add(fds[0], EPOLLIN, [&](uint32_t events) {
                    EXPECT_TRUE(events & EPOLLIN);
                    char buffer[64];
                    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
                    ASSERT_GT(n, 0);
                    received.assign(buffer, static_cast<size_t>(n));
                    got.CountDown();
                  }).ok());

  LoopRunner runner(loop.get());
  ASSERT_EQ(write(fds[1], "ping", 4), 4);
  ASSERT_TRUE(got.WaitFor(5 * kMicrosPerSecond));
  runner.Stop();
  EXPECT_EQ(received, "ping");
  loop->Remove(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoopTest, RemoveStopsDispatch) {
  auto loop = MustCreate();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);

  std::atomic<int> fires{0};
  ASSERT_TRUE(loop->Add(fds[0], EPOLLIN, [&](uint32_t) {
                    ++fires;
                    char buffer[64];
                    [[maybe_unused]] ssize_t n = read(fds[0], buffer, sizeof(buffer));
                    // A callback may remove its own registration mid-dispatch.
                    loop->Remove(fds[0]);
                  }).ok());

  Latch settled(1);  // Outlives the runner: a late closure may touch it.
  LoopRunner runner(loop.get());
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  // Wait for the first fire, then write again: no further dispatch expected.
  Stopwatch watch;
  while (fires.load() == 0 && watch.ElapsedMicros() < 5 * kMicrosPerSecond) {
    std::this_thread::yield();
  }
  ASSERT_EQ(fires.load(), 1);
  ASSERT_EQ(write(fds[1], "y", 1), 1);
  loop->Post([&] { settled.CountDown(); });
  ASSERT_TRUE(settled.WaitFor(5 * kMicrosPerSecond));
  EXPECT_EQ(fires.load(), 1);
  runner.Stop();
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoopTest, TimerFiresAfterDelay) {
  auto loop = MustCreate();
  Latch fired(1);
  Stopwatch watch;
  Micros elapsed = 0;
  loop->Post([&] {
    loop->AddTimer(20 * kMicrosPerMilli, [&] {
      elapsed = watch.ElapsedMicros();
      fired.CountDown();
    });
  });
  LoopRunner runner(loop.get());
  ASSERT_TRUE(fired.WaitFor(5 * kMicrosPerSecond));
  runner.Stop();
  EXPECT_GE(elapsed, 20 * kMicrosPerMilli);
}

TEST(EventLoopTest, CancelledTimerNeverFires) {
  auto loop = MustCreate();
  std::atomic<bool> cancelled_fired{false};
  Latch later_fired(1);
  loop->Post([&] {
    const EventLoop::TimerId id =
        loop->AddTimer(10 * kMicrosPerMilli, [&] { cancelled_fired = true; });
    loop->CancelTimer(id);
    // A later timer proves the heap kept running past the cancelled slot.
    loop->AddTimer(30 * kMicrosPerMilli, [&] { later_fired.CountDown(); });
  });
  LoopRunner runner(loop.get());
  ASSERT_TRUE(later_fired.WaitFor(5 * kMicrosPerSecond));
  runner.Stop();
  EXPECT_FALSE(cancelled_fired.load());
}

// Run() drains on the way out: closures posted around Stop(), and the ones
// they post in turn, all run before it returns. Then the loop is finished:
// Post() and RunAndWait() refuse, and run nothing.
TEST(EventLoopTest, ShutdownDrainsPostsThenRefusesThem) {
  auto loop = MustCreate();
  std::string order;  // Loop thread only until runner.Stop().
  {
    LoopRunner runner(loop.get());
    EXPECT_TRUE(loop->Post([&] {
      order.push_back('a');
      loop->Stop();
      loop->Post([&] {
        order.push_back('b');
        loop->Post([&] { order.push_back('c'); });
      });
    }));
  }
  EXPECT_EQ(order, "abc");
  bool ran = false;
  EXPECT_FALSE(loop->Post([&] { ran = true; }));
  EXPECT_FALSE(loop->RunAndWait([&] { ran = true; }));
  EXPECT_FALSE(ran);
}

// RunAndWait returns only after fn ran on the loop thread; called on the
// loop thread itself it runs fn inline instead of waiting on itself.
TEST(EventLoopTest, RunAndWaitRunsOnTheLoopAndInlineOnIt) {
  auto loop = MustCreate();
  bool on_loop = false;
  Latch done(1);
  std::string order;  // Loop thread only until done.
  LoopRunner runner(loop.get());
  EXPECT_TRUE(loop->RunAndWait([&] { on_loop = loop->IsLoopThread(); }));
  EXPECT_TRUE(on_loop);

  loop->Post([&] {
    EXPECT_TRUE(loop->RunAndWait([&] { order.push_back('i'); }));
    order.push_back('o');
    done.CountDown();
  });
  ASSERT_TRUE(done.WaitFor(5 * kMicrosPerSecond));
  EXPECT_EQ(order, "io");
}

TEST(EventLoopTest, StopWakesABlockedRun) {
  auto loop = MustCreate();
  Latch finished(1);
  JoiningThread thread("loop", [&] {
    loop->Run();  // No fds, no timers: blocks until woken.
    finished.CountDown();
  });
  loop->Stop();
  EXPECT_TRUE(finished.WaitFor(5 * kMicrosPerSecond));
  thread.Join();
}

}  // namespace
}  // namespace dbase
