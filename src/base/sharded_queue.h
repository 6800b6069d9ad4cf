// Sharded task queue with work stealing. One shard per engine worker
// removes the single-mutex bottleneck of MpmcQueue under multi-core
// dispatch (§5 elasticity depends on dispatch staying cheap as cores
// scale): producers land on a shard in one lock crossing — a whole fan-out
// batch per crossing via PushBatch — consumers pop their own shard free of
// sibling contention and steal only when idle.
//
// Park protocol: each shard has one consumer, its owner (an engine worker).
// A consumer with nothing to pop parks on its own shard, and
// a push wakes exactly as many parked consumers as it brought items — the
// shard's owner first, then parked siblings, which steal. Among parked
// siblings the most recently parked goes first: its core is the likeliest
// to be awake still and its cache warm, which is what a herd wake used to
// buy by waking everyone and letting the quickest win. A push whose
// owner is busy therefore hands the item to an idle sibling instead of
// queueing it behind running work. No wake is lost: the consumer publishes
// "parked" under its shard lock and then re-scans every shard before it
// sleeps, while a pusher publishes its item under a shard lock and only
// then reads the parked flags — the shard locks order the two, so either
// the scan finds the item or the pusher finds the flag. A woken consumer
// may find its item taken by a sibling that was not parked; it then parks
// again, and any consumer not parked re-scans before it sleeps, so a queued
// item always has a consumer coming. Parked consumers never wake on a
// timer; a deadline is only ever the caller's own.
//
// Spin-then-park: a single wake pays the whole wake-up of one sleeping
// core, where a herd wake let the quickest of several win. A consumer whose
// recent parks got their wake within kSoonMicros therefore spins up to
// kSpinMicros before it sleeps, and a push that claims it during the spin
// needs no wake-up at all. The spin is earned, not timed: a consumer whose
// wakes come later than that — a serial request stream, an idle engine —
// never spins, so it costs no CPU while it waits.
//
// Counter contract: pushes and pops are counted per shard under the same
// lock as the queue operation; total_pushed()/total_popped() aggregate
// across shards, so the PI controller's growth-rate deltas stay coherent
// no matter which shard a task lands on or which worker steals it. A steal
// counts as a pop. RehomeShard moves items between shards without touching
// either counter — re-homing is neither an arrival nor a departure.
// total_wakeups() counts parks that slept and ended in a wake rather than
// at their deadline; total_spins() counts parks that spun first.
//
// Priority: each shard carries two FIFO lanes. Items pushed urgent pop
// before any normal-lane item on the same shard (pops, steals, and
// re-homing all respect the lanes), so interactive work overtakes batch
// backlog without a separate queue or extra lock crossings.
#ifndef SRC_BASE_SHARDED_QUEUE_H_
#define SRC_BASE_SHARDED_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/clock.h"

namespace dbase {

template <typename T>
class ShardedTaskQueue {
 public:
  explicit ShardedTaskQueue(size_t num_shards) {
    const size_t count = num_shards == 0 ? 1 : num_shards;
    shards_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  ShardedTaskQueue(const ShardedTaskQueue&) = delete;
  ShardedTaskQueue& operator=(const ShardedTaskQueue&) = delete;

  size_t shard_count() const { return shards_.size(); }

  // Round-robin producer path. Returns false if the queue is closed.
  bool Push(T item, bool urgent = false) {
    return PushToShard(rr_.fetch_add(1, std::memory_order_relaxed) % shards_.size(),
                       std::move(item), urgent);
  }

  // Targeted producer path (callers route to the shard of a worker whose
  // role matches the task). Wakes the shard's owner if it is parked, else
  // one parked sibling. Returns false if the queue is closed.
  bool PushToShard(size_t shard, T item, bool urgent = false) {
    const size_t index = ShardIndex(shard);
    Shard& s = *shards_[index];
    bool owner_woken = false;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (closed_.load(std::memory_order_relaxed)) {
        return false;
      }
      (urgent ? s.urgent : s.items).push_back(std::move(item));
      s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
      ++s.pushed;
      owner_woken = ClaimLocked(s);
    }
    WakeAfterPush(index, 1, owner_woken);
    return true;
  }

  // Lands an entire batch on one shard in a single lock crossing — the
  // amortized path for each/key fan-outs. Every item still counts as one
  // push, and the batch wakes up to one parked consumer per item (owner
  // first). Returns false (dropping the batch) if the queue is closed.
  bool PushBatch(std::vector<T> items, size_t shard, bool urgent = false) {
    if (items.empty()) {
      return !closed_.load(std::memory_order_relaxed);
    }
    const size_t index = ShardIndex(shard);
    Shard& s = *shards_[index];
    bool owner_woken = false;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (closed_.load(std::memory_order_relaxed)) {
        return false;
      }
      s.pushed += items.size();
      std::deque<T>& lane = urgent ? s.urgent : s.items;
      for (auto& item : items) {
        lane.push_back(std::move(item));
      }
      s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
      owner_woken = ClaimLocked(s);
    }
    WakeAfterPush(index, items.size(), owner_woken);
    return true;
  }

  // Non-blocking pop from the caller's own shard (FIFO).
  std::optional<T> TryPopLocal(size_t shard) {
    Shard& s = *shards_[ShardIndex(shard)];
    std::lock_guard<std::mutex> lock(s.mu);
    return PopFrontLocked(s);
  }

  // Scans sibling shards (starting past the thief's own) and takes the
  // oldest item of the first non-empty one. Counts as a pop plus a steal.
  std::optional<T> TrySteal(size_t thief_shard) {
    const size_t n = shards_.size();
    const size_t thief = ShardIndex(thief_shard);
    for (size_t offset = 1; offset < n; ++offset) {
      Shard& victim = *shards_[(thief + offset) % n];
      // Always under the victim's lock, never a lock-free size check: the
      // park re-scan relies on it to order itself against every push.
      std::lock_guard<std::mutex> lock(victim.mu);
      auto item = PopFrontLocked(victim);
      if (item.has_value()) {
        ++victim.stolen;
        return item;
      }
    }
    return std::nullopt;
  }

  // Local pop, then steal, then park on the local shard until an item
  // lands on it, a push hands this consumer a sibling's item, Wake(shard)
  // or Close() — or `timeout_us` elapses. May return nullopt before the
  // timeout (woken for an item another consumer took, or by Wake; callers
  // loop); returns nullopt when closed and the local shard is drained
  // (siblings may still hold items — callers drain those via TryPop).
  std::optional<T> PopWithTimeout(size_t shard, Micros timeout_us) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
    return PopOrPark(shard, &deadline);
  }

  // PopWithTimeout without a deadline: parks until woken.
  std::optional<T> Pop(size_t shard) { return PopOrPark(shard, nullptr); }

  // Wakes the shard's owner if it is parked, or makes its next park return
  // at once — for a consumer whose reason to park changed (an engine
  // worker's role shift), not for new items.
  void Wake(size_t shard) {
    Shard& s = *shards_[ShardIndex(shard)];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.parked_order.store(0, std::memory_order_relaxed);
      s.wake = true;
      s.woken_at = std::chrono::steady_clock::now();
    }
    s.cv.notify_one();
  }

  // 0 when the shard's owner is not parked, else when it parked relative to
  // the other owners (larger = more recent). Lock-free, may lag a racing
  // park or wake — lets producers route to the warmest idle consumer.
  uint64_t ParkOrder(size_t shard) const {
    return shards_[ShardIndex(shard)]->parked_order.load(std::memory_order_relaxed);
  }

  // Local pop falling back to a steal; never blocks.
  std::optional<T> TryPop(size_t shard) {
    if (auto item = TryPopLocal(shard)) {
      return item;
    }
    return TrySteal(shard);
  }

  // Moves everything queued on `from` onto the `to` shards (round-robin)
  // without touching the pushed/popped counters: used when a worker's role
  // shift leaves residue on a shard no same-role worker calls home. Each
  // moved item wakes like a push. With no eligible targets the items stay
  // put — stealing is the safety net. Returns the number of items moved.
  size_t RehomeShard(size_t from, const std::vector<size_t>& to) {
    const size_t source = ShardIndex(from);
    std::deque<T> residue;         // Normal lane.
    std::deque<T> urgent_residue;  // Urgent lane (keeps its lane on arrival).
    {
      Shard& s = *shards_[source];
      std::lock_guard<std::mutex> lock(s.mu);
      // Count the residue as in flight *before* it leaves the shard, so
      // Size() never reads a false empty mid-move (a shutdown drain racing
      // a role shift must keep seeing these tasks).
      rehoming_.fetch_add(s.items.size() + s.urgent.size(), std::memory_order_release);
      residue.swap(s.items);
      urgent_residue.swap(s.urgent);
      s.approx_size.store(0, std::memory_order_relaxed);
    }
    if (residue.empty() && urgent_residue.empty()) {
      return 0;
    }
    std::vector<size_t> targets;
    for (size_t t : to) {
      if (ShardIndex(t) != source) {
        targets.push_back(ShardIndex(t));
      }
    }
    if (targets.empty()) {
      // Put the residue back; no same-role shard exists to receive it.
      const size_t count = residue.size() + urgent_residue.size();
      Shard& s = *shards_[source];
      {
        std::lock_guard<std::mutex> lock(s.mu);
        for (auto& item : residue) {
          s.items.push_back(std::move(item));
        }
        for (auto& item : urgent_residue) {
          s.urgent.push_back(std::move(item));
        }
        s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
      }
      rehoming_.fetch_sub(count, std::memory_order_release);
      return 0;
    }
    const size_t moved = residue.size() + urgent_residue.size();
    size_t next = 0;
    const auto distribute = [&](std::deque<T>* lane_residue, bool urgent) {
      while (!lane_residue->empty()) {
        const size_t target = targets[next++ % targets.size()];
        Shard& s = *shards_[target];
        bool owner_woken = false;
        {
          std::lock_guard<std::mutex> lock(s.mu);
          (urgent ? s.urgent : s.items).push_back(std::move(lane_residue->front()));
          s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
          owner_woken = ClaimLocked(s);
        }
        // Decrement only after the item is visible on its new shard: Size()
        // may transiently double-count, never undercount.
        rehoming_.fetch_sub(1, std::memory_order_release);
        lane_residue->pop_front();
        WakeAfterPush(target, 1, owner_woken);
      }
    };
    distribute(&urgent_residue, /*urgent=*/true);
    distribute(&residue, /*urgent=*/false);
    return moved;
  }

  // After Close(), pushes fail and pops drain remaining items then return
  // nullopt. Wakes every parked consumer.
  void Close() {
    closed_.store(true, std::memory_order_relaxed);
    // Take each shard lock once so no consumer can check its park
    // predicate between the store and the notify, then wake everyone.
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
    }
    for (auto& shard : shards_) {
      shard->cv.notify_all();
    }
  }

  bool closed() const { return closed_.load(std::memory_order_relaxed); }

  size_t ShardSize(size_t shard) const {
    const Shard& s = *shards_[ShardIndex(shard)];
    std::lock_guard<std::mutex> lock(s.mu);
    return s.items.size() + s.urgent.size();
  }

  // Lock-free approximate depth (maintained under the shard lock, read
  // relaxed) — the submit path's load-balancing signal. May lag the exact
  // size by a racing operation; never use it for drain/emptiness proofs.
  size_t ApproxShardSize(size_t shard) const {
    return shards_[ShardIndex(shard)]->approx_size.load(std::memory_order_relaxed);
  }

  size_t Size() const {
    size_t total = rehoming_.load(std::memory_order_acquire);
    for (size_t i = 0; i < shards_.size(); ++i) {
      total += ShardSize(i);
    }
    return total;
  }

  // Urgent-lane backlog summed across shards — the control plane's
  // interactive-class queue-depth signal. Items mid-rehome are not
  // attributed (this is a load signal, not a drain proof).
  size_t UrgentSize() const {
    size_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += shard->urgent.size();
    }
    return total;
  }

  // Aggregate counters; the controller uses deltas of these between
  // sampling periods as queue growth rates (arrivals − departures).
  uint64_t total_pushed() const {
    return SumOverShards([](const Shard& s) { return s.pushed; });
  }
  uint64_t total_popped() const {
    return SumOverShards([](const Shard& s) { return s.popped; });
  }
  uint64_t total_stolen() const {
    return SumOverShards([](const Shard& s) { return s.stolen; });
  }
  uint64_t total_wakeups() const {
    return SumOverShards([](const Shard& s) { return s.wakeups; });
  }
  uint64_t total_spins() const {
    return SumOverShards([](const Shard& s) { return s.spins; });
  }

 private:
  using Deadline = std::chrono::steady_clock::time_point;

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<T> items;   // Normal lane.
    std::deque<T> urgent;  // Pops ahead of `items` (interactive class).
    // Guarded by mu — counted under the same lock as the queue operation.
    uint64_t pushed = 0;
    uint64_t popped = 0;
    uint64_t stolen = 0;
    uint64_t wakeups = 0;
    uint64_t spins = 0;
    // A wake was posted to the owner: a push claimed it, or Wake() was
    // called. Guarded by mu; cleared when the owner leaves its park.
    bool wake = false;
    std::chrono::steady_clock::time_point woken_at;  // When `wake` was set.
    // 0 while the owner is not parked, else the queue's park_seq_ when it
    // published its park. Written under mu; read under mu to claim the
    // owner, and lock-free by pushers looking for a consumer to wake.
    std::atomic<uint64_t> parked_order{0};
    // Mirror of items.size(), written under mu, read lock-free by
    // ApproxShardSize.
    std::atomic<size_t> approx_size{0};
    // Spin-then-park (guarded by mu): the owner spins before it sleeps while
    // spin_score > 0; see kSpinCredit.
    int spin_score = 0;
  };

  // A wake posted within kSoonMicros of a park earns the owner kSpinCredit,
  // and each spin that no such wake ends costs it one: a consumer spins
  // while more than one park in kSpinCredit + 1 ends that soon. A spin
  // lasts up to kSpinMicros, which catches the soon wakes and many of the
  // later ones under load; a consumer whose wakes all come later than
  // kSoonMicros — a serial request stream — stops spinning.
  static constexpr auto kSoonMicros = std::chrono::microseconds(20);
  static constexpr auto kSpinMicros = std::chrono::microseconds(50);
  static constexpr int kSpinCredit = 8;
  static constexpr int kMaxSpinScore = 2 * kSpinCredit;

  // Pops the front item — urgent lane first — and maintains
  // popped/approx_size. Caller holds s.mu.
  std::optional<T> PopFrontLocked(Shard& s) {
    std::deque<T>* lane = !s.urgent.empty() ? &s.urgent : &s.items;
    if (lane->empty()) {
      return std::nullopt;
    }
    T item = std::move(lane->front());
    lane->pop_front();
    s.approx_size.store(s.items.size() + s.urgent.size(), std::memory_order_relaxed);
    ++s.popped;
    return item;
  }

  // Takes the owner out of its park and posts it a wake, if it is parked.
  // Returns whether it did; the caller notifies s.cv after unlocking. Caller
  // holds s.mu.
  bool ClaimLocked(Shard& s) {
    if (s.parked_order.load(std::memory_order_relaxed) == 0) {
      return false;
    }
    s.parked_order.store(0, std::memory_order_relaxed);
    s.wake = true;
    s.woken_at = std::chrono::steady_clock::now();
    return true;
  }

  // The wake half of a push of `count` items onto `shard`: notify the owner
  // if the push claimed it, then claim one parked sibling per remaining
  // item.
  void WakeAfterPush(size_t shard, size_t count, bool owner_woken) {
    if (owner_woken) {
      shards_[shard]->cv.notify_one();
      --count;
    }
    WakeParked(count);
  }

  // Claims and notifies up to `count` parked owners, most recently parked
  // first. The lock-free order skips busy shards; the claim itself is
  // re-checked under the owner's lock.
  void WakeParked(size_t count) {
    size_t woken = 0;
    // A failed claim lost a race with that owner's unpark: rescan, boundedly.
    for (size_t tries = 0; woken < count && tries < count + shards_.size(); ++tries) {
      Shard* warmest = nullptr;
      uint64_t warmest_order = 0;
      for (const auto& shard : shards_) {
        const uint64_t order = shard->parked_order.load(std::memory_order_relaxed);
        if (order > warmest_order) {
          warmest = shard.get();
          warmest_order = order;
        }
      }
      if (warmest == nullptr) {
        break;
      }
      bool claimed = false;
      {
        std::lock_guard<std::mutex> lock(warmest->mu);
        claimed = ClaimLocked(*warmest);
      }
      if (claimed) {
        warmest->cv.notify_one();
        ++woken;
      }
    }
  }

  // Leaves a park. Caller holds s.mu.
  static void UnparkLocked(Shard& s) {
    s.parked_order.store(0, std::memory_order_relaxed);
    s.wake = false;
  }

  std::optional<T> PopOrPark(size_t shard, const Deadline* deadline) {
    const size_t index = ShardIndex(shard);
    Shard& s = *shards_[index];
    bool closed = false;
    bool spin = false;
    Deadline parked_at;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (auto item = PopFrontLocked(s)) {
        return item;
      }
      parked_at = std::chrono::steady_clock::now();
      closed = closed_.load(std::memory_order_relaxed);
      spin = s.spin_score > 0;
      if (!closed) {
        // Publish the park before the re-scan below: a push that lands
        // after the scan passed its shard finds this flag and wakes us.
        s.parked_order.store(park_seq_.fetch_add(1, std::memory_order_relaxed) + 1,
                             std::memory_order_relaxed);
      }
    }
    if (closed) {
      return TrySteal(index);
    }
    if (auto item = TrySteal(index)) {
      std::lock_guard<std::mutex> lock(s.mu);
      UnparkLocked(s);
      return item;
    }
    if (spin) {
      // A claim or Wake() clears parked_order; the push's notify then finds
      // no sleeper and costs no futex call on either side. The spin yields
      // instead of pausing, so it never holds back a runnable thread on its
      // core: a pause spin raised local_small's high-rate p99 by half.
      auto spin_end = parked_at + kSpinMicros;
      if (deadline != nullptr && *deadline < spin_end) {
        spin_end = *deadline;
      }
      while (s.parked_order.load(std::memory_order_relaxed) != 0 &&
             !closed_.load(std::memory_order_relaxed) &&
             std::chrono::steady_clock::now() < spin_end) {
        std::this_thread::yield();
      }
    }
    {
      std::unique_lock<std::mutex> lock(s.mu);
      bool slept = false;
      bool timed_out = false;
      while (!s.wake && s.items.empty() && s.urgent.empty() &&
             !closed_.load(std::memory_order_relaxed)) {
        slept = true;
        if (deadline == nullptr) {
          s.cv.wait(lock);
        } else if (s.cv.wait_until(lock, *deadline) == std::cv_status::timeout) {
          timed_out = true;
          break;
        }
      }
      if (slept && !timed_out) {
        ++s.wakeups;
      }
      s.spins += spin ? 1 : 0;
      if (s.wake && s.woken_at - parked_at < kSoonMicros) {
        s.spin_score = std::min(kMaxSpinScore, s.spin_score + kSpinCredit);
      } else if (spin) {
        s.spin_score = std::max(0, s.spin_score - 1);
      }
      UnparkLocked(s);
      if (auto item = PopFrontLocked(s)) {
        return item;
      }
    }
    // Woken for a sibling's item (or timed out): steal before handing
    // control back to the caller's loop.
    return TrySteal(index);
  }

  // Clamps a caller-supplied shard id without a division on the hot path
  // (callers pass valid ids; the modulo is the safety net).
  size_t ShardIndex(size_t shard) const {
    return shard < shards_.size() ? shard : shard % shards_.size();
  }

  template <typename Field>
  uint64_t SumOverShards(Field field) const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total += field(*shard);
    }
    return total;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> rr_{0};
  // Orders parks so wakes can prefer the most recent one.
  std::atomic<uint64_t> park_seq_{0};
  // Items mid-RehomeShard: out of their source shard but not yet on a
  // target. Included in Size() so drains never observe a false empty.
  std::atomic<size_t> rehoming_{0};
};

}  // namespace dbase

#endif  // SRC_BASE_SHARDED_QUEUE_H_
