// Timer — per-core timeout dispatch Ebb.
//
// Timeouts are core-local (started, fired, and stopped on one core), so the wheel needs no
// synchronization. The representative registers a poll hook with its core's EventManager; the
// event loop invokes it at the top of each dispatch pass ("timer completions" are interrupt
// sources in the paper's model), and uses the reported next deadline to bound Halt.
//
// Entries live in slots recycled through a free list and handles carry a slot generation,
// so a steady start/fire/stop cycle (TCP's RTO re-arms, RPC deadline sweeps) allocates
// nothing once the slot table has grown to the core's peak timer count.
#ifndef EBBRT_SRC_EVENT_TIMER_H_
#define EBBRT_SRC_EVENT_TIMER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "src/core/ebb_id.h"
#include "src/core/ebb_ref.h"
#include "src/core/runtime.h"
#include "src/event/event_manager.h"
#include "src/platform/move_function.h"

namespace ebbrt {

class Timer;

class TimerRoot {
 public:
  TimerRoot(Executor& executor, EventManagerRoot& em_root, std::size_t num_cores);
  Timer& RepFor(std::size_t machine_core);
  Executor& executor() { return executor_; }
  EventManagerRoot& em_root() { return em_root_; }

 private:
  Executor& executor_;
  EventManagerRoot& em_root_;
  std::vector<std::unique_ptr<Timer>> reps_;
  Spinlock mu_;  // guards lazy rep construction (first touch can race across cores)
};

class Timer {
 public:
  static EbbRef<Timer> Instance() { return EbbRef<Timer>(kTimerId); }
  static Timer& HandleFault(EbbId id);

  Timer(TimerRoot& root, std::size_t machine_core);

  // Arms a timeout `delay_ns` from now on the current core; returns a handle for Stop().
  // Periodic timers re-arm with the same period until stopped.
  std::uint64_t Start(std::uint64_t delay_ns, MoveFunction<void()> fn, bool periodic = false);
  void Stop(std::uint64_t handle);

  // Started timers not yet reclaimed; a stopped one counts until its deadline pops.
  std::size_t pending() const { return slots_.size() - free_slots_.size(); }
  // The clock deadlines are measured against (the machine's executor time).
  std::uint64_t Now() const { return root_.executor().Now(); }

  // Invoked by the event loop: runs all due callbacks, returns count + next deadline.
  EventManager::TimerPollResult Poll(std::uint64_t now);

 private:
  struct Entry {
    MoveFunction<void()> fn;
    std::uint64_t period_ns = 0;   // 0 => one-shot
    std::uint32_t generation = 0;  // bumped when the slot is reclaimed: stale handles miss
    bool live = false;
    bool cancelled = false;
  };
  struct QueueItem {
    std::uint64_t deadline;
    std::uint64_t order;  // start order: equal deadlines fire first-started first
    std::uint64_t handle;
    friend bool operator>(const QueueItem& a, const QueueItem& b) {
      return a.deadline != b.deadline ? a.deadline > b.deadline : a.order > b.order;
    }
  };

  // A handle is (generation << 32) | (slot + 1), so it is never 0.
  static std::uint32_t SlotOf(std::uint64_t handle) {
    return static_cast<std::uint32_t>(handle) - 1;
  }
  Entry* Find(std::uint64_t handle);
  void Reclaim(std::uint64_t handle);

  TimerRoot& root_;
  std::size_t machine_core_;
  std::uint64_t next_order_ = 0;
  // A deque, so a periodic callback running in place survives Start() growing the table.
  std::deque<Entry> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue_;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_EVENT_TIMER_H_
