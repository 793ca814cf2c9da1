#include "src/event/timer.h"

namespace ebbrt {

TimerRoot::TimerRoot(Executor& executor, EventManagerRoot& em_root, std::size_t num_cores)
    : executor_(executor), em_root_(em_root) {
  reps_.resize(num_cores);
}

Timer& TimerRoot::RepFor(std::size_t machine_core) {
  Kassert(machine_core < reps_.size(), "TimerRoot: bad core");
  std::lock_guard<Spinlock> lock(mu_);
  if (reps_[machine_core] == nullptr) {
    reps_[machine_core] = std::make_unique<Timer>(*this, machine_core);
  }
  return *reps_[machine_core];
}

Timer& Timer::HandleFault(EbbId id) {
  Context& ctx = CurrentContext();
  auto* root = static_cast<TimerRoot*>(ctx.runtime->FindRoot(id));
  Kbugon(root == nullptr, "Timer: no root installed for machine '%s'",
         ctx.runtime->name().c_str());
  Timer& rep = root->RepFor(ctx.machine_core);
  Runtime::CacheRep(id, &rep);
  return rep;
}

Timer::Timer(TimerRoot& root, std::size_t machine_core)
    : root_(root), machine_core_(machine_core) {
  // Hook this rep into its core's event loop. The loop polls due timers each pass and uses
  // the returned deadline to bound its halt.
  root_.em_root().RepFor(machine_core_).SetTimerPoll(
      [this](std::uint64_t now) { return Poll(now); });
}

std::uint64_t Timer::Start(std::uint64_t delay_ns, MoveFunction<void()> fn, bool periodic) {
  Kassert(CurrentContext().machine_core == machine_core_, "Timer::Start: wrong core");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    free_slots_.reserve(slots_.size());  // so Reclaim never allocates
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Entry& entry = slots_[slot];
  entry.fn = std::move(fn);
  entry.period_ns = periodic ? delay_ns : 0;
  entry.live = true;
  entry.cancelled = false;
  std::uint64_t handle = (static_cast<std::uint64_t>(entry.generation) << 32) | (slot + 1);
  queue_.push({Now() + delay_ns, next_order_++, handle});
  // Tighten the loop's halt deadline in case no further dispatch pass polls before halting.
  root_.em_root().RepFor(machine_core_).SetTimerDeadline(queue_.top().deadline);
  return handle;
}

Timer::Entry* Timer::Find(std::uint64_t handle) {
  std::uint32_t slot = SlotOf(handle);
  if (slot >= slots_.size()) {
    return nullptr;
  }
  Entry& entry = slots_[slot];
  return entry.live && entry.generation == (handle >> 32) ? &entry : nullptr;
}

void Timer::Reclaim(std::uint64_t handle) {
  Entry& entry = slots_[SlotOf(handle)];
  entry.fn = nullptr;
  entry.live = false;
  ++entry.generation;
  free_slots_.push_back(SlotOf(handle));
}

void Timer::Stop(std::uint64_t handle) {
  if (Entry* entry = Find(handle)) {
    // Lazy cancellation: the slot is reclaimed when its queue item pops.
    entry->cancelled = true;
  }
}

EventManager::TimerPollResult Timer::Poll(std::uint64_t now) {
  EventManager::TimerPollResult result;
  while (!queue_.empty() && queue_.top().deadline <= now) {
    QueueItem item = queue_.top();
    queue_.pop();
    Entry* entry = Find(item.handle);  // every queued handle is live: one item per entry
    if (entry->cancelled) {
      Reclaim(item.handle);
      continue;
    }
    ++result.dispatched;
    EventManager& em = root_.em_root().RepFor(machine_core_);
    if (entry->period_ns != 0) {
      // Re-arm before running so the callback can Stop() its own handle. Periodic callbacks
      // are persistent: invoked in place, never moved out.
      queue_.push({item.deadline + entry->period_ns, item.order, item.handle});
      em.RunTimerHandler(&entry->fn, /*persistent=*/true);
    } else {
      // One-shot: move the callback out and reclaim the slot first, so the callback may start
      // new timers (including into this slot). The event stack takes ownership.
      MoveFunction<void()> fn = std::move(entry->fn);
      Reclaim(item.handle);
      em.RunTimerHandler(&fn, /*persistent=*/false);
    }
  }
  result.next_deadline = queue_.empty() ? kNoWakeup : queue_.top().deadline;
  return result;
}

}  // namespace ebbrt
