// Monadic futures (paper §3.5).
//
// EbbRT's futures differ from std::future in exactly the ways the paper calls out:
//
//   * `Then(f)` chains a continuation and returns a new future for f's result (monadic bind);
//     when f itself returns a Future<U>, the result flattens to Future<U>.
//   * When the value is already available, `Then` runs the continuation *synchronously* — the
//     ARP-cache-hit path in Figure 2 never bounces through the event loop.
//   * Exceptions flow: `Get()` rethrows a stored exception; a continuation that does not catch
//     leaves the exception in the returned future, so only the *final* `Then` must handle
//     errors, mirroring synchronous try/catch structure.
//
// A future is in one of three representations:
//
//   * inline ready — MakeReadyFuture / MakeFailedFuture store the value or exception_ptr in
//     the Future object itself. No shared state exists.
//   * shared — a Promise allocates the one SharedState its futures point at. Only a future
//     that may be fulfilled later (by SetValue on another event or core) needs one.
//   * invalid — default-constructed, moved-from, or consumed by Then.
//
// `Then` on a future that is already ready (inline, or shared and fulfilled) invokes f at
// once and returns an inline result: f's value, f's returned future (flattening), or f's
// exception. That path allocates nothing — no Promise, no continuation — so Figure 2's
// cache-hit send costs no heap traffic. Only `Then` on a pending future installs a
// continuation on the shared state and allocates the result's Promise.
//
// The state word + continuation install/fire handshake is the "sometimes subtle
// synchronization code" the paper centralizes here: SetValue and Then may race from different
// cores; a spinlock over tiny critical sections resolves it.
#ifndef EBBRT_SRC_FUTURE_FUTURE_H_
#define EBBRT_SRC_FUTURE_FUTURE_H_

#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/platform/debug.h"
#include "src/platform/move_function.h"
#include "src/platform/spinlock.h"

namespace ebbrt {

template <typename T>
class Future;
template <typename T>
class Promise;
template <typename T, typename... Args>
Future<T> MakeReadyFuture(Args&&... args);
template <typename T>
Future<T> MakeFailedFuture(std::exception_ptr eptr);

namespace future_internal {

template <typename T>
struct Flatten {
  using type = T;
};
template <typename T>
struct Flatten<Future<T>> {
  using type = typename Flatten<T>::type;
};

template <typename T>
using flatten_t = typename Flatten<T>::type;

template <typename T>
struct IsFuture : std::false_type {};
template <typename T>
struct IsFuture<Future<T>> : std::true_type {};

enum class State : std::uint8_t { kPending, kReady, kFailed };

template <typename T>
struct ValueStorage {
  alignas(T) unsigned char bytes[sizeof(T)];
  T* ptr() { return std::launder(reinterpret_cast<T*>(bytes)); }
  template <typename... Args>
  void Construct(Args&&... args) {
    new (bytes) T(std::forward<Args>(args)...);
  }
  void Destroy() { ptr()->~T(); }
};

template <>
struct ValueStorage<void> {
  void Construct() {}
  void Destroy() {}
};

template <typename T>
class SharedState {
 public:
  using Continuation = MoveFunction<void()>;

  ~SharedState() {
    if (state_ == State::kReady) {
      value_.Destroy();
    }
  }

  template <typename... Args>
  void SetValue(Args&&... args) {
    Continuation cont;
    {
      std::lock_guard<Spinlock> lock(mu_);
      Kassert(state_ == State::kPending, "Future: value set twice");
      value_.Construct(std::forward<Args>(args)...);
      state_ = State::kReady;
      cont = std::move(continuation_);
    }
    if (cont) {
      cont();
    }
  }

  void SetException(std::exception_ptr eptr) {
    Continuation cont;
    {
      std::lock_guard<Spinlock> lock(mu_);
      Kassert(state_ == State::kPending, "Future: value set twice");
      exception_ = std::move(eptr);
      state_ = State::kFailed;
      cont = std::move(continuation_);
    }
    if (cont) {
      cont();
    }
  }

  // Installs `cont` to run when the state becomes ready; runs it immediately (synchronously,
  // on this core) if it already is. Returns true when run synchronously.
  bool SetContinuation(Continuation cont) {
    {
      std::lock_guard<Spinlock> lock(mu_);
      if (state_ == State::kPending) {
        Kassert(!continuation_, "Future: Then called twice");
        continuation_ = std::move(cont);
        return false;
      }
    }
    cont();
    return true;
  }

  bool Ready() const {
    std::lock_guard<Spinlock> lock(mu_);
    return state_ != State::kPending;
  }

  State state() const {
    std::lock_guard<Spinlock> lock(mu_);
    return state_;
  }

  // Pre: ready. Moves the value out / rethrows the failure.
  template <typename U = T>
  std::enable_if_t<!std::is_void_v<U>, U> Take() {
    Kassert(state_ != State::kPending, "Future: Get before ready");
    if (state_ == State::kFailed) {
      std::rethrow_exception(exception_);
    }
    return std::move(*value_.ptr());
  }

  void TakeVoid() {
    Kassert(state_ != State::kPending, "Future: Get before ready");
    if (state_ == State::kFailed) {
      std::rethrow_exception(exception_);
    }
  }

  std::exception_ptr exception() const { return exception_; }

 private:
  mutable Spinlock mu_;
  State state_ = State::kPending;
  ValueStorage<T> value_;
  std::exception_ptr exception_;
  Continuation continuation_;
};

// Invokes f(args...) now and returns its (flattened) result as a future without a Promise:
// a returned future passes through, a value or void becomes inline ready, and a throw
// becomes inline failed.
template <typename R, typename F, typename... Args>
Future<flatten_t<R>> InvokeReady(F& f, Args&&... args) {
  try {
    if constexpr (IsFuture<R>::value) {
      return f(std::forward<Args>(args)...);
    } else if constexpr (std::is_void_v<R>) {
      f(std::forward<Args>(args)...);
      return MakeReadyFuture<void>();
    } else {
      return MakeReadyFuture<R>(f(std::forward<Args>(args)...));
    }
  } catch (...) {
    return MakeFailedFuture<flatten_t<R>>(std::current_exception());
  }
}

// Moves a ready future's value or exception into `promise`.
template <typename U>
void Fulfill(Promise<U>& promise, Future<U> done) {
  try {
    if constexpr (std::is_void_v<U>) {
      done.Get();
      promise.SetValue();
    } else {
      promise.SetValue(done.Get());
    }
  } catch (...) {
    promise.SetException(std::current_exception());
  }
}

// Fulfills `promise` with the result of invoking f(fut), unwrapping nested futures and
// capturing thrown exceptions.
template <typename R, typename F, typename T>
void InvokeAndFulfill(Promise<flatten_t<R>> promise, F& f, Future<T> fut) {
  using Flat = flatten_t<R>;
  Future<Flat> result = InvokeReady<R>(f, std::move(fut));
  if constexpr (IsFuture<R>::value) {
    if (!result.Ready()) {
      // f returned a pending future: forward its eventual result (flattening). Only this
      // branch chains a Then, which keeps the template instantiation finite.
      result.Then([promise = std::move(promise)](Future<Flat> done) mutable {
        Fulfill(promise, std::move(done));
      });
      return;
    }
  }
  Fulfill(promise, std::move(result));
}

// The value alternative of an inline-ready Future<void>.
struct VoidValue {};

}  // namespace future_internal

template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<future_internal::SharedState<T>>()) {}

  Future<T> GetFuture();

  template <typename... Args>
  void SetValue(Args&&... args) {
    state_->SetValue(std::forward<Args>(args)...);
  }

  void SetException(std::exception_ptr eptr) { state_->SetException(std::move(eptr)); }

 private:
  std::shared_ptr<future_internal::SharedState<T>> state_;
};

template <typename T>
class Future {
 public:
  using ValueType = T;

  Future() = default;
  explicit Future(std::shared_ptr<future_internal::SharedState<T>> state)
      : rep_(std::in_place_index<kShared>, std::move(state)) {}

  // A moved-from future is invalid, whichever representation it held.
  Future(Future&& other) noexcept : rep_(std::move(other.rep_)) { other.Invalidate(); }
  Future& operator=(Future&& other) noexcept {
    if (this != &other) {
      rep_ = std::move(other.rep_);
      other.Invalidate();
    }
    return *this;
  }
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

  bool Valid() const { return rep_.index() != kInvalid; }
  bool Ready() const {
    switch (rep_.index()) {
      case kValue:
      case kFailed:
        return true;
      case kShared:
        return std::get<kShared>(rep_)->Ready();
      default:
        return false;
    }
  }

  // Pre: Ready(). Moves the value out or rethrows the stored exception. A continuation passed
  // to Then receives a fulfilled future and calls Get() on it (Figure 2 line 9).
  T Get() {
    Kassert(Valid(), "Future: Get on invalid future");
    if (rep_.index() == kFailed) {
      std::rethrow_exception(std::get<kFailed>(rep_));
    }
    if constexpr (std::is_void_v<T>) {
      if (rep_.index() == kShared) {
        std::get<kShared>(rep_)->TakeVoid();
      }
    } else {
      if (rep_.index() == kValue) {
        return std::move(std::get<kValue>(rep_));
      }
      return std::get<kShared>(rep_)->Take();
    }
  }

  // Monadic bind. F is invoked with the fulfilled Future<T>; returns Future of F's (flattened)
  // result. Runs synchronously, allocation-free, when this future is already fulfilled.
  template <typename F>
  Future<future_internal::flatten_t<std::invoke_result_t<F, Future<T>>>> Then(F f) {
    using R = std::invoke_result_t<F, Future<T>>;
    using Flat = future_internal::flatten_t<R>;
    Kassert(Valid(), "Future: Then on invalid future");
    if (Ready()) {
      Future<T> self = std::move(*this);  // consumed, whatever f's parameter type
      return future_internal::InvokeReady<R>(f, std::move(self));
    }
    auto state = std::get<kShared>(std::move(rep_));  // keeps it alive through the continuation
    Invalidate();                                     // consumed
    Promise<Flat> promise;
    Future<Flat> result = promise.GetFuture();
    state->SetContinuation(
        [state, f = std::move(f), promise = std::move(promise)]() mutable {
          future_internal::InvokeAndFulfill<R>(std::move(promise), f, Future<T>(state));
        });
    return result;
  }

 private:
  template <typename U, typename... Args>
  friend Future<U> MakeReadyFuture(Args&&... args);
  template <typename U>
  friend Future<U> MakeFailedFuture(std::exception_ptr eptr);

  enum : std::size_t { kInvalid, kShared, kValue, kFailed };
  using Value = std::conditional_t<std::is_void_v<T>, future_internal::VoidValue, T>;

  template <std::size_t I, typename... Args>
  explicit Future(std::in_place_index_t<I> tag, Args&&... args)
      : rep_(tag, std::forward<Args>(args)...) {}

  void Invalidate() { rep_.template emplace<kInvalid>(); }

  std::variant<std::monostate, std::shared_ptr<future_internal::SharedState<T>>, Value,
               std::exception_ptr>
      rep_;
};

template <typename T>
Future<T> Promise<T>::GetFuture() {
  return Future<T>(state_);
}

// --- Constructors ----------------------------------------------------------------------------

template <typename T, typename... Args>
Future<T> MakeReadyFuture(Args&&... args) {
  return Future<T>(std::in_place_index<Future<T>::kValue>, std::forward<Args>(args)...);
}

template <typename T>
Future<T> MakeFailedFuture(std::exception_ptr eptr) {
  return Future<T>(std::in_place_index<Future<T>::kFailed>, std::move(eptr));
}

// Runs `f()` and captures its (flattened) result or exception into a future. Convenient at
// async API boundaries: callers get exception flow through the future instead of a throw.
template <typename F>
auto AsyncHelper(F&& f) -> Future<future_internal::flatten_t<std::invoke_result_t<F>>> {
  return future_internal::InvokeReady<std::invoke_result_t<F>>(f);
}

// --- WhenAll ---------------------------------------------------------------------------------

// Collects the results of all futures (in order). If any fails, the aggregate fails with the
// first error observed (others' errors are swallowed, matching EbbRT's semantics).
//
// Join discipline (the scatter-gather RPC hot path rides this):
//   * an empty vector resolves immediately;
//   * already-ready members run their join step synchronously inside this call (Then's
//     ready fast path) — a fan-out whose replies all arrived returns a ready future without
//     bouncing through the event loop;
//   * the completion count is a lock-free atomic countdown: each member writes only its own
//     slot, so N replies landing on N cores join without a shared lock (the fetch_sub's
//     acq_rel ordering publishes every slot to whichever member finishes last);
//   * failure policy: the aggregate fails with the FIRST error observed, but only after
//     every member has completed — straggler continuations still have their slots and
//     promises, nothing is abandoned mid-flight or leaked (the shared gather state dies
//     with the last member's continuation).
template <typename T>
Future<std::vector<T>> WhenAll(std::vector<Future<T>> futures) {
  struct Gather {
    std::vector<T> values;
    std::atomic<std::size_t> remaining;
    Spinlock error_mu;  // error path only; the success path never takes it
    std::exception_ptr first_error;
    Promise<std::vector<T>> promise;
  };
  if (futures.empty()) {
    return MakeReadyFuture<std::vector<T>>(std::vector<T>{});
  }
  auto gather = std::make_shared<Gather>();
  gather->values.resize(futures.size());
  gather->remaining.store(futures.size(), std::memory_order_relaxed);
  Future<std::vector<T>> result = gather->promise.GetFuture();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    futures[i].Then([gather, i](Future<T> f) {
      try {
        gather->values[i] = f.Get();  // distinct slots: no lock needed
      } catch (...) {
        std::lock_guard<Spinlock> lock(gather->error_mu);
        if (!gather->first_error) {
          gather->first_error = std::current_exception();
        }
      }
      if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        if (gather->first_error) {
          gather->promise.SetException(gather->first_error);
        } else {
          gather->promise.SetValue(std::move(gather->values));
        }
      }
    });
  }
  return result;
}

// void flavor: completion only.
Future<void> WhenAll(std::vector<Future<void>> futures);

}  // namespace ebbrt

#endif  // EBBRT_SRC_FUTURE_FUTURE_H_
