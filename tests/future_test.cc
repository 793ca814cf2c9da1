// Tests for monadic futures (§3.5): Then chaining, synchronous fast path, flattening,
// exception flow, WhenAll, and the allocation-free inline-ready representation.
#include "src/future/future.h"

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/event/thread_machine.h"
#include "src/mem/gp_allocator.h"

namespace ebbrt {
namespace {

TEST(Future, ReadyFutureGet) {
  auto f = MakeReadyFuture<int>(42);
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(f.Get(), 42);
}

TEST(Future, PromiseFulfillsLater) {
  Promise<std::string> p;
  auto f = p.GetFuture();
  EXPECT_FALSE(f.Ready());
  p.SetValue("hello");
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(f.Get(), "hello");
}

TEST(Future, ThenOnReadyRunsSynchronously) {
  // Figure 2: when the ARP translation is cached, the continuation runs inline.
  bool ran = false;
  MakeReadyFuture<int>(7).Then([&ran](Future<int> f) {
    EXPECT_EQ(f.Get(), 7);
    ran = true;
  });
  EXPECT_TRUE(ran);  // before Then returned
}

TEST(Future, ThenOnPendingDeferred) {
  Promise<int> p;
  bool ran = false;
  p.GetFuture().Then([&ran](Future<int> f) {
    EXPECT_EQ(f.Get(), 1);
    ran = true;
  });
  EXPECT_FALSE(ran);
  p.SetValue(1);
  EXPECT_TRUE(ran);
}

TEST(Future, ThenReturnsTransformedValue) {
  auto doubled = MakeReadyFuture<int>(21).Then([](Future<int> f) { return f.Get() * 2; });
  ASSERT_TRUE(doubled.Ready());
  EXPECT_EQ(doubled.Get(), 42);
}

TEST(Future, ChainedThens) {
  Promise<int> p;
  auto result = p.GetFuture()
                    .Then([](Future<int> f) { return f.Get() + 1; })
                    .Then([](Future<int> f) { return f.Get() * 10; })
                    .Then([](Future<int> f) { return std::to_string(f.Get()); });
  p.SetValue(3);
  ASSERT_TRUE(result.Ready());
  EXPECT_EQ(result.Get(), "40");
}

TEST(Future, MonadicFlattening) {
  // A continuation returning Future<U> yields Future<U>, not Future<Future<U>>.
  Promise<int> outer;
  Promise<std::string> inner;
  Future<std::string> flat = outer.GetFuture().Then(
      [&inner](Future<int>) { return inner.GetFuture(); });
  EXPECT_FALSE(flat.Ready());
  outer.SetValue(1);
  EXPECT_FALSE(flat.Ready());  // waits for the inner future
  inner.SetValue("deep");
  ASSERT_TRUE(flat.Ready());
  EXPECT_EQ(flat.Get(), "deep");
}

TEST(Future, ExceptionPropagatesToGet) {
  auto f = MakeFailedFuture<int>(std::make_exception_ptr(std::runtime_error("boom")));
  ASSERT_TRUE(f.Ready());
  EXPECT_THROW(f.Get(), std::runtime_error);
}

TEST(Future, ExceptionFlowsThroughIntermediateThens) {
  // Paper: "any intermediate exceptions will naturally flow to the first function which
  // attempts to catch the exception" — intermediate continuations that just Get() pass the
  // error along to the final handler.
  Promise<int> p;
  std::string caught;
  p.GetFuture()
      .Then([](Future<int> f) { return f.Get() + 1; })   // rethrows internally
      .Then([](Future<int> f) { return f.Get() * 2; })   // never produces a value
      .Then([&caught](Future<int> f) {
        try {
          f.Get();
        } catch (const std::runtime_error& e) {
          caught = e.what();
        }
      });
  p.SetException(std::make_exception_ptr(std::runtime_error("arp failed")));
  EXPECT_EQ(caught, "arp failed");
}

TEST(Future, ThrowInsideContinuationCapturedInResult) {
  auto f = MakeReadyFuture<int>(1).Then(
      [](Future<int>) -> int { throw std::logic_error("bad"); });
  ASSERT_TRUE(f.Ready());
  EXPECT_THROW(f.Get(), std::logic_error);
}

TEST(Future, VoidFutureCompletion) {
  Promise<void> p;
  bool done = false;
  p.GetFuture().Then([&done](Future<void> f) {
    f.Get();
    done = true;
  });
  p.SetValue();
  EXPECT_TRUE(done);
}

TEST(Future, VoidChainsToValue) {
  auto f = MakeReadyFuture<void>().Then([](Future<void> fv) {
    fv.Get();
    return 5;
  });
  EXPECT_EQ(f.Get(), 5);
}

TEST(Future, MoveOnlyValue) {
  Promise<std::unique_ptr<int>> p;
  auto f = p.GetFuture().Then([](Future<std::unique_ptr<int>> f) { return *f.Get(); });
  p.SetValue(std::make_unique<int>(11));
  EXPECT_EQ(f.Get(), 11);
}

TEST(Future, AsyncHelperCapturesThrow) {
  auto f = AsyncHelper([]() -> int { throw std::runtime_error("sync throw"); });
  EXPECT_THROW(f.Get(), std::runtime_error);
}

TEST(Future, AsyncHelperFlattens) {
  auto f = AsyncHelper([] { return MakeReadyFuture<int>(9); });
  static_assert(std::is_same_v<decltype(f), Future<int>>);
  EXPECT_EQ(f.Get(), 9);
}

TEST(Future, WhenAllCollectsInOrder) {
  std::vector<Promise<int>> promises(3);
  std::vector<Future<int>> futures;
  for (auto& p : promises) {
    futures.push_back(p.GetFuture());
  }
  auto all = WhenAll(std::move(futures));
  promises[2].SetValue(30);
  promises[0].SetValue(10);
  EXPECT_FALSE(all.Ready());
  promises[1].SetValue(20);
  ASSERT_TRUE(all.Ready());
  EXPECT_EQ(all.Get(), (std::vector<int>{10, 20, 30}));
}

TEST(Future, WhenAllEmptyIsReady) {
  auto all = WhenAll(std::vector<Future<int>>{});
  EXPECT_TRUE(all.Ready());
}

TEST(Future, WhenAllPropagatesFirstError) {
  std::vector<Promise<int>> promises(2);
  std::vector<Future<int>> futures;
  for (auto& p : promises) {
    futures.push_back(p.GetFuture());
  }
  auto all = WhenAll(std::move(futures));
  promises[0].SetException(std::make_exception_ptr(std::runtime_error("e0")));
  promises[1].SetValue(2);
  ASSERT_TRUE(all.Ready());
  EXPECT_THROW(all.Get(), std::runtime_error);
}

TEST(Future, WhenAllVoid) {
  std::vector<Promise<void>> promises(4);
  std::vector<Future<void>> futures;
  for (auto& p : promises) {
    futures.push_back(p.GetFuture());
  }
  auto all = WhenAll(std::move(futures));
  for (auto& p : promises) {
    p.SetValue();
  }
  ASSERT_TRUE(all.Ready());
  EXPECT_NO_THROW(all.Get());
}

TEST(Future, WhenAllVoidEmptyIsReady) {
  auto all = WhenAll(std::vector<Future<void>>{});
  ASSERT_TRUE(all.Ready());
  EXPECT_NO_THROW(all.Get());
}

TEST(Future, WhenAllAlreadyReadyMembersJoinSynchronously) {
  // A join over members that are ALL already fulfilled must itself be ready before WhenAll
  // returns — no deferred hop, the same synchronous fast path a single ready Then takes.
  std::vector<Future<int>> futures;
  futures.push_back(MakeReadyFuture<int>(1));
  futures.push_back(MakeReadyFuture<int>(2));
  futures.push_back(MakeReadyFuture<int>(3));
  auto all = WhenAll(std::move(futures));
  ASSERT_TRUE(all.Ready());
  EXPECT_EQ(all.Get(), (std::vector<int>{1, 2, 3}));

  std::vector<Future<void>> voids;
  voids.push_back(MakeReadyFuture<void>());
  voids.push_back(MakeReadyFuture<void>());
  auto all_void = WhenAll(std::move(voids));
  ASSERT_TRUE(all_void.Ready());
  EXPECT_NO_THROW(all_void.Get());
}

TEST(Future, WhenAllMixedReadyAndPending) {
  // Ready members join inline; the aggregate still waits for the stragglers.
  Promise<int> straggler;
  std::vector<Future<int>> futures;
  futures.push_back(MakeReadyFuture<int>(10));
  futures.push_back(straggler.GetFuture());
  futures.push_back(MakeReadyFuture<int>(30));
  auto all = WhenAll(std::move(futures));
  EXPECT_FALSE(all.Ready());
  straggler.SetValue(20);
  ASSERT_TRUE(all.Ready());
  EXPECT_EQ(all.Get(), (std::vector<int>{10, 20, 30}));
}

TEST(Future, WhenAllErrorDoesNotLeakOtherMembersState) {
  // One member failing must not leak the join state or the other members' values: once
  // every member completes and the aggregate fulfills (with the first error), everything
  // the join captured is released.
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  {
    std::vector<Promise<std::shared_ptr<int>>> promises(3);
    std::vector<Future<std::shared_ptr<int>>> futures;
    for (auto& p : promises) {
      futures.push_back(p.GetFuture());
    }
    auto all = WhenAll(std::move(futures));
    promises[1].SetException(std::make_exception_ptr(std::runtime_error("mid failed")));
    promises[0].SetValue(sentinel);
    sentinel.reset();
    EXPECT_FALSE(all.Ready());  // first-error-wins, but only after ALL members complete
    EXPECT_FALSE(watch.expired());  // straggler outstanding: the join still holds the slot
    promises[2].SetValue(nullptr);
    ASSERT_TRUE(all.Ready());
    // The failed aggregate carries the error, not the values: the gather state (and every
    // successful member's value it held) is released the moment the last member completes.
    EXPECT_TRUE(watch.expired());
    EXPECT_THROW(all.Get(), std::runtime_error);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(Future, WhenAllMoveOnlyValues) {
  std::vector<Promise<std::unique_ptr<int>>> promises(2);
  std::vector<Future<std::unique_ptr<int>>> futures;
  for (auto& p : promises) {
    futures.push_back(p.GetFuture());
  }
  auto all = WhenAll(std::move(futures));
  promises[1].SetValue(std::make_unique<int>(2));
  promises[0].SetValue(std::make_unique<int>(1));
  ASSERT_TRUE(all.Ready());
  auto values = all.Get();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(*values[0], 1);
  EXPECT_EQ(*values[1], 2);
}

// --- Inline-ready futures ---------------------------------------------------------------------

TEST(Future, ReadyChainDoesNotTouchTheHeap) {
  // MakeReadyFuture holds its value inline and Then on a ready future runs at once with an
  // inline result: no shared state, no Promise, no continuation — even for a capture larger
  // than MoveFunction's inline buffer (Figure 2's send captures ~64 bytes).
  std::array<char, 64> big{};
  big[63] = 2;
  auto& counter = mem::stats().generic_heap_allocs;
  std::uint64_t before = counter.load();
  int result = MakeReadyFuture<int>(20)
                   .Then([](Future<int> f) { return f.Get() + 1; })
                   .Then([big](Future<int> f) { return f.Get() * big[63]; })
                   .Get();
  std::uint64_t allocs = counter.load() - before;
  EXPECT_EQ(result, 42);
  EXPECT_EQ(allocs, 0u);
}

TEST(Future, ThrowInInlineContinuationReachesLastThen) {
  bool middle_ran = false;
  std::string caught;
  MakeReadyFuture<int>(1)
      .Then([](Future<int> f) -> int {
        f.Get();
        throw std::runtime_error("inline throw");
      })
      .Then([&middle_ran](Future<int> f) {
        middle_ran = true;
        return f.Get() + 1;  // rethrows: this result fails too
      })
      .Then([&caught](Future<int> f) {
        try {
          f.Get();
        } catch (const std::runtime_error& e) {
          caught = e.what();
        }
      });
  EXPECT_TRUE(middle_ran);
  EXPECT_EQ(caught, "inline throw");
  auto failed = MakeFailedFuture<int>(std::make_exception_ptr(std::logic_error("failed")));
  ASSERT_TRUE(failed.Ready());
  EXPECT_THROW(failed.Get(), std::logic_error);
}

TEST(Future, InlineReadyFutureOfFutureFlattens) {
  // A continuation on an inline-ready future that returns a future yields that future's type,
  // ready at once when the inner one is, and pending until the inner one resolves otherwise.
  Future<std::string> ready = MakeReadyFuture<int>(3).Then(
      [](Future<int> f) { return MakeReadyFuture<std::string>(std::to_string(f.Get())); });
  ASSERT_TRUE(ready.Ready());
  EXPECT_EQ(ready.Get(), "3");

  Promise<std::string> inner;
  Future<std::string> pending =
      MakeReadyFuture<int>(4).Then([&inner](Future<int>) { return inner.GetFuture(); });
  EXPECT_FALSE(pending.Ready());
  inner.SetValue("four");
  ASSERT_TRUE(pending.Ready());
  EXPECT_EQ(pending.Get(), "four");

  Future<void> void_flat =
      MakeReadyFuture<void>().Then([](Future<void>) { return MakeReadyFuture<void>(); });
  EXPECT_TRUE(void_flat.Ready());
  EXPECT_NO_THROW(void_flat.Get());
}

TEST(Future, ThenOnFulfilledPromiseRunsSynchronouslyWithoutAllocating) {
  Promise<int> p;
  Future<int> f = p.GetFuture();
  p.SetValue(5);
  auto& counter = mem::stats().generic_heap_allocs;
  std::uint64_t before = counter.load();
  bool ran = false;
  Future<int> doubled = f.Then([&ran](Future<int> g) {
    ran = true;
    return g.Get() * 2;
  });
  std::uint64_t allocs = counter.load() - before;
  EXPECT_TRUE(ran);  // before Then returned
  EXPECT_EQ(allocs, 0u);
  EXPECT_FALSE(f.Valid());  // consumed
  ASSERT_TRUE(doubled.Ready());
  EXPECT_EQ(doubled.Get(), 10);
}

TEST(Future, PendingThenFulfilledOnAnotherCore) {
  // The shared-state path: Then installed on core 0 before the value exists; SetValue on
  // core 1 runs the continuation there, synchronously inside SetValue.
  ThreadMachine machine(2);
  machine.Start();
  Promise<int> p;
  Future<int> chained;
  std::size_t ran_on = ~std::size_t{0};
  machine.RunSync(0, [&] {
    chained = p.GetFuture().Then([&ran_on](Future<int> f) {
      ran_on = CurrentContext().machine_core;
      return f.Get() + 1;
    });
  });
  EXPECT_FALSE(chained.Ready());
  machine.RunSync(1, [&] { p.SetValue(41); });
  EXPECT_EQ(ran_on, 1u);
  ASSERT_TRUE(chained.Ready());
  EXPECT_EQ(chained.Get(), 42);
  machine.Shutdown();
}

TEST(Future, MovedFromFutureIsInvalid) {
  auto a = MakeReadyFuture<int>(1);
  auto b = std::move(a);
  EXPECT_FALSE(a.Valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.Valid());
  Promise<int> p;
  auto c = p.GetFuture();
  auto d = std::move(c);
  EXPECT_FALSE(c.Valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(d.Ready());
}

TEST(Future, CrossThreadFulfillRace) {
  // SetValue and Then race from different threads; every continuation must run exactly once.
  constexpr int kIters = 2000;
  std::atomic<int> ran{0};
  for (int i = 0; i < kIters; ++i) {
    Promise<int> p;
    auto f = p.GetFuture();
    std::thread setter([&p, i] { p.SetValue(i); });
    f.Then([&ran](Future<int> f) {
      f.Get();
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    setter.join();
  }
  EXPECT_EQ(ran.load(), kIters);
}

}  // namespace
}  // namespace ebbrt
