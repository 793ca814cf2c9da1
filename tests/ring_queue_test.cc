// RingQueue: FIFO order across wrap-around and growth, push_front, release on pop, and the
// steady-state reuse that keeps the NIC rings and TCP retransmission queue off the heap.
#include "src/platform/ring_queue.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/mem/gp_allocator.h"

namespace ebbrt {
namespace {

TEST(RingQueue, FifoAcrossWrapAndGrowth) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 6; ++i) {
    q.push_back(next_in++);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  // The live range now wraps past the end of the first 8 slots, then grows beyond them.
  for (int i = 0; i < 20; ++i) {
    q.push_back(next_in++);
  }
  EXPECT_EQ(q.size(), 22u);
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, PushFrontReturnsToHead) {
  RingQueue<int> q;
  q.push_front(2);  // into an empty, unallocated queue
  q.push_back(3);
  q.push_front(1);
  EXPECT_EQ(q.size(), 3u);
  for (int want = 1; want <= 3; ++want) {
    EXPECT_EQ(q.front(), want);
    q.pop_front();
  }
}

TEST(RingQueue, PopAndClearReleaseElements) {
  auto tracked = std::make_shared<int>(7);
  RingQueue<std::shared_ptr<int>> q;
  q.push_back(tracked);
  q.push_back(tracked);
  EXPECT_EQ(tracked.use_count(), 3);
  q.pop_front();
  EXPECT_EQ(tracked.use_count(), 2);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(tracked.use_count(), 1);
}

TEST(RingQueue, SteadyPushPopDoesNotTouchTheHeap) {
  RingQueue<std::unique_ptr<int>> q;
  std::unique_ptr<int> items[4];
  for (auto& item : items) {
    item = std::make_unique<int>(1);
  }
  auto& counter = mem::stats().generic_heap_allocs;
  std::uint64_t before = counter.load();
  for (int round = 0; round < 1000; ++round) {
    for (auto& item : items) {
      q.push_back(std::move(item));
    }
    for (auto& item : items) {
      item = std::move(q.front());
      q.pop_front();
    }
  }
  // Only the first growth to 8 slots allocates.
  EXPECT_EQ(counter.load() - before, 1u);
}

}  // namespace
}  // namespace ebbrt
