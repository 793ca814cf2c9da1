// RingQueue — a FIFO over one power-of-two circular buffer that grows and never shrinks.
//
// std::deque allocates and frees a fixed-size block every few elements while a queue is
// pushed at the back and popped at the front, so a steady producer/consumer pair (a NIC RX
// ring, a TCP retransmission queue) keeps touching the heap. A RingQueue allocates only when
// it outgrows its largest occupancy so far; steady state reuses the same slots. Popping
// resets the slot to T(), so an element's resources are released when it leaves the queue.
#ifndef EBBRT_SRC_PLATFORM_RING_QUEUE_H_
#define EBBRT_SRC_PLATFORM_RING_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/platform/debug.h"

namespace ebbrt {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    Kassert(size_ > 0, "RingQueue: front of empty queue");
    return slots_[head_];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    head_ = (head_ - 1) & (slots_.size() - 1);
    slots_[head_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    Kassert(size_ > 0, "RingQueue: pop of empty queue");
    slots_[head_] = T();
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

  void clear() {
    while (size_ > 0) {
      pop_front();
    }
  }

 private:
  void Grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ebbrt

#endif  // EBBRT_SRC_PLATFORM_RING_QUEUE_H_
