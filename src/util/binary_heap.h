// Minimal array-backed binary min-heap used by the list scheduler's
// per-node ready queues and its pending-transmission queue
// (sched/list_scheduler.cpp).
//
// std::priority_queue would do for push/top/pop, but it hides its storage;
// the scheduler reads every queued item to emit start-time tie groups, and
// restores the pending transmissions of a resumed run wholesale, so the
// container must expose its items.  Comparators here must induce a *total*
// order (the scheduler keys carry a unique vertex id / producer commit
// index), which makes the pop order independent of the internal array
// arrangement -- a heap rebuilt via assign() pops identically to one grown
// via push().
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace ftes {

template <class T, class Less>
class BinaryMinHeap {
 public:
  BinaryMinHeap() = default;

  void push(T item) {
    items_.push_back(std::move(item));
    std::push_heap(items_.begin(), items_.end(), Inverted{});
  }

  /// Smallest item under Less; heap must be non-empty.
  [[nodiscard]] const T& top() const { return items_.front(); }

  void pop() {
    std::pop_heap(items_.begin(), items_.end(), Inverted{});
    items_.pop_back();
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

  /// Underlying storage in heap order (for tie groups).
  [[nodiscard]] const std::vector<T>& items() const { return items_; }

  /// Replaces the contents (heapifies in O(n)); used to restore a resumed
  /// run's pending transmissions.
  void assign(std::vector<T> items) {
    items_ = std::move(items);
    std::make_heap(items_.begin(), items_.end(), Inverted{});
  }

  void clear() { items_.clear(); }

 private:
  // std:: heap algorithms build max-heaps; invert Less to get a min-heap.
  struct Inverted {
    bool operator()(const T& a, const T& b) const { return Less{}(b, a); }
  };

  std::vector<T> items_;
};

}  // namespace ftes
