#include "sim/event.hpp"

#include <stdexcept>
#include <utility>

#include "obs/memstats.hpp"

namespace sld::sim {

void EventQueue::push(SimTime when, SimTime queued_at,
                      std::function<void()> action) {
  SLD_MEM_SCOPE("scheduler");
  std::uint32_t slot = free_head_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(Slot{queued_at, kNoSlot, std::move(action)});
  } else {
    free_head_ = slab_[slot].next_free;
    slab_[slot] = Slot{queued_at, kNoSlot, std::move(action)};
  }
  heap_.push_back(Key{when, next_seq_++, slot});
  // Sift up: hole-based (move the parent down until the slot is found),
  // one element move per level crossed.
  std::size_t i = heap_.size() - 1;
  const Key key = heap_[i];
  std::uint64_t steps = 0;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!later(heap_[parent], key)) break;
    heap_[i] = heap_[parent];
    i = parent;
    ++steps;
  }
  heap_[i] = key;
  sift_up_steps_ += steps;
  if (hot_ != nullptr) {
    if (hot_->sift_up != nullptr)
      hot_->sift_up->observe(static_cast<double>(steps));
    if (hot_->sift_up_steps != nullptr) hot_->sift_up_steps->inc(steps);
    if (hot_->queue_depth != nullptr)
      hot_->queue_depth->observe(static_cast<double>(heap_.size()));
  }
}

SimTime EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty");
  return heap_.front().when;
}

Event EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty");
  const Key top = heap_.front();
  std::uint64_t steps = 0;
  if (heap_.size() > 1) {
    // Sift the last key down from the root.
    const Key key = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      std::size_t smallest = left;
      if (right < n && later(heap_[left], heap_[right])) smallest = right;
      if (!later(key, heap_[smallest])) break;
      heap_[i] = heap_[smallest];
      i = smallest;
      ++steps;
    }
    heap_[i] = key;
  } else {
    heap_.pop_back();
  }
  Slot& slot = slab_[top.slot];
  Event ev{top.when, top.seq, slot.queued_at,
           std::exchange(slot.action, nullptr)};
  slot.next_free = free_head_;
  free_head_ = top.slot;
  sift_down_steps_ += steps;
  if (hot_ != nullptr) {
    if (hot_->sift_down != nullptr)
      hot_->sift_down->observe(static_cast<double>(steps));
    if (hot_->sift_down_steps != nullptr) hot_->sift_down_steps->inc(steps);
    if (hot_->event_wait_ns != nullptr)
      hot_->event_wait_ns->observe(static_cast<double>(ev.when - ev.queued_at));
  }
  return ev;
}

void EventQueue::clear() {
  heap_.clear();
  slab_.clear();
  free_head_ = kNoSlot;
  next_seq_ = 0;
  sift_up_steps_ = 0;
  sift_down_steps_ = 0;
}

}  // namespace sld::sim
