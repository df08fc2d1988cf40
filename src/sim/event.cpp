#include "sim/event.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
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

void EventQueue::push_stream(std::vector<SimTime> times, SimTime queued_at,
                             std::function<void(std::size_t)> fire) {
  if (times.empty()) return;
  if (times.size() > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("EventQueue::push_stream: more than 2^32 items");
  SLD_MEM_SCOPE("scheduler");
  Lane& lane = lanes_.emplace_back();
  lane.item.resize(times.size());
  std::iota(lane.item.begin(), lane.item.end(), std::uint32_t{0});
  if (std::is_sorted(times.begin(), times.end())) {
    lane.when = std::move(times);
  } else {
    // Stable, so equal times keep index (= seq) order.
    std::stable_sort(lane.item.begin(), lane.item.end(),
                     [&times](std::uint32_t a, std::uint32_t b) {
                       return times[a] < times[b];
                     });
    lane.when.reserve(times.size());
    for (const std::uint32_t i : lane.item) lane.when.push_back(times[i]);
  }
  lane.first_seq = next_seq_;
  next_seq_ += lane.item.size();
  lane.queued_at = queued_at;
  lane.fire = std::move(fire);
  lane_pending_ += lane.item.size();
  pick_next_lane();
}

void EventQueue::pick_next_lane() {
  next_lane_ = kNoLane;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const Lane& lane = lanes_[l];
    if (lane.head == lane.item.size()) continue;  // drained
    if (next_lane_ == kNoLane ||
        later(lanes_[next_lane_].head_key(), lane.head_key()))
      next_lane_ = l;
  }
}

SimTime EventQueue::next_time() const {
  if (lane_pending_ != 0) {
    const Lane& lane = lanes_[next_lane_];
    const SimTime head = lane.when[lane.head];
    return heap_.empty() ? head : std::min(head, heap_.front().when);
  }
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty");
  return heap_.front().when;
}

Event EventQueue::pop_lane() {
  Lane& lane = lanes_[next_lane_];
  const std::size_t pos = lane.head++;
  const std::size_t i = lane.item[pos];
  // Two words, trivially copyable: std::function stores it inline.
  const std::function<void(std::size_t)>* fire = &lane.fire;
  Event ev{lane.when[pos], lane.first_seq + i, lane.queued_at,
           [fire, i]() { (*fire)(i); }};
  --lane_pending_;
  if (lane.head == lane.item.size()) {
    // Drained: free the item arrays, keep the callback for held events.
    std::vector<SimTime>().swap(lane.when);
    std::vector<std::uint32_t>().swap(lane.item);
    lane.head = 0;
  }
  pick_next_lane();
  if (hot_ != nullptr && hot_->event_wait_ns != nullptr)
    hot_->event_wait_ns->observe(static_cast<double>(ev.when - ev.queued_at));
  return ev;
}

Event EventQueue::pop() {
  if (lane_pending_ != 0 &&
      (heap_.empty() || later(heap_.front(), lanes_[next_lane_].head_key())))
    return pop_lane();
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
  lanes_.clear();
  lane_pending_ = 0;
  next_lane_ = kNoLane;
  next_seq_ = 0;
  sift_up_steps_ = 0;
  sift_down_steps_ = 0;
}

}  // namespace sld::sim
