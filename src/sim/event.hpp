// Event queue for the discrete-event simulator: a min-heap of (time, seq)
// ordered closures. The sequence number makes same-time events FIFO, which
// keeps runs deterministic.
//
// The heap holds only trivially copyable (when, seq, slot) keys. Each
// closure and its schedule time sit in a slab at index `slot`, and an
// intrusive free list threaded through the slab hands the slots of popped
// events to later pushes. A sift step thus moves a 24-byte key rather than
// a 56-byte Event with a std::function in it, and a warmed-up queue
// allocates nothing: the heap and the slab keep their capacity.
//
// The heap is explicit (vector + hand-rolled sift) rather than a
// std::priority_queue so the sift distances are observable. It stays
// binary: a 4-ary heap measured no faster on the paper workload, and the
// sift-step totals are pinned by the bench goldens (micro_hotpaths'
// event_churn_sift_steps), which any other arity would change. The
// (when, seq) key is a strict total order, so the pop sequence is identical
// to the std::priority_queue implementation it replaced. Sift-step totals
// are always counted (two integer adds per operation); per-operation
// histograms cost one extra branch and only record when a HotStats sink is
// wired.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/hotstats.hpp"
#include "sim/time.hpp"

namespace sld::sim {

/// A scheduled callback.
struct Event {
  SimTime when = 0;
  std::uint64_t seq = 0;  // tie-break: FIFO among same-time events
  SimTime queued_at = 0;  // schedule time, for event-wait accounting
  std::function<void()> action;
};

/// Min-heap of events ordered by (when, seq).
class EventQueue {
 public:
  void push(SimTime when, std::function<void()> action) {
    push(when, when, std::move(action));
  }

  /// `queued_at` is the clock value at schedule time; the wait histogram
  /// observes `when - queued_at` at pop.
  void push(SimTime when, SimTime queued_at, std::function<void()> action);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Closure slots allocated since construction / clear(), live or free.
  /// Pops recycle slots, so this is the high-water mark of size().
  std::size_t slab_size() const { return slab_.size(); }

  /// Time of the earliest event; queue must be non-empty.
  SimTime next_time() const;

  /// Removes and returns the earliest event; queue must be non-empty.
  Event pop();

  void clear();

  /// Optional micro-counter sink (see sim/hotstats.hpp). Not owned; must
  /// outlive the queue or be reset to nullptr.
  void set_hot_stats(HotStats* hot) { hot_ = hot; }

  /// Total sift steps (element moves) since construction / clear().
  std::uint64_t sift_up_steps() const { return sift_up_steps_; }
  std::uint64_t sift_down_steps() const { return sift_down_steps_; }

 private:
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slab_
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  struct Slot {
    SimTime queued_at = 0;
    std::uint32_t next_free = kNoSlot;  // free-list link while unused
    std::function<void()> action;
  };

  /// True when `a` must pop after `b` — the same strict weak ordering the
  /// previous std::priority_queue comparator induced.
  static bool later(const Key& a, const Key& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  std::vector<Key> heap_;
  std::vector<Slot> slab_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sift_up_steps_ = 0;
  std::uint64_t sift_down_steps_ = 0;
  HotStats* hot_ = nullptr;
};

}  // namespace sld::sim
