// Event queue for the discrete-event simulator: a min-heap of (time, seq)
// ordered closures, plus sorted lanes for batches planned in advance. The
// sequence number makes same-time events FIFO, which keeps runs
// deterministic.
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
//
// Lanes. push_stream() takes a whole batch whose times are all known up
// front (an alert flood, a framing schedule, the sensors' finalize calls)
// and one callback `fire(i)` for it. It reserves one sequence number per
// item, in index order, from the same counter push() draws from, then
// stable-sorts the items by time and keeps them out of the heap. pop()
// takes whichever of the heap top and the earliest lane head is smaller by
// (when, seq). Every item keeps the seq a push() of it at that moment would
// have drawn, and (when, seq) is a strict total order, so the pop sequence
// is exactly that of pushing the items one by one in index order. A lane
// item costs 12 bytes (its time and its index, both in sorted order)
// instead of a 24-byte key plus a 48-byte slab slot, and it never sifts.
// With no lane pending, pop() and next_time() pay one predictable branch.
//
// size() counts lane items still to pop as well as heap entries, so
// pending-event depths read the same whichever way a batch was scheduled;
// slab_size() and the sift counters describe the heap alone, and the
// HotStats queue-depth histogram observes the heap's depth. A lane's
// callback lives until clear() or destruction, so the action of a popped
// lane event stays callable however long it is held.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
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

/// Events ordered by (when, seq): a min-heap plus sorted lanes.
class EventQueue {
 public:
  void push(SimTime when, std::function<void()> action) {
    push(when, when, std::move(action));
  }

  /// `queued_at` is the clock value at schedule time; the wait histogram
  /// observes `when - queued_at` at pop.
  void push(SimTime when, SimTime queued_at, std::function<void()> action);

  /// Adds `times.size()` events as one sorted lane: item i runs
  /// `fire(i)` at `times[i]` and pops exactly where push(times[i], ...)
  /// called here for i = 0, 1, ... in turn would have put it. An empty
  /// batch adds nothing and draws no sequence number.
  void push_stream(std::vector<SimTime> times, SimTime queued_at,
                   std::function<void(std::size_t)> fire);

  bool empty() const { return heap_.empty() && lane_pending_ == 0; }
  /// Pending events: heap entries plus lane items not yet popped.
  std::size_t size() const { return heap_.size() + lane_pending_; }

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

  /// Total heap sift steps (element moves) since construction / clear().
  /// Lane items never sift.
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

  /// A batch from push_stream(), in (time, index) order.
  struct Lane {
    std::vector<SimTime> when;        // item times, ascending
    std::vector<std::uint32_t> item;  // item index at each sorted position
    std::size_t head = 0;             // next sorted position to pop
    std::uint64_t first_seq = 0;      // item i has seq first_seq + i
    SimTime queued_at = 0;
    std::function<void(std::size_t)> fire;

    Key head_key() const {
      return Key{when[head], first_seq + item[head], kNoSlot};
    }
  };

  static constexpr std::size_t kNoLane = ~std::size_t{0};

  Event pop_lane();
  /// Points next_lane_ at the lane whose head pops first (kNoLane if every
  /// lane is drained).
  void pick_next_lane();

  std::vector<Key> heap_;
  std::vector<Slot> slab_;
  // A deque, so a lane's callback never moves while one of its popped
  // events holds a pointer to it, even when a running event adds a lane.
  std::deque<Lane> lanes_;
  std::size_t lane_pending_ = 0;
  std::size_t next_lane_ = kNoLane;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sift_up_steps_ = 0;
  std::uint64_t sift_down_steps_ = 0;
  HotStats* hot_ = nullptr;
};

}  // namespace sld::sim
