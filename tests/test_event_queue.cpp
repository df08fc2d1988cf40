#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "prop/prop.hpp"
#include "sim/scheduler.hpp"

namespace sld::sim {
namespace {

TEST(EventQueue, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&]() { order.push_back(3); });
  q.push(10, [&]() { order.push_back(1); });
  q.push(20, [&]() { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) q.push(5, [&order, i]() { order.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  q.push(100, []() {});
  q.push(50, []() {});
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, PopReturnsEventWithMetadata) {
  EventQueue q;
  q.push(77, []() {});
  const Event ev = q.pop();
  EXPECT_EQ(ev.when, 77);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ThrowsOnEmptyAccess) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.push(1, []() {});
  q.push(2, []() {});
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&]() { order.push_back(1); });
  q.pop().action();
  q.push(5, [&]() { order.push_back(2); });
  q.push(15, [&]() { order.push_back(3); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PopCarriesQueuedAtAndSeq) {
  EventQueue q;
  q.push(50, 20, []() {});
  q.push(50, 30, []() {});
  const Event first = q.pop();
  EXPECT_EQ(first.when, 50);
  EXPECT_EQ(first.queued_at, 20);
  EXPECT_EQ(first.seq, 0u);
  const Event second = q.pop();
  EXPECT_EQ(second.queued_at, 30);
  EXPECT_EQ(second.seq, 1u);
}

TEST(EventQueue, PoppedSlotsAreReused) {
  EventQueue q;
  for (SimTime t = 1; t <= 3; ++t) q.push(t, []() {});
  EXPECT_EQ(q.slab_size(), 3u);
  q.pop();
  q.pop();
  q.push(10, []() {});
  q.push(11, []() {});
  EXPECT_EQ(q.slab_size(), 3u);  // both pushes took freed slots
  q.push(12, []() {});
  EXPECT_EQ(q.slab_size(), 4u);
}

TEST(EventQueue, ClearResetsSlabFreeListAndCounters) {
  EventQueue q;
  for (SimTime t = 8; t >= 1; --t) q.push(t, []() {});
  q.pop();
  q.pop();
  ASSERT_GT(q.sift_up_steps(), 0u);
  ASSERT_GT(q.sift_down_steps(), 0u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slab_size(), 0u);
  EXPECT_EQ(q.sift_up_steps(), 0u);
  EXPECT_EQ(q.sift_down_steps(), 0u);
  // A fresh start: sequence numbers restart and the stale free list is
  // gone, so new pushes grow the slab from zero.
  q.push(5, []() {});
  q.push(5, []() {});
  EXPECT_EQ(q.slab_size(), 2u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 1u);
}

// Reference model: the binary heap of whole Events the key heap replaced,
// with the same hole-based sifts. Its pop order and sift-step totals are
// what the key heap must reproduce exactly.
class ReferenceHeap {
 public:
  void push(SimTime when, SimTime queued_at, int id) {
    heap_.push_back(Item{when, seq_++, queued_at, id});
    std::size_t i = heap_.size() - 1;
    const Item item = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!later(heap_[parent], item)) break;
      heap_[i] = heap_[parent];
      i = parent;
      ++up_;
    }
    heap_[i] = item;
  }

  struct Item {
    SimTime when;
    std::uint64_t seq;
    SimTime queued_at;
    int id;
  };

  Item pop() {
    const Item top = heap_.front();
    const Item last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return top;
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      std::size_t smallest = left;
      if (left + 1 < n && later(heap_[left], heap_[left + 1])) ++smallest;
      if (!later(last, heap_[smallest])) break;
      heap_[i] = heap_[smallest];
      i = smallest;
      ++down_;
    }
    heap_[i] = last;
    return top;
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Item& top() const { return heap_.front(); }
  void clear() {
    heap_.clear();
    seq_ = 0;
  }
  std::uint64_t up() const { return up_; }
  std::uint64_t down() const { return down_; }

 private:
  static bool later(const Item& a, const Item& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  std::vector<Item> heap_;
  std::uint64_t seq_ = 0;
  std::uint64_t up_ = 0;
  std::uint64_t down_ = 0;
};

// Random push/pop interleavings over eight distinct times (so most events
// tie on `when` and the seq tie-break decides): op < 0 pops, op >= 0 pushes
// an event at time op. Repro a failure with SLD_PROP_SEED.
TEST(EventQueue, PropKeyHeapMatchesReferenceHeap) {
  const bool ok = prop::forall(
      "key heap pops and sifts exactly like the Event heap",
      prop::vector_of(prop::int_range(-3, 7), 1, 300),
      [](const std::vector<std::int64_t>& ops) {
        EventQueue q;
        ReferenceHeap ref;
        std::vector<int> ran;
        std::size_t high_water = 0;
        int next_id = 0;
        const auto pop_both = [&]() {
          const Event ev = q.pop();
          const ReferenceHeap::Item want = ref.pop();
          ev.action();
          return ev.when == want.when && ev.seq == want.seq &&
                 ev.queued_at == want.queued_at && !ran.empty() &&
                 ran.back() == want.id;
        };
        for (const std::int64_t op : ops) {
          if (op < 0) {
            if (!q.empty() && !pop_both()) return false;
            continue;
          }
          const int id = next_id++;
          const SimTime queued_at = op - id % 3;
          q.push(op, queued_at, [&ran, id]() { ran.push_back(id); });
          ref.push(op, queued_at, id);
          high_water = std::max(high_water, q.size());
        }
        // Freed slots are reused, so the slab never outgrows the deepest
        // point of the run.
        if (q.slab_size() != high_water) return false;
        while (!q.empty())
          if (!pop_both()) return false;
        return ref.empty() && q.sift_up_steps() == ref.up() &&
               q.sift_down_steps() == ref.down();
      });
  EXPECT_TRUE(ok);
}

// --- Sorted lanes ----------------------------------------------------------

TEST(EventQueue, LaneTiesWithHeapEventsFollowScheduleOrder) {
  // All at t = 5: heap event A, a lane {B0, B1}, heap event C. FIFO by
  // schedule order, exactly as four push() calls would pop.
  EventQueue q;
  std::vector<std::string> order;
  q.push(5, [&]() { order.push_back("A"); });
  q.push_stream({5, 5}, 0, [&](std::size_t i) {
    order.push_back("B" + std::to_string(i));
  });
  q.push(5, [&]() { order.push_back("C"); });
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.slab_size(), 2u);  // the lane items never touch the slab
  std::vector<std::uint64_t> seqs;
  while (!q.empty()) {
    Event ev = q.pop();
    seqs.push_back(ev.seq);
    ev.action();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"A", "B0", "B1", "C"}));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(q.sift_up_steps() + q.sift_down_steps(), 0u);
}

TEST(EventQueue, PoppedLaneEventsStayCallableAfterTheLaneDrains) {
  EventQueue q;
  std::vector<std::size_t> fired;
  q.push_stream({1, 2}, 0, [&](std::size_t i) { fired.push_back(i); });
  Event first = q.pop();
  Event second = q.pop();
  EXPECT_TRUE(q.empty());
  second.action();
  first.action();
  EXPECT_EQ(fired, (std::vector<std::size_t>{1, 0}));
}

TEST(SchedulerLane, RunUntilStopsInsideALane) {
  Scheduler s;
  std::vector<SimTime> seen;
  s.schedule_stream({40, 10, 30, 20},
                    [&](std::size_t) { seen.push_back(s.now()); });
  s.schedule_at(25, [&]() { seen.push_back(-s.now()); });
  EXPECT_EQ(s.pending(), 5u);
  EXPECT_EQ(s.max_pending(), 5u);
  EXPECT_EQ(s.run_until(25), 3u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20, -25}));
  EXPECT_EQ(s.now(), 25);
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20, -25, 30, 40}));
}

TEST(SchedulerLane, ResetDropsAPartlyDrainedLane) {
  Scheduler s;
  int fired = 0;
  s.schedule_stream({1, 2, 3, 4}, [&](std::size_t) { ++fired; });
  EXPECT_EQ(s.run(2), 2u);
  s.reset();
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.pending(), 0u);
  s.schedule_at(1, [&]() { fired += 10; });
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(fired, 12);
}

TEST(SchedulerLane, ScheduleStreamRejectsPastTimes) {
  Scheduler s;
  s.run_until(100);
  EXPECT_THROW(s.schedule_stream({150, 99}, [](std::size_t) {}),
               std::invalid_argument);
  EXPECT_TRUE(s.idle());  // nothing of the rejected batch was queued
  s.schedule_stream({100}, [](std::size_t) {});
  EXPECT_EQ(s.pending(), 1u);
}

// One step of a lane scenario: push one heap event at `t`, pop one event,
// add a lane with `times`, pop every event at or before `t` (what
// Scheduler::run_until does), or clear the queue.
struct LaneOp {
  enum Kind { kPush, kPop, kStream, kDrainUntil, kClear };
  Kind kind = kPop;
  SimTime t = 0;
  std::vector<SimTime> times;
};

prop::Gen<LaneOp> lane_op() {
  prop::Gen<LaneOp> g;
  // Times from eight values, so lane items and heap events tie often.
  g.generate = [](util::Rng& rng) {
    LaneOp op;
    const std::uint64_t roll = rng.uniform_u64(100);
    op.kind = roll < 35   ? LaneOp::kPush
              : roll < 65 ? LaneOp::kPop
              : roll < 85 ? LaneOp::kStream
              : roll < 97 ? LaneOp::kDrainUntil
                          : LaneOp::kClear;
    op.t = static_cast<SimTime>(rng.uniform_u64(8));
    if (op.kind == LaneOp::kStream) {
      op.times.resize(static_cast<std::size_t>(rng.uniform_u64(9)));
      for (auto& when : op.times)
        when = static_cast<SimTime>(rng.uniform_u64(8));
    }
    return op;
  };
  g.shrink = [](const LaneOp& op) {
    std::vector<LaneOp> out;
    if (op.kind != LaneOp::kPop) out.push_back(LaneOp{});
    if (op.t > 0) {
      LaneOp earlier = op;
      earlier.t = 0;
      out.push_back(earlier);
    }
    for (std::size_t i = 0; i < op.times.size(); ++i) {
      LaneOp fewer = op;
      fewer.times.erase(fewer.times.begin() + static_cast<std::ptrdiff_t>(i));
      out.push_back(fewer);
      if (op.times[i] > 0) {
        LaneOp earlier = op;
        earlier.times[i] = 0;
        out.push_back(earlier);
      }
    }
    return out;
  };
  g.show = [](const LaneOp& op) {
    std::ostringstream os;
    switch (op.kind) {
      case LaneOp::kPush: os << "push@" << op.t; break;
      case LaneOp::kPop: os << "pop"; break;
      case LaneOp::kDrainUntil: os << "drain<=" << op.t; break;
      case LaneOp::kClear: os << "clear"; break;
      case LaneOp::kStream:
        os << "stream{";
        for (std::size_t i = 0; i < op.times.size(); ++i)
          os << (i > 0 ? "," : "") << op.times[i];
        os << "}";
        break;
    }
    return os.str();
  };
  return g;
}

// Lanes against the reference Event heap, which pushes each lane item on
// its own, in index order, at the point where the lane was added. Pops
// must agree on (when, seq, queued_at, which action), and size() after
// every operation. Repro a failure with SLD_PROP_SEED.
TEST(EventQueue, PropLanesPopLikeOnePushPerItem) {
  const bool ok = prop::forall(
      "lanes pop exactly like one push per item in index order",
      prop::vector_of(lane_op(), 1, 60), [](const std::vector<LaneOp>& ops) {
        EventQueue q;
        ReferenceHeap ref;
        std::vector<int> ran;
        int next_id = 0;
        const auto pop_both = [&]() {
          if (q.next_time() != ref.top().when) return false;
          const Event ev = q.pop();
          const ReferenceHeap::Item want = ref.pop();
          ev.action();
          return ev.when == want.when && ev.seq == want.seq &&
                 ev.queued_at == want.queued_at && !ran.empty() &&
                 ran.back() == want.id;
        };
        for (std::size_t k = 0; k < ops.size(); ++k) {
          const LaneOp& op = ops[k];
          const auto queued_at = static_cast<SimTime>(k);
          switch (op.kind) {
            case LaneOp::kPush: {
              const int id = next_id++;
              q.push(op.t, queued_at, [&ran, id]() { ran.push_back(id); });
              ref.push(op.t, queued_at, id);
              break;
            }
            case LaneOp::kPop:
              if (!q.empty() && !pop_both()) return false;
              break;
            case LaneOp::kStream: {
              const int base = next_id;
              next_id += static_cast<int>(op.times.size());
              q.push_stream(op.times, queued_at, [&ran, base](std::size_t i) {
                ran.push_back(base + static_cast<int>(i));
              });
              for (std::size_t i = 0; i < op.times.size(); ++i)
                ref.push(op.times[i], queued_at, base + static_cast<int>(i));
              break;
            }
            case LaneOp::kDrainUntil:
              while (!q.empty() && q.next_time() <= op.t)
                if (!pop_both()) return false;
              if (!ref.empty() && ref.top().when <= op.t) return false;
              break;
            case LaneOp::kClear:
              q.clear();
              ref.clear();
              break;
          }
          if (q.size() != ref.size() || q.empty() != ref.empty()) return false;
        }
        while (!q.empty())
          if (!pop_both()) return false;
        return ref.empty();
      });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace sld::sim
