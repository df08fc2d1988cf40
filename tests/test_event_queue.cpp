#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "prop/prop.hpp"

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

}  // namespace
}  // namespace sld::sim
