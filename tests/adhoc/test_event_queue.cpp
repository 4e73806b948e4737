#include "adhoc/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/rng.hpp"

namespace selfstab::adhoc {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue<int> q;
  q.schedule(30, 3);
  q.schedule(10, 1);
  q.schedule(20, 2);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue<std::string> q;
  q.schedule(5, "first");
  q.schedule(5, "second");
  q.schedule(5, "third");
  EXPECT_EQ(q.pop(), "first");
  EXPECT_EQ(q.pop(), "second");
  EXPECT_EQ(q.pop(), "third");
}

TEST(EventQueue, NowAdvancesWithPops) {
  EventQueue<int> q;
  EXPECT_EQ(q.now(), 0);
  q.schedule(7, 1);
  q.schedule(15, 2);
  EXPECT_EQ(q.nextTime(), 7);
  q.pop();
  EXPECT_EQ(q.now(), 7);
  q.pop();
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueue, SchedulingWhileDrainingInterleaves) {
  EventQueue<int> q;
  q.schedule(10, 1);
  EXPECT_EQ(q.pop(), 1);
  q.schedule(12, 2);  // scheduled "from within" event 1
  q.schedule(11, 3);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 2);
}

TEST(EventQueue, SizeTracksContents) {
  EventQueue<int> q;
  EXPECT_EQ(q.size(), 0u);
  q.schedule(1, 0);
  q.schedule(2, 0);
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(CalendarQueue, PopsInTimeOrderWithTies) {
  CalendarQueue<std::string> q(/*bucketWidth=*/10);
  q.schedule(30, "late");
  q.schedule(5, "first");
  q.schedule(5, "second");  // same timestamp: insertion order wins
  q.schedule(12, "mid");
  EXPECT_EQ(q.nextTime(), 5);
  EXPECT_EQ(q.peek(), "first");  // peek leaves it in place
  EXPECT_EQ(q.pop(), "first");
  EXPECT_EQ(q.pop(), "second");
  EXPECT_EQ(q.peek(), "mid");
  EXPECT_EQ(q.pop(), "mid");
  EXPECT_EQ(q.pop(), "late");
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, WidthZeroDegeneratesToHeap) {
  CalendarQueue<int> q(/*bucketWidth=*/0);
  q.schedule(30, 3);
  q.schedule(10, 1);
  q.schedule(20, 2);
  EXPECT_EQ(q.peek(), 1);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(CalendarQueue, FarFutureEventsOverflowAndReturn) {
  // Tiny wheel: 4 buckets of width 10 = one revolution of 40 time units,
  // so the far event must round-trip through the overflow heap.
  CalendarQueue<int> q(/*bucketWidth=*/10, /*bucketCount=*/4);
  q.schedule(1'000'000, 9);
  q.schedule(3, 1);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.nextTime(), 1'000'000);
  EXPECT_EQ(q.pop(), 9);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, ScheduleBehindSettledCursorStaysOrdered) {
  CalendarQueue<int> q(/*bucketWidth=*/10, /*bucketCount=*/4);
  q.schedule(10, 1);
  EXPECT_EQ(q.pop(), 1);       // now = 10
  q.schedule(1'000'000, 9);
  EXPECT_EQ(q.nextTime(), 1'000'000);  // cursor jumps to the far bucket
  q.schedule(11, 2);           // legal (>= now) but behind the cursor
  q.schedule(500, 3);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 9);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, MoveOnlyPayloadsNeverCopy) {
  CalendarQueue<std::unique_ptr<int>> q(/*bucketWidth=*/8, /*bucketCount=*/4);
  q.schedule(100, std::make_unique<int>(2));
  q.schedule(4, std::make_unique<int>(1));
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);

  EventQueue<std::unique_ptr<int>> heap;
  heap.schedule(9, std::make_unique<int>(4));
  heap.schedule(2, std::make_unique<int>(3));
  EXPECT_EQ(*heap.pop(), 3);
  EXPECT_EQ(*heap.pop(), 4);
}

TEST(CalendarQueue, MatchesHeapOnRandomWorkload) {
  // Differential: random interleaving of schedules and pops, with ties,
  // near-periodic clustering, and occasional far-future bursts. Both queues
  // must produce the identical event sequence.
  Rng rng(2026'08'07);
  for (int round = 0; round < 20; ++round) {
    EventQueue<int> reference;
    // Deliberately small wheel so overflow migration and cursor rewinds
    // happen constantly.
    CalendarQueue<int> calendar(
        /*bucketWidth=*/static_cast<SimTime>(1 + rng.below(7)),
        /*bucketCount=*/1 + static_cast<std::size_t>(rng.below(8)));
    int payload = 0;
    for (int step = 0; step < 400; ++step) {
      const bool push = reference.empty() || rng.chance(0.55);
      if (push) {
        SimTime at = reference.now();
        if (rng.chance(0.1)) {
          at += static_cast<SimTime>(rng.below(10'000));  // far future
        } else {
          at += static_cast<SimTime>(rng.below(30));  // near-periodic
        }
        reference.schedule(at, payload);
        calendar.schedule(at, payload);
        ++payload;
      } else {
        ASSERT_EQ(calendar.nextTime(), reference.nextTime())
            << "round " << round << " step " << step;
        ASSERT_EQ(calendar.pop(), reference.pop())
            << "round " << round << " step " << step;
        ASSERT_EQ(calendar.now(), reference.now());
      }
      ASSERT_EQ(calendar.size(), reference.size());
    }
    while (!reference.empty()) {
      ASSERT_EQ(calendar.pop(), reference.pop()) << "round " << round;
    }
    EXPECT_TRUE(calendar.empty());
  }
}

}  // namespace
}  // namespace selfstab::adhoc
