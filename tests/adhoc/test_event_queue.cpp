#include "adhoc/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Pops `calendar` and `reference` once each and checks that they agree on
/// everything pop order depends on.
template <typename Calendar>
void expectSamePop(Calendar& calendar, EventQueue<int>& reference,
                   const std::string& where) {
  ASSERT_EQ(calendar.nextTime(), reference.nextTime()) << where;
  ASSERT_EQ(calendar.nextSeq(), reference.nextSeq()) << where;
  ASSERT_EQ(calendar.pop(), reference.pop()) << where;
  ASSERT_EQ(calendar.now(), reference.now()) << where;
  ASSERT_EQ(calendar.size(), reference.size()) << where;
}

TEST(CalendarQueue, LateArrivalsToTheDrainedBucketMergeInOrder) {
  CalendarQueue<int> q(/*bucketWidth=*/10, /*bucketCount=*/4);
  q.schedule(12, 1);
  q.schedule(18, 3);
  q.schedule(25, 5);
  EXPECT_EQ(q.pop(), 1);  // bucket 1 is sorted and partly drained
  q.schedule(15, 2);      // into it: the side heap
  q.schedule(18, 4);      // ties 3 by time, later by seq
  q.schedule(12, 6);      // at now
  EXPECT_EQ(q.pop(), 6);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_EQ(q.pop(), 5);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, RewindReturnsTheSortedBucketsSideEntries) {
  // Width 10, one revolution of 40: after 20 drains bucket 2, nextTime()
  // jumps the cursor to bucket 100 and sorts it; 1005 joins it through the
  // side heap; then 30 lies behind the cursor and rewinds it, which must
  // evict bucket 100 (side entry included) back to the overflow heap.
  CalendarQueue<int> q(/*bucketWidth=*/10, /*bucketCount=*/4);
  q.schedule(20, 1);
  q.schedule(21, 2);
  q.schedule(1000, 5);
  q.schedule(1009, 7);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.nextTime(), 1000);
  q.schedule(1005, 6);
  q.schedule(30, 3);
  q.schedule(31, 4);
  for (int expected = 3; expected <= 7; ++expected) {
    EXPECT_EQ(q.pop(), expected);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SetBucketCountKeepsThePopOrder) {
  CalendarQueue<int> q(/*bucketWidth=*/10, /*bucketCount=*/3);
  EventQueue<int> reference;
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const auto at = static_cast<SimTime>(rng.below(400));
    q.schedule(at, i);
    reference.schedule(at, i);
  }
  for (int i = 0; i < 50; ++i) expectSamePop(q, reference, "before");
  q.schedule(reference.now(), 1000);  // into the sorted bucket's side heap
  reference.schedule(reference.now(), 1000);
  q.setBucketCount(17);
  while (!reference.empty()) expectSamePop(q, reference, "after");
}

/// A beacon-like workload on a window-aligned wheel, as the simulator
/// builds it: buckets one window (`width`) wide, enough of them to cover one
/// jittered interval. Each pop reschedules its "node" about an interval
/// later; now and then an event lands in the bucket being drained (a zero
/// delay, a short chaos rejoin), far in the future (overflow round trips),
/// or behind a cursor that nextTime() settled ahead (a rewind after a
/// partial drain). Width 0 is the single heap.
TEST(CalendarQueue, WindowAlignedWheelMatchesHeap) {
  Rng rng(2026'10'19);
  for (int round = 0; round < 24; ++round) {
    const SimTime interval = 50 + static_cast<SimTime>(rng.below(150));
    const SimTime width =
        round % 6 == 5 ? 0 : 1 + static_cast<SimTime>(rng.below(12));
    const double jitter = rng.real(0.0, 0.2);
    const auto count =
        width == 0 ? std::size_t{1}
                   : static_cast<std::size_t>(
                         static_cast<double>(interval) * (1.0 + jitter) /
                         static_cast<double>(width)) +
                         2;
    CalendarQueue<int> calendar(width, count);
    EventQueue<int> reference;
    int payload = 0;
    const auto both = [&](SimTime at) {
      calendar.schedule(at, payload);
      reference.schedule(at, payload);
      ++payload;
    };
    for (int node = 0; node < 40; ++node) {
      both(static_cast<SimTime>(
          rng.below(static_cast<std::uint64_t>(interval))));
    }
    const std::string where = "round " + std::to_string(round);
    for (int step = 0; step < 1500; ++step) {
      expectSamePop(calendar, reference, where + " step " +
                                             std::to_string(step));
      const SimTime now = reference.now();
      const auto period = static_cast<SimTime>(
          static_cast<double>(interval) * (1.0 + rng.real(-jitter, jitter)));
      both(now + std::max<SimTime>(1, period));
      const double pick = rng.real();
      if (pick < 0.08) {
        both(now + static_cast<SimTime>(rng.below(3)));  // drained bucket
      } else if (pick < 0.10) {
        both(now + 20 * interval +
             static_cast<SimTime>(rng.below(1000)));  // overflow
      } else if (pick < 0.12 && !reference.empty()) {
        // Settle the cursor on the next event, then land behind it.
        ASSERT_EQ(calendar.nextTime(), reference.nextTime()) << where;
        const SimTime ahead = reference.nextTime();
        if (ahead > now) {
          both(now + static_cast<SimTime>(rng.below(
                         static_cast<std::uint64_t>(ahead - now))));
        }
      }
    }
    while (!reference.empty()) expectSamePop(calendar, reference, where);
    EXPECT_TRUE(calendar.empty());
  }
}

/// A lane entry: an arrival in the simulator.
struct LaneItem {
  SimTime at = 0;
  std::uint64_t seq = 0;
  int payload = 0;
  std::vector<int> buffer;
};

/// Pops the earlier of the lane's front and the queue's next event.
template <typename Queue>
int popMerged(FifoLane<LaneItem>& lane, Queue& queue, SimTime& now) {
  if (lane.leads(queue)) {
    const auto at = lane.pop();
    now = lane[at].at;
    const int payload = lane[at].payload;
    lane.release(at + 1);
    return payload;
  }
  const int payload = queue.pop();
  now = queue.now();
  return payload;
}

/// An arrival and a timer at the same microsecond pop in seq order, either
/// way round: a merge that broke ties on time alone would get one of the
/// two cases wrong.
template <typename Queue>
void checkTieBothWays(Queue timerFirst, Queue arrivalFirst) {
  FifoLane<LaneItem> lane;
  SimTime now = 0;
  timerFirst.schedule(10, 1);  // seq 0
  lane.push(10, timerFirst.takeSeq()).payload = 2;  // seq 1
  EXPECT_EQ(popMerged(lane, timerFirst, now), 1);
  EXPECT_EQ(popMerged(lane, timerFirst, now), 2);
  EXPECT_EQ(now, 10);

  lane.push(10, arrivalFirst.takeSeq()).payload = 3;  // seq 0
  arrivalFirst.schedule(10, 4);                       // seq 1
  EXPECT_EQ(popMerged(lane, arrivalFirst, now), 3);
  EXPECT_EQ(popMerged(lane, arrivalFirst, now), 4);
  EXPECT_TRUE(lane.empty());
  EXPECT_TRUE(arrivalFirst.empty());
}

TEST(FifoLane, ArrivalAndTimerAtOneMicrosecondPopInSeqOrder) {
  checkTieBothWays(EventQueue<int>{}, EventQueue<int>{});
  checkTieBothWays(CalendarQueue<int>(10, 4), CalendarQueue<int>(10, 4));
  checkTieBothWays(CalendarQueue<int>(0), CalendarQueue<int>(0));
}

/// The simulator's shape: every pop may schedule a "timer" into the queue
/// and an "arrival" at now + delay into the lane (the delay fixed per
/// round, 0 included), sharing the queue's sequence numbers. The merge must
/// pop what one queue holding both would.
TEST(FifoLane, MergeMatchesOneQueueHoldingBoth) {
  Rng rng(4242);
  for (int round = 0; round < 12; ++round) {
    const auto delay = static_cast<SimTime>(rng.below(6));
    CalendarQueue<int> queue(round % 3 == 0 ? 0 : 4, 8);
    FifoLane<LaneItem> lane;
    EventQueue<int> reference;
    int payload = 0;
    for (int i = 0; i < 30; ++i) {
      const auto at = static_cast<SimTime>(rng.below(40));
      queue.schedule(at, payload);
      reference.schedule(at, payload++);
    }
    SimTime now = 0;
    for (int step = 0; step < 2000 && !reference.empty(); ++step) {
      const int expected = reference.pop();
      ASSERT_EQ(popMerged(lane, queue, now), expected)
          << "round " << round << " step " << step;
      ASSERT_EQ(now, reference.now());
      if (rng.chance(0.5)) {
        lane.push(now + delay, queue.takeSeq()).payload = payload;
        reference.schedule(now + delay, payload++);
      }
      if (rng.chance(0.6)) {
        const SimTime at = now + 1 + static_cast<SimTime>(rng.below(30));
        queue.schedule(at, payload);
        reference.schedule(at, payload++);
      }
      ASSERT_EQ(queue.size() + lane.size(), reference.size());
    }
  }
}

TEST(FifoLane, PoppedEntriesStayReadableUntilReleased) {
  FifoLane<LaneItem> lane;
  for (int i = 0; i < 5; ++i) {
    LaneItem& item = lane.push(i, static_cast<std::uint64_t>(i));
    item.payload = i;
    item.buffer.assign(100, i);
  }
  const auto first = lane.pop();
  const auto second = lane.pop();
  EXPECT_EQ(lane.head(), second + 1);
  // Pushing past the ring's first size grows it; popped, unreleased
  // entries move with it.
  for (int i = 5; i < 40; ++i) lane.push(i, static_cast<std::uint64_t>(i));
  EXPECT_EQ(lane[first].payload, 0);
  EXPECT_EQ(lane[second].buffer, std::vector<int>(100, 1));
  EXPECT_EQ(lane.size(), 38u);
  EXPECT_EQ(lane.front().payload, 2);
  // Released slots come back with their buffers for the caller to reuse.
  while (!lane.empty()) lane.pop();
  lane.release(lane.head());
  std::size_t reused = 0;
  for (int i = 40; i < 80; ++i) {
    reused += lane.push(i, static_cast<std::uint64_t>(i)).buffer.capacity() >=
              100;
  }
  EXPECT_EQ(reused, 5u);
  EXPECT_EQ(lane.tail(), 80u);
}

}  // namespace
}  // namespace selfstab::adhoc
