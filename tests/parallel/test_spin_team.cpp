#include "parallel/spin_team.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/workers.hpp"

namespace selfstab::parallel {
namespace {

TEST(SpinTeam, EveryWorkerRunsEachDispatchOnce) {
  SpinTeam team(3);
  ASSERT_EQ(team.size(), 3U);
  std::vector<int> hits(3, 0);
  for (int round = 0; round < 2000; ++round) {
    team.run(3, [&](std::size_t t) { ++hits[t]; });
  }
  EXPECT_EQ(hits, (std::vector<int>{2000, 2000, 2000}));
}

TEST(SpinTeam, WorkerZeroIsTheCaller) {
  SpinTeam team(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id zero;
  team.run(2, [&](std::size_t t) {
    if (t == 0) zero = std::this_thread::get_id();
  });
  EXPECT_EQ(zero, caller);
}

// Every width from 0 to 7 on a team of 3, in a changing order so that a
// helper left out of one dispatch is needed by the next, and every other
// dispatch after the helpers parked: index i runs once, on worker i % 3's
// thread, and worker 0 is the caller.
TEST(SpinTeam, WidthRunsEveryIndexOnce) {
  SpinTeam team(3);
  bool rest = false;
  for (const std::size_t width :
       {0U, 1U, 2U, 3U, 4U, 5U, 6U, 7U, 2U, 7U, 1U, 3U, 0U, 5U, 2U, 3U}) {
    rest = !rest;
    if (rest) {
      team.rest();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::vector<std::atomic<int>> hits(width);
    std::vector<std::thread::id> ran(width);
    team.run(width, [&](std::size_t i) {
      hits[i].fetch_add(1);
      ran[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < width; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "width " << width << ", index " << i;
      EXPECT_EQ(ran[i], ran[i % 3]) << "width " << width << ", index " << i;
    }
    if (width > 0) {
      EXPECT_EQ(ran[0], std::this_thread::get_id()) << "width " << width;
    }
    for (std::size_t i = 1; i < std::min<std::size_t>(width, 3); ++i) {
      EXPECT_NE(ran[i], ran[0]) << "width " << width << ", index " << i;
    }
  }
}

// A dispatch from inside a job, and one from another thread while the
// team's dispatch is in flight, run all their indices on their own thread.
TEST(SpinTeam, NestedAndConcurrentDispatchesRunInline) {
  SpinTeam team(3);
  std::vector<std::vector<std::thread::id>> nested(3);
  std::vector<std::thread::id> concurrent(4);
  std::thread::id other;
  team.run(3, [&](std::size_t t) {
    nested[t].resize(4);
    team.run(4, [&](std::size_t i) {
      nested[t][i] = std::this_thread::get_id();
    });
    EXPECT_EQ(nested[t], std::vector<std::thread::id>(
                             4, std::this_thread::get_id()))
        << "job " << t;
    if (t != 0) return;
    std::thread thread([&] {
      other = std::this_thread::get_id();
      team.run(4, [&](std::size_t i) {
        concurrent[i] = std::this_thread::get_id();
      });
    });
    thread.join();
  });
  EXPECT_EQ(concurrent, std::vector<std::thread::id>(4, other));
  // The team still dispatches on its helpers afterwards.
  std::vector<std::thread::id> ran(3);
  team.run(3, [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  EXPECT_NE(ran[1], ran[0]);
  EXPECT_NE(ran[2], ran[0]);
}

TEST(SpinTeam, RestingHelpersWakeForTheNextDispatch) {
  SpinTeam team(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    team.rest();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    team.run(4, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 80);
}

TEST(SpinTeam, RethrowsAWorkersException) {
  SpinTeam team(3);
  EXPECT_THROW(team.run(3,
                        [](std::size_t t) {
                          if (t == 2) throw std::runtime_error("worker 2");
                        }),
               std::runtime_error);
  int ran = 0;
  team.run(3, [&](std::size_t t) {
    if (t == 0) ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(SpinTeam, OneWorkerRunsInline) {
  SpinTeam team(1);
  EXPECT_EQ(team.size(), 1U);
  int ran = 0;
  team.run(1, [&](std::size_t t) { ran += static_cast<int>(t) + 1; });
  EXPECT_EQ(ran, 1);
}

TEST(SpinTeam, ProcessTeamIsOneTeam) {
  SpinTeam& shared = team();
  EXPECT_EQ(&team(), &shared);
}

// A team built without a size reads the affinity mask at its first
// dispatch wider than one, not when it is built or dispatches at width 1:
// narrow dispatches under a one-CPU mask leave it unsized, and the first
// wide one after the mask is restored runs on every CPU.
TEST(SpinTeam, UnsizedTeamReadsTheMaskAtItsFirstWideDispatch) {
  SpinTeam lazy;
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  int ran = 0;
  lazy.run(1, [&](std::size_t) { ++ran; });
  lazy.run(0, [&](std::size_t) { ++ran; });
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(lazy.size(), 0U);
  EXPECT_EQ(lazy.dispatches(), 0U);

  std::vector<std::thread::id> ids(2);
  lazy.run(2, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); });
  EXPECT_EQ(lazy.size(), availableCpus());
  EXPECT_EQ(lazy.dispatches(), 1U);
  if (availableCpus() > 1) {
    EXPECT_NE(ids[1], ids[0]);
  }
}

// Runs forEachBlock over `count` items at width `workers` and returns how
// often each item was visited; fails if a block is empty, reversed or
// longer than `block`.
std::vector<int> visits(std::size_t workers, std::size_t count,
                        std::size_t block) {
  std::vector<std::atomic<int>> hits(count);
  forEachBlock(workers, count, block, [&](std::size_t begin, std::size_t end) {
    EXPECT_LE(begin, end);
    EXPECT_LE(end, count);
    if (workers > 1) {
      EXPECT_LT(begin, end);
      EXPECT_LE(end - begin, std::max<std::size_t>(block, 1));
    }
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  std::vector<int> out;
  out.reserve(count);
  for (const auto& hit : hits) out.push_back(hit.load());
  return out;
}

TEST(SpinTeam, ForEachBlockVisitsEveryIndexOnce) {
  constexpr std::size_t kBlock = 64;
  for (const std::size_t workers : {0U, 1U, 2U, 3U, 9U}) {
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, kBlock - 1, kBlock, kBlock + 1,
          std::size_t{100000}}) {
      EXPECT_EQ(visits(workers, count, kBlock), std::vector<int>(count, 1))
          << "count " << count << ", width " << workers;
    }
  }
}

TEST(SpinTeam, ForEachBlockTreatsBlockZeroAsOne) {
  EXPECT_EQ(visits(3, 1000, 0), std::vector<int>(1000, 1));
}

TEST(SpinTeam, ForEachBlockRethrowsAndTheTeamStillWorks) {
  EXPECT_THROW(forEachBlock(3, 10000, 16,
                            [](std::size_t begin, std::size_t end) {
                              if (begin <= 5000 && 5000 < end) {
                                throw std::runtime_error("item 5000");
                              }
                            }),
               std::runtime_error);
  EXPECT_EQ(visits(3, 10000, 16), std::vector<int>(10000, 1));
}

}  // namespace
}  // namespace selfstab::parallel
