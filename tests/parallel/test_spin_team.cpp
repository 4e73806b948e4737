#include "parallel/spin_team.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace selfstab::parallel {
namespace {

TEST(SpinTeam, EveryWorkerRunsEachDispatchOnce) {
  SpinTeam team(3);
  ASSERT_EQ(team.size(), 3U);
  std::vector<int> hits(3, 0);
  for (int round = 0; round < 2000; ++round) {
    team.run([&](std::size_t t) { ++hits[t]; });
  }
  EXPECT_EQ(hits, (std::vector<int>{2000, 2000, 2000}));
}

TEST(SpinTeam, WorkerZeroIsTheCaller) {
  SpinTeam team(2);
  const auto caller = std::this_thread::get_id();
  std::thread::id zero;
  team.run([&](std::size_t t) {
    if (t == 0) zero = std::this_thread::get_id();
  });
  EXPECT_EQ(zero, caller);
}

TEST(SpinTeam, RestingHelpersWakeForTheNextDispatch) {
  SpinTeam team(4);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    team.rest();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    team.run([&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 80);
}

TEST(SpinTeam, RethrowsAWorkersException) {
  SpinTeam team(3);
  EXPECT_THROW(team.run([](std::size_t t) {
                 if (t == 2) throw std::runtime_error("worker 2");
               }),
               std::runtime_error);
  int ran = 0;
  team.run([&](std::size_t t) {
    if (t == 0) ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(SpinTeam, OneWorkerRunsInline) {
  SpinTeam team(1);
  EXPECT_EQ(team.size(), 1U);
  int ran = 0;
  team.run([&](std::size_t t) { ran += static_cast<int>(t) + 1; });
  EXPECT_EQ(ran, 1);
}

// Runs forEachBlock over `count` items and returns how often each item
// was visited; fails if a block is empty, reversed or longer than `block`.
std::vector<int> visits(SpinTeam* team, std::size_t count,
                        std::size_t block) {
  std::vector<std::atomic<int>> hits(count);
  forEachBlock(team, count, block, [&](std::size_t begin, std::size_t end) {
    EXPECT_LE(begin, end);
    EXPECT_LE(end, count);
    if (team != nullptr) {
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
  SpinTeam one(1);
  SpinTeam three(3);
  for (SpinTeam* team : {static_cast<SpinTeam*>(nullptr), &one, &three}) {
    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, kBlock - 1, kBlock, kBlock + 1,
          std::size_t{100000}}) {
      EXPECT_EQ(visits(team, count, kBlock), std::vector<int>(count, 1))
          << "count " << count << ", team of "
          << (team == nullptr ? 0 : team->size());
    }
  }
}

TEST(SpinTeam, ForEachBlockTreatsBlockZeroAsOne) {
  SpinTeam team(3);
  EXPECT_EQ(visits(&team, 1000, 0), std::vector<int>(1000, 1));
}

TEST(SpinTeam, ForEachBlockRethrowsAndTheTeamStillWorks) {
  SpinTeam team(3);
  EXPECT_THROW(forEachBlock(&team, 10000, 16,
                            [](std::size_t begin, std::size_t end) {
                              if (begin <= 5000 && 5000 < end) {
                                throw std::runtime_error("item 5000");
                              }
                            }),
               std::runtime_error);
  EXPECT_EQ(visits(&team, 10000, 16), std::vector<int>(10000, 1));
}

TEST(SpinTeam, TeamForOneWorkerIsNull) {
  EXPECT_EQ(teamFor(1), nullptr);
  const std::unique_ptr<SpinTeam> team = teamFor(2);
  ASSERT_NE(team, nullptr);
  EXPECT_EQ(team->size(), 2U);
}

}  // namespace
}  // namespace selfstab::parallel
