#include "parallel/spin_team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

}  // namespace
}  // namespace selfstab::parallel
