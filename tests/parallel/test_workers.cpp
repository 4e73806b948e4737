#include "parallel/workers.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>

namespace selfstab::parallel {
namespace {

TEST(Workers, CountIsItemsOverGrainClampedToTheCpus) {
  const std::size_t cpus = availableCpus();
  ASSERT_GE(cpus, 1U);
  EXPECT_EQ(workersFor(0, 100), 1U);
  EXPECT_EQ(workersFor(199, 100), 1U);
  EXPECT_EQ(workersFor(200, 100), std::min<std::size_t>(2, cpus));
  EXPECT_EQ(workersFor(1000000, 1), cpus);
  EXPECT_EQ(workersFor(5, 0), std::min<std::size_t>(5, cpus));  // grain 0 = 1
}

// `taskset -c 0` restricts the process to one CPU; every pool it sizes must
// then take the serial path.
TEST(Workers, OneCpuAffinityMaskMeansOneWorker) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t cpus = availableCpus();
  const std::size_t workers = workersFor(1000000, 1);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(cpus, 1U);
  EXPECT_EQ(workers, 1U);
  EXPECT_EQ(availableCpus(), static_cast<std::size_t>(CPU_COUNT(&saved)));
}

}  // namespace
}  // namespace selfstab::parallel
