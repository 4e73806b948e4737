#include "parallel/workers.hpp"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace selfstab::parallel {

std::size_t availableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

std::size_t workersFor(std::size_t items, std::size_t grain) {
  return std::clamp<std::size_t>(items / std::max<std::size_t>(grain, 1), 1,
                                 availableCpus());
}

}  // namespace selfstab::parallel
