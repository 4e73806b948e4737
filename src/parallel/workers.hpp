// How many workers a piece of work deserves.
//
// A dispatch on the team pays for one barrier (and a wake-up when the
// helpers have parked), so splitting work only helps once each worker gets
// enough of it. Callers state their work in items and the smallest
// per-worker share that still pays (the grain, measured per caller; see
// docs/PERFORMANCE.md), and get back a width no larger than the CPUs this
// process may run on. Restricting the process's affinity (`taskset -c 0
// selfstab ...`) therefore restricts every pass; a one-CPU mask gives 1,
// the serial path.
#pragma once

#include <cstddef>

namespace selfstab::parallel {

/// CPUs in the calling thread's affinity mask (sched_getaffinity), else
/// std::thread::hardware_concurrency(), else 1. Never 0.
[[nodiscard]] std::size_t availableCpus();

/// clamp(items / grain, 1, availableCpus()); a grain of 0 counts as 1.
[[nodiscard]] std::size_t workersFor(std::size_t items, std::size_t grain);

}  // namespace selfstab::parallel
