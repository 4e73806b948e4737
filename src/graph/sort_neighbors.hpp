// Ascending sort for short vertex lists.
#pragma once

#include <algorithm>
#include <cstddef>

#include "graph/graph.hpp"

namespace selfstab::graph {

/// Sorts one neighbor list. Unit-disk lists hold a few dozen entries, where
/// insertion sort beats std::sort's partitioning; long lists (dense disks)
/// must not pay its quadratic cost. The unit-disk build, the beacon
/// simulator's receiver lists and its ground-truth topology all use it.
inline void sortNeighbors(Vertex* first, std::size_t count) {
  if (count > 64) {
    std::sort(first, first + count);
    return;
  }
  for (std::size_t a = 1; a < count; ++a) {
    const Vertex x = first[a];
    std::size_t b = a;
    for (; b > 0 && first[b - 1] > x; --b) first[b] = first[b - 1];
    first[b] = x;
  }
}

}  // namespace selfstab::graph
