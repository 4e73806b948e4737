#include "graph/id_order.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <unordered_set>

namespace selfstab::graph {

IdAssignment IdAssignment::identity(std::size_t n) {
  Ids ids(n);
  std::iota(ids.begin(), ids.end(), Id{0});
  return IdAssignment(std::move(ids));
}

IdAssignment IdAssignment::reversed(std::size_t n) {
  Ids ids(n);
  for (std::size_t v = 0; v < n; ++v) ids[v] = n - 1 - v;
  return IdAssignment(std::move(ids));
}

IdAssignment IdAssignment::randomPermutation(std::size_t n, Rng& rng) {
  Ids ids(n);
  std::iota(ids.begin(), ids.end(), Id{0});
  rng.shuffle(std::span<Id>(ids));
  return IdAssignment(std::move(ids));
}

IdAssignment IdAssignment::randomSparse(std::size_t n, Rng& rng) {
  std::unordered_set<Id> seen;
  Ids ids;
  ids.reserve(n);
  while (ids.size() < n) {
    const Id candidate = rng.next();
    if (seen.insert(candidate).second) ids.push_back(candidate);
  }
  return IdAssignment(std::move(ids));
}

bool IdAssignment::isValid(std::size_t n) const {
  if (ids_.size() != n) return false;
  std::vector<Id> sorted(ids_.begin(), ids_.end());
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
}

}  // namespace selfstab::graph
