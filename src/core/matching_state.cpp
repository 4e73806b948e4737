#include "core/matching_state.hpp"

#include "parallel/spin_team.hpp"

namespace selfstab::core {

std::vector<PointerState> randomPointerConfiguration(const graph::Graph& g,
                                                     Rng& rng,
                                                     std::size_t width) {
  constexpr std::size_t kBlock = 4096;
  const std::size_t n = g.order();
  // draw[x]: the degree of the node labelled x, then the rank it drew.
  std::vector<std::uint32_t> draw(n);
  parallel::forEachBlock(width, n, kBlock, [&](std::size_t b, std::size_t e) {
    for (auto v = static_cast<graph::Vertex>(b); v < e; ++v) {
      draw[g.labelOf(v)] = static_cast<std::uint32_t>(g.degree(v));
    }
  });
  for (std::uint32_t& d : draw) {
    d = static_cast<std::uint32_t>(rng.below(std::uint64_t{d} + 1));
  }
  std::vector<PointerState> states(n);
  parallel::forEachBlock(width, n, kBlock, [&](std::size_t b, std::size_t e) {
    for (auto v = static_cast<graph::Vertex>(b); v < e; ++v) {
      const std::uint32_t rank = draw[g.labelOf(v)];
      if (rank < g.degree(v)) {
        states[v].ptr = graph::neighborByLabelRank(g, v, rank);
      }
    }
  });
  return states;
}

}  // namespace selfstab::core
