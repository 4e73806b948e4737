// Small instances for the exhaustive every-configuration tests.
//
// A parameterized test's listed name includes its parameter's printed bytes,
// so a Graph parameter would tie each case's name to Graph's storage layout.
// A case is a plain value instead, its edge list, and the test builds the
// Graph from it.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace selfstab::testing {

struct SmallGraph {
  const char* family;
  std::size_t order;
  std::vector<graph::Edge> edges;

  [[nodiscard]] static SmallGraph of(const char* family,
                                     const graph::Graph& g) {
    return {family, g.order(), g.edges()};
  }

  [[nodiscard]] graph::Graph build() const {
    return graph::Graph::fromEdges(order, edges);
  }
};

/// "g<index>_n<order>_m<size>".
inline std::string smallGraphName(
    const ::testing::TestParamInfo<SmallGraph>& info) {
  return "g" + std::to_string(info.index) + "_n" +
         std::to_string(info.param.order) + "_m" +
         std::to_string(info.param.edges.size());
}

}  // namespace selfstab::testing
