#include "graph/geometry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace selfstab::graph {
namespace {

TEST(Geometry, DistanceBasics) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(squaredDistance({1, 1}, {1, 1}), 0.0);
}

TEST(Geometry, RandomPointsInUnitSquare) {
  Rng rng(1);
  const auto pts = randomPoints(200, rng);
  ASSERT_EQ(pts.size(), 200u);
  for (const Point& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LT(p.y, 1.0);
  }
}

TEST(Geometry, UnitDiskGraphEdgesMatchRadius) {
  const std::vector<Point> pts{{0.0, 0.0}, {0.2, 0.0}, {0.5, 0.0}};
  const Graph g = unitDiskGraph(pts, 0.25);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_FALSE(g.hasEdge(0, 2));
  EXPECT_FALSE(g.hasEdge(1, 2));
  EXPECT_EQ(g.size(), 1u);
}

TEST(Geometry, UnitDiskRadiusIsInclusive) {
  const std::vector<Point> pts{{0.0, 0.0}, {0.25, 0.0}};
  const Graph g = unitDiskGraph(pts, 0.25);
  EXPECT_TRUE(g.hasEdge(0, 1));
}

TEST(Geometry, FullRadiusGivesCompleteGraph) {
  Rng rng(2);
  const auto pts = randomPoints(20, rng);
  const Graph g = unitDiskGraph(pts, 2.0);  // > diagonal of unit square
  EXPECT_EQ(g.size(), 20u * 19u / 2);
}

// unitDiskGraph buckets n >= 256 points into a grid of cells at least r
// wide; below that it compares all pairs. The grid path must give exactly
// the all-pairs edge set, including the cases a cell index gets wrong
// first: points on and just below cell boundaries, and pairs at distance r
// (inclusive) straddling them.
TEST(Geometry, GridPathMatchesAllPairs) {
  for (const std::size_t n : {256U, 1000U, 4000U}) {
    for (const double r : {0.01, 0.05, 0.2, 0.49}) {
      for (const std::uint64_t seed : {1U, 2U, 3U}) {
        Rng rng(seed * 7919 + n);
        std::vector<Point> pts = randomPoints(n, rng);
        const auto side = static_cast<std::size_t>(1.0 / r);
        const auto boundary = [&] {
          return static_cast<double>(rng.below(side + 1)) /
                 static_cast<double>(side);
        };
        // A quarter of the points sit on cell boundaries (one axis, both
        // axes, or one ulp below), the next quarter in pairs at distance r
        // along an axis or a 3-4-5 diagonal.
        const std::size_t quarter = n / 4;
        for (std::size_t i = 0; i < quarter; ++i) {
          Point& p = pts[i];
          switch (i % 4) {
            case 0: p.x = boundary(); break;
            case 1: p.y = boundary(); break;
            case 2: p = {boundary(), boundary()}; break;
            default: p.x = std::nextafter(boundary(), 0.0); break;
          }
          p.x = std::min(p.x, std::nextafter(1.0, 0.0));
          p.y = std::min(p.y, std::nextafter(1.0, 0.0));
        }
        for (std::size_t i = quarter; i + 1 < 2 * quarter; i += 2) {
          Point a = pts[i];
          if ((i / 2) % 2 == 0) a.x = boundary();
          const double dx[] = {r, 0.0, 0.6 * r};
          const double dy[] = {0.0, r, 0.8 * r};
          const std::size_t k = (i / 2) % 3;
          a.x = std::min(a.x, 1.0 - r);
          a.y = std::min(a.y, 1.0 - r);
          pts[i] = a;
          pts[i + 1] = {a.x + dx[k], a.y + dy[k]};
        }

        // All pairs in lexicographic order, as Graph::edges() lists them.
        std::vector<Edge> expected;
        for (Vertex u = 0; u < n; ++u) {
          for (Vertex v = u + 1; v < n; ++v) {
            if (squaredDistance(pts[u], pts[v]) <= r * r) {
              expected.push_back({u, v});
            }
          }
        }
        const Graph got = unitDiskGraph(pts, r);
        ASSERT_EQ(got.size(), expected.size())
            << "n=" << n << " r=" << r << " seed=" << seed;
        ASSERT_TRUE(got.edges() == expected)
            << "n=" << n << " r=" << r << " seed=" << seed;
      }
    }
  }
}

// With side = floor(1/r) cells per axis, side * r rounds to 1, and a point
// one ulp below a cell edge can land two cells away from its partner at
// distance r: a grid that searches only adjacent cells then misses the
// edge (r = 0.05, 0.1, 0.2, 0.25 each have such pairs). Every such
// candidate pair, next to random filler, must still give the all-pairs
// edge set.
TEST(Geometry, GridPathKeepsPairsOneUlpBelowACellEdge) {
  for (const double r : {0.05, 0.1, 0.2, 0.25, 0.01, 0.003}) {
    Rng rng(99);
    std::vector<Point> pts = randomPoints(256, rng);
    const auto side = static_cast<std::size_t>(1.0 / r);
    for (std::size_t k = 1; k < side; ++k) {
      double x = static_cast<double>(k) / static_cast<double>(side);
      for (int ulps = 0; ulps < 4; ++ulps, x = std::nextafter(x, 0.0)) {
        if (x + r >= 1.0) continue;
        const double y = rng.real();
        pts.push_back({x, y});
        pts.push_back({x + r, y});
        pts.push_back({y, x});
        pts.push_back({y, x + r});
      }
    }
    std::vector<Edge> expected;
    for (Vertex u = 0; u < pts.size(); ++u) {
      for (Vertex v = u + 1; v < pts.size(); ++v) {
        if (squaredDistance(pts[u], pts[v]) <= r * r) expected.push_back({u, v});
      }
    }
    const Graph got = unitDiskGraph(pts, r);
    EXPECT_EQ(got.size(), expected.size()) << "r=" << r;
    EXPECT_TRUE(got.edges() == expected) << "r=" << r;
  }
}

// The banded build splits the grid rows among workers; every list is still
// searched and sorted on its own, so any band count must give the serial
// graph. Band counts 2 and 3 split rows unevenly; 4096 exceeds the rows of
// every grid here and is clamped. The points include pairs at distance r
// straddling cell edges (one ulp below them too, where r = 0.05 and 0.1
// once lost edges).
TEST(Geometry, BandedBuildMatchesSerial) {
  for (const double r : {0.003, 0.01, 0.05, 0.1, 0.2}) {
    Rng rng(4242);
    std::vector<Point> pts = randomPoints(6000, rng);
    const auto side = static_cast<std::size_t>(1.0 / r);
    for (std::size_t k = 1; k < side && k < 200; ++k) {
      double x = static_cast<double>(k) / static_cast<double>(side);
      for (int ulps = 0; ulps < 2; ++ulps, x = std::nextafter(x, 0.0)) {
        if (x + r >= 1.0) continue;
        const double y = rng.real();
        pts.push_back({x, y});
        pts.push_back({x + r, y});
        pts.push_back({y, x});
        pts.push_back({y, x + r});
      }
    }
    const Graph serial = detail::unitDiskGraph(pts, r, 1);
    ASSERT_GT(serial.size(), 0U) << "r=" << r;
    for (const std::size_t bands : {2U, 3U, 4096U}) {
      const Graph banded = detail::unitDiskGraph(pts, r, bands);
      EXPECT_EQ(banded.size(), serial.size())
          << "r=" << r << " bands=" << bands;
      EXPECT_TRUE(banded == serial) << "r=" << r << " bands=" << bands;
      EXPECT_EQ(banded.version(), serial.version());
    }
    EXPECT_TRUE(unitDiskGraph(pts, r) == serial) << "r=" << r;
  }
}

// The Space build is the Points build renumbered: mapping each Space
// vertex to its label gives the Points graph edge for edge, and the labels
// put the vertices in grid-cell order (row-major cells, ascending point
// index inside a cell). The grid here repeats unitDiskGraph's sizing rule.
// The unit-disk build picks the slices' width itself: space order is
// narrow when its cell blocks bound every |w − v| by 32767, point order
// when there are at most 32768 vertices; otherwise both are wide. Either
// way the graph is the one the other width holds.
TEST(Geometry, SliceWidthFollowsTheBuild) {
  Rng rng(77);
  const std::vector<Point> pts = randomPoints(40000, rng);
  const Graph space = unitDiskGraph(pts, 0.008, VertexOrder::Space);
  EXPECT_TRUE(space.narrow());
  EXPECT_TRUE(space == detail::widened(space));
  EXPECT_FALSE(unitDiskGraph(pts, 0.008).narrow());
  const std::vector<Point> few(pts.begin(), pts.begin() + 32768);
  EXPECT_TRUE(unitDiskGraph(few, 0.008).narrow());
  // A strip of 40000 points in one row of cells, and one pair across the
  // row boundary: the pair's slots lie ~40000 apart in space order.
  std::vector<Point> strip = pts;
  for (Point& p : strip) p.y *= 0.004;
  strip.push_back({0.0001, 0.0049});
  strip.push_back({0.0001, 0.0051});
  for (const std::size_t bands : {1U, 4U}) {
    const Graph wide =
        detail::unitDiskGraph(strip, 0.001, bands, VertexOrder::Space);
    EXPECT_FALSE(wide.narrow()) << bands;
    const Graph points = detail::unitDiskGraph(strip, 0.001, bands);
    EXPECT_EQ(wide.size(), points.size()) << bands;
    EXPECT_TRUE(points.hasEdge(40000, 40001)) << bands;
    strip.pop_back();
    const Graph narrow =
        detail::unitDiskGraph(strip, 0.001, bands, VertexOrder::Space);
    EXPECT_TRUE(narrow.narrow()) << bands;
    EXPECT_EQ(narrow.size() + 1, wide.size()) << bands;
    strip.push_back({0.0001, 0.0051});
  }
}

TEST(Geometry, SpaceOrderRelabelsPointOrder) {
  struct Case {
    std::size_t n;
    double r;
  };
  // n = 100 is one cell (all pairs); r = 0.005 at 5000 and r = 0.002 at
  // 60000 are narrower than the sqrt(n) cap lets the cells be.
  for (const Case c : {Case{100, 0.2}, Case{5000, 0.03}, Case{5000, 0.005},
                       Case{60000, 0.006}, Case{60000, 0.002}}) {
    Rng rng(1000 + c.n);
    const std::vector<Point> pts = randomPoints(c.n, rng);
    std::size_t side = 1;
    if (c.n >= 256) {
      const double cap = std::ceil(std::sqrt(static_cast<double>(c.n)));
      side = static_cast<std::size_t>(std::min((1.0 - 1e-9) / c.r, cap));
    }
    const auto scale = static_cast<double>(side);
    const auto cellOf = [&](const Point& p) {
      const auto axis = [&](double t) {
        return static_cast<std::size_t>(std::clamp(t * scale, 0.0, scale - 1));
      };
      return axis(p.y) * side + axis(p.x);
    };
    for (const std::size_t bands : {1U, 3U, 4U}) {
      const std::string where =
          "n=" + std::to_string(c.n) + " r=" + std::to_string(c.r) +
          " bands=" + std::to_string(bands);
      const Graph points = detail::unitDiskGraph(pts, c.r, bands);
      const Graph space =
          detail::unitDiskGraph(pts, c.r, bands, VertexOrder::Space);
      ASSERT_EQ(space.order(), c.n) << where;
      EXPECT_FALSE(points.labelled()) << where;
      if (side == 1) {
        EXPECT_FALSE(space.labelled()) << where;
        EXPECT_TRUE(space == points) << where;
        continue;
      }
      ASSERT_TRUE(space.labelled()) << where;
      std::vector<bool> seen(c.n, false);
      for (Vertex v = 0; v < c.n; ++v) {
        const Vertex x = space.labelOf(v);
        ASSERT_LT(x, c.n) << where;
        EXPECT_FALSE(seen[x]) << where << " label " << x << " twice";
        seen[x] = true;
        if (v > 0) {
          const Vertex prev = space.labelOf(v - 1);
          const auto key = std::pair{cellOf(pts[x]), x};
          EXPECT_LT(std::pair(cellOf(pts[prev]), prev), key)
              << where << " vertex " << v << " out of cell order";
        }
      }
      std::vector<graph::Edge> relabelled;
      for (const graph::Edge& e : space.edges()) {
        relabelled.push_back(
            graph::makeEdge(space.labelOf(e.u), space.labelOf(e.v)));
      }
      EXPECT_TRUE(Graph::fromEdges(c.n, relabelled) == points) << where;
      EXPECT_EQ(space.version(), points.version()) << where;
      EXPECT_EQ(space.maxDegree(), points.maxDegree()) << where;
    }
  }
}

// The cell sort runs on the team: per-worker counts over ranges of
// points, then a stable scatter. Clustered points put long runs of one
// cell across the workers' range bounds; every width must give the serial
// sort, and the graphs built through it must match in both orders.
TEST(Geometry, ParallelCellSortMatchesSerial) {
  Rng rng(4101);
  std::vector<Point> pts = randomPoints(3000, rng);
  for (std::size_t i = 0; i < pts.size(); i += 2) {
    pts[i] = {0.3 + 0.01 * rng.real(), 0.6 + 0.01 * rng.real()};
  }
  pts[7] = {-0.5, 1.5};  // outside the square: clamps into a corner cell
  for (const std::size_t side : {1U, 7U, 40U}) {
    const detail::CellSort serial = detail::sortIntoCells(pts, side, 1);
    // The serial sort is the stable sort by cell.
    const auto cellOf = [&](const Point& p) {
      const auto axis = [&](double t) {
        return static_cast<std::size_t>(std::clamp(
            t * static_cast<double>(side), 0.0,
            static_cast<double>(side) - 1.0));
      };
      return axis(p.y) * side + axis(p.x);
    };
    std::vector<Vertex> byCell(pts.size());
    std::iota(byCell.begin(), byCell.end(), Vertex{0});
    std::stable_sort(byCell.begin(), byCell.end(), [&](Vertex a, Vertex b) {
      return cellOf(pts[a]) < cellOf(pts[b]);
    });
    ASSERT_TRUE(std::equal(byCell.begin(), byCell.end(),
                           serial.members.begin(), serial.members.end()))
        << "side " << side;
    for (std::size_t c = 0; c < side * side; ++c) {
      for (std::size_t i = serial.cellStart[c]; i < serial.cellStart[c + 1];
           ++i) {
        ASSERT_EQ(cellOf(pts[serial.members[i]]), c);
        ASSERT_EQ(serial.sorted[i], pts[serial.members[i]]);
      }
    }
    for (const std::size_t workers : {2U, 3U, 4U}) {
      const detail::CellSort team = detail::sortIntoCells(pts, side, workers);
      EXPECT_EQ(team.cellStart, serial.cellStart) << side << "/" << workers;
      EXPECT_TRUE(team.members == serial.members) << side << "/" << workers;
      EXPECT_TRUE(team.sorted == serial.sorted) << side << "/" << workers;
    }
  }
  pts[7] = {0.25, 0.75};
  for (const VertexOrder order : {VertexOrder::Points, VertexOrder::Space}) {
    const Graph serial = detail::unitDiskGraph(pts, 0.05, 1, order);
    for (const std::size_t bands : {2U, 3U, 4U}) {
      EXPECT_TRUE(detail::unitDiskGraph(pts, 0.05, bands, order) == serial)
          << bands << " bands";
    }
  }
}

TEST(SpatialGrid, GatherIsASupersetOfTheDisk) {
  Rng rng(7);
  const auto pts = randomPoints(500, rng);
  SpatialGrid grid(pts.size(), 0.1);
  for (Vertex v = 0; v < pts.size(); ++v) grid.place(v, pts[v]);

  for (int trial = 0; trial < 50; ++trial) {
    const Point center{rng.real(), rng.real()};
    const double radius = rng.real(0.0, 0.3);
    std::vector<Vertex> got;
    grid.gather(center, radius, got);
    std::sort(got.begin(), got.end());
    // No duplicates: each vertex is recorded in exactly one cell.
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
    // Every vertex actually inside the disk must be among the candidates.
    for (Vertex v = 0; v < pts.size(); ++v) {
      if (squaredDistance(pts[v], center) <= radius * radius) {
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), v))
            << "trial " << trial << " missed vertex " << v;
      }
    }
  }
}

TEST(SpatialGrid, PlaceMovesVerticesBetweenCells) {
  SpatialGrid grid(16, 0.25);  // 4x4 grid
  grid.place(0, {0.1, 0.1});
  grid.place(1, {0.1, 0.15});
  grid.place(2, {0.9, 0.9});
  EXPECT_EQ(grid.cellMembers(grid.cellOf({0.1, 0.1})).size(), 2u);

  grid.place(0, {0.9, 0.92});  // far move: swap-popped out of the old cell
  EXPECT_EQ(grid.cellMembers(grid.cellOf({0.1, 0.1})).size(), 1u);
  EXPECT_EQ(grid.cellMembers(grid.cellOf({0.1, 0.1})).front(), 1u);
  EXPECT_EQ(grid.cellMembers(grid.cellOf({0.9, 0.9})).size(), 2u);

  std::vector<Vertex> got;
  grid.gather({0.9, 0.9}, 0.1, got);
  EXPECT_NE(std::find(got.begin(), got.end(), 0u), got.end());
  EXPECT_NE(std::find(got.begin(), got.end(), 2u), got.end());
}

TEST(SpatialGrid, OutOfSquareCoordinatesClampSafely) {
  SpatialGrid grid(4, 0.5);
  grid.place(0, {-0.3, 1.7});  // clamps into a border cell
  std::vector<Vertex> got;
  grid.gather({0.0, 1.0}, 0.8, got);  // query rectangle leaves the square too
  EXPECT_NE(std::find(got.begin(), got.end(), 0u), got.end());
}

TEST(SpatialGrid, TinyCellWidthIsCappedNearOrder) {
  // A minuscule radius must not allocate 1/width^2 cells; the grid caps at
  // ~order cells and stays correct because gather widens over more cells.
  SpatialGrid grid(100, 1e-6);
  EXPECT_LE(grid.cellCount(), 100u);
  grid.place(7, {0.5, 0.5});
  std::vector<Vertex> got;
  grid.gather({0.5001, 0.5001}, 0.001, got);
  EXPECT_NE(std::find(got.begin(), got.end(), 7u), got.end());
}

}  // namespace
}  // namespace selfstab::graph
