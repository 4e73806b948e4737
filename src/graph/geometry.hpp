// Minimal 2-D geometry used by the unit-disk model and the mobility layer.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace selfstab::graph {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr bool operator==(const Point&, const Point&) = default;
};

constexpr double squaredDistance(const Point& a, const Point& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline double distance(const Point& a, const Point& b) noexcept {
  return std::sqrt(squaredDistance(a, b));
}

/// n points uniformly at random in the unit square.
std::vector<Point> randomPoints(std::size_t n, Rng& rng);

/// How a unit-disk build numbers its vertices.
enum class VertexOrder {
  Points,  ///< vertex i is point i
  Space,   ///< grid-cell order (row-major cells, point order inside a
           ///< cell); labels() map each vertex back to its point index
};

/// The unit-disk graph of the given points: {u,v} is an edge iff the two
/// points are within `radius` of each other. This is the standard model of
/// radio connectivity in an ad hoc network. Large inputs are built by
/// parallel::workersFor(n, kUnitDiskGrain) workers, one band of grid rows
/// each; the graph is the same at every worker count. In Space order the
/// graph is the Points build renumbered so that neighbours in the plane are
/// near in memory; it stays unlabelled when the grid has one cell, where
/// the two orders coincide.
Graph unitDiskGraph(const std::vector<Point>& points, double radius,
                    VertexOrder order = VertexOrder::Points);

/// Points per unitDiskGraph worker: below 2 × this a build stays serial.
/// Measured break-even, see docs/PERFORMANCE.md.
inline constexpr std::size_t kUnitDiskGrain = 5000;

namespace detail {
/// unitDiskGraph with an explicit band count (clamped to [1, grid rows]);
/// tests compare band counts against each other through it.
Graph unitDiskGraph(const std::vector<Point>& points, double radius,
                    std::size_t bands,
                    VertexOrder order = VertexOrder::Points);

/// Points sorted into the cells of a side × side grid over the unit square
/// (row-major; coordinates outside [0, 1) clamp into the border cells).
/// Cell c holds slots [cellStart[c], cellStart[c + 1]); slot i is point
/// members[i], at sorted[i]. The sort is stable: members ascend inside
/// each cell.
struct CellSort {
  std::vector<std::size_t> cellStart;
  Graph::Labels members;
  BulkVector<Point> sorted;
};

/// The counting sort of unitDiskGraph at width `workers` on
/// parallel::team(): each worker counts the cells of a contiguous range of
/// points, a prefix over (cell, worker) gives each worker its first slot in
/// each cell, and each worker scatters its range in order. The result is
/// the same at every width; width 1 runs inline.
[[nodiscard]] CellSort sortIntoCells(const std::vector<Point>& points,
                                     std::size_t side, std::size_t workers);
}  // namespace detail

/// Incrementally-maintained uniform grid over up to `order` moving points in
/// the unit square. place() inserts a vertex or moves it between cells in
/// O(1); gather() enumerates every vertex whose *recorded* cell intersects
/// the bounding square of a query disk — a superset of the vertices actually
/// inside it, so callers apply their own exact distance test. Coordinates
/// outside [0,1) clamp into the border cells, so slightly-out-of-square
/// queries and points are safe.
///
/// Cells are at least `cellWidth` wide (so a disk of that radius overlaps at
/// most a 3x3 block), but the grid caps itself at ~order cells so a tiny
/// radius cannot blow up memory; correctness never depends on the width —
/// gather() walks however many cells the query rectangle covers.
class SpatialGrid {
 public:
  SpatialGrid() = default;
  SpatialGrid(std::size_t order, double cellWidth);

  [[nodiscard]] std::size_t side() const noexcept { return side_; }
  [[nodiscard]] std::size_t cellCount() const noexcept {
    return side_ * side_;
  }

  [[nodiscard]] std::size_t cellOf(const Point& p) const noexcept {
    return axisCell(p.y) * side_ + axisCell(p.x);
  }

  /// Inserts v at p, or moves it there (swap-pop from its previous cell).
  void place(Vertex v, const Point& p);

  /// Vertices currently recorded in one cell, in insertion order.
  [[nodiscard]] const std::vector<Vertex>& cellMembers(
      std::size_t cell) const noexcept {
    return cells_[cell];
  }

  /// Invokes fn(cell) for every cell intersecting the bounding square of
  /// the disk (center, radius).
  template <typename Fn>
  void forEachCellIntersecting(const Point& center, double radius,
                               Fn&& fn) const {
    const std::size_t x0 = axisCell(center.x - radius);
    const std::size_t x1 = axisCell(center.x + radius);
    const std::size_t y0 = axisCell(center.y - radius);
    const std::size_t y1 = axisCell(center.y + radius);
    for (std::size_t cy = y0; cy <= y1; ++cy) {
      for (std::size_t cx = x0; cx <= x1; ++cx) {
        fn(cy * side_ + cx);
      }
    }
  }

  /// Appends every vertex recorded in a cell touching the disk's bounding
  /// square to `out` (no clear, no ordering guarantee).
  void gather(const Point& center, double radius,
              std::vector<Vertex>& out) const;

 private:
  [[nodiscard]] std::size_t axisCell(double coord) const noexcept {
    if (coord <= 0.0) return 0;
    const auto c = static_cast<std::size_t>(coord * scale_);
    return c < side_ ? c : side_ - 1;
  }

  static constexpr std::uint32_t kNowhere = 0xffffffffu;
  struct Slot {
    std::uint32_t cell = kNowhere;
    std::uint32_t index = 0;  ///< position inside cells_[cell]
  };

  std::size_t side_ = 1;
  double scale_ = 1.0;  ///< == side_, cached for the coordinate scaling
  std::vector<std::vector<Vertex>> cells_;
  std::vector<Slot> where_;
};

}  // namespace selfstab::graph
