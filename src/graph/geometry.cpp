#include "graph/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>

#include "parallel/worker_pool.hpp"
#include "parallel/workers.hpp"

namespace selfstab::graph {

namespace {

// Sorts one neighbor list. Unit-disk lists hold a few dozen entries, where
// insertion sort beats std::sort's partitioning; long lists (dense disks)
// must not pay its quadratic cost.
void sortNeighbors(Vertex* first, std::size_t count) {
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

}  // namespace

std::vector<Point> randomPoints(std::size_t n, Rng& rng) {
  std::vector<Point> points(n);
  for (auto& p : points) {
    p.x = rng.real();
    p.y = rng.real();
  }
  return points;
}

Graph unitDiskGraph(const std::vector<Point>& points, double radius) {
  return detail::unitDiskGraph(
      points, radius, parallel::workersFor(points.size(), kUnitDiskGrain));
}

namespace detail {

Graph unitDiskGraph(const std::vector<Point>& points, double radius,
                    std::size_t bands) {
  const std::size_t n = points.size();
  const double r2 = radius * radius;
  // Every vertex's list is produced in one place, sorted, and adopted in
  // bulk, so no edge is ever inserted into the middle of a list.
  std::vector<std::vector<Vertex>> adj(n);
  std::vector<Vertex> found;

  // Small inputs (and radii the grid cannot help with) compare all pairs:
  // building the grid would cost more than it saves. Scanning v upwards
  // fills each list already sorted.
  if (n < 256 || !(radius > 0.0 && radius < 0.5)) {
    for (Vertex u = 0; u < n; ++u) {
      found.clear();
      for (Vertex v = 0; v < n; ++v) {
        if (v != u && squaredDistance(points[u], points[v]) <= r2) {
          found.push_back(v);
        }
      }
      adj[u].assign(found.begin(), found.end());
    }
    return Graph::fromSortedAdjacency(std::move(adj));
  }

  // Spatial hashing: bucket the unit square into cells at least `radius`
  // wide, so every in-range pair lives in the same or an adjacent cell.
  // Expected cost is O(n + m) instead of the all-pairs O(n^2), which is what
  // makes 10^6-node geometric topologies practical. The 1e-9 margin keeps
  // cells wide enough after rounding: with side * radius == 1, a point one
  // ulp below a cell edge and its partner at distance exactly `radius` could
  // land two cells apart. The sqrt(n) cap keeps the cell count O(n) for tiny
  // radii (wider cells only add candidates).
  const double cap = std::ceil(std::sqrt(static_cast<double>(n)));
  const std::size_t side = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::min((1.0 - 1e-9) / radius, cap)));
  const auto scale = static_cast<double>(side);
  const auto axisCell = [&](double t) {
    return static_cast<std::size_t>(std::clamp(t * scale, 0.0, scale - 1.0));
  };

  // Counting sort of vertices into cells (CSR layout: offsets + members),
  // with the coordinates copied into the same cell order so every neighbor
  // search below reads contiguous memory.
  std::vector<std::size_t> offsets(side * side + 1, 0);
  std::vector<std::size_t> cellOf(n);
  for (Vertex v = 0; v < n; ++v) {
    cellOf[v] = axisCell(points[v].y) * side + axisCell(points[v].x);
    ++offsets[cellOf[v] + 1];
  }
  for (std::size_t c = 1; c < offsets.size(); ++c) offsets[c] += offsets[c - 1];
  std::vector<Vertex> members(n);
  std::vector<Point> sorted(n);
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (Vertex v = 0; v < n; ++v) {
      const std::size_t i = cursor[cellOf[v]]++;
      members[i] = v;
      sorted[i] = points[v];
    }
  }

  // Each vertex searches its full 3x3 block of cells. A row of the block is
  // consecutive cells, hence one contiguous run of `sorted`. Rows
  // [rowBegin, rowEnd) hand each vertex's sorted list, in cell order, to
  // keep(i, list, count), i being the vertex's slot in `members`.
  const auto searchRows = [&](std::size_t rowBegin, std::size_t rowEnd,
                              std::vector<Vertex>& buffer, auto&& keep) {
    for (std::size_t cy = rowBegin; cy < rowEnd; ++cy) {
      const std::size_t y0 = cy == 0 ? 0 : cy - 1;
      const std::size_t y1 = std::min(cy + 1, side - 1);
      for (std::size_t cx = 0; cx < side; ++cx) {
        const std::size_t x0 = cx == 0 ? 0 : cx - 1;
        const std::size_t x1 = std::min(cx + 1, side - 1);
        const std::size_t c = cy * side + cx;
        std::size_t block = 0;
        for (std::size_t y = y0; y <= y1; ++y) {
          block += offsets[y * side + x1 + 1] - offsets[y * side + x0];
        }
        if (buffer.size() < block) buffer.resize(block);
        for (std::size_t i = offsets[c]; i < offsets[c + 1]; ++i) {
          const Point p = sorted[i];
          // Branch-free filter: write every candidate, keep the in-range
          // ones (about a third of the block, in no predictable pattern).
          std::size_t k = 0;
          for (std::size_t y = y0; y <= y1; ++y) {
            const std::size_t end = offsets[y * side + x1 + 1];
            for (std::size_t j = offsets[y * side + x0]; j < end; ++j) {
              buffer[k] = members[j];
              k += static_cast<std::size_t>(
                  (j != i) & (squaredDistance(p, sorted[j]) <= r2));
            }
          }
          sortNeighbors(buffer.data(), k);
          keep(i, buffer.data(), k);
        }
      }
    }
  };

  bands = std::clamp<std::size_t>(bands, 1, side);
  if (bands == 1) {
    searchRows(0, side, found,
               [&](std::size_t i, const Vertex* list, std::size_t k) {
                 adj[members[i]].assign(list, list + k);
               });
    return Graph::fromSortedAdjacency(std::move(adj));
  }

  // Banded: worker b searches cell rows [b·side/bands, (b+1)·side/bands)
  // into its own flat buffer, recording each list's length by slot. The
  // lists are then allocated here, on the calling thread, in the same cell
  // order as the serial build, so neighboring vertices' lists stay
  // neighbors in memory (lists allocated on the workers measured slower to
  // traverse). Each band's buffer is freed as soon as it is adopted.
  const auto rowOf = [&](std::size_t b) { return b * side / bands; };
  std::vector<std::vector<Vertex>> bandLists(bands);
  std::vector<std::uint32_t> degree(n);
  // Expected degree (n-1)·πr², ignoring the border: a reservation that a
  // uniform sample rarely outgrows.
  const double expectedDegree =
      static_cast<double>(n - 1) * std::numbers::pi * r2;
  {
    parallel::WorkerPool pool(bands);
    pool.run([&](std::size_t b) {
      const std::size_t first = offsets[rowOf(b) * side];
      const std::size_t last = offsets[rowOf(b + 1) * side];
      std::vector<Vertex>& out = bandLists[b];
      out.reserve(static_cast<std::size_t>(
          static_cast<double>(last - first) * expectedDegree));
      std::vector<Vertex> buffer;
      searchRows(rowOf(b), rowOf(b + 1), buffer,
                 [&](std::size_t i, const Vertex* list, std::size_t k) {
                   out.insert(out.end(), list, list + k);
                   degree[i] = static_cast<std::uint32_t>(k);
                 });
    });
  }
  for (std::size_t b = 0; b < bands; ++b) {
    const Vertex* list = bandLists[b].data();
    for (std::size_t i = offsets[rowOf(b) * side];
         i < offsets[rowOf(b + 1) * side]; ++i) {
      adj[members[i]].assign(list, list + degree[i]);
      list += degree[i];
    }
    std::vector<Vertex>().swap(bandLists[b]);
  }
  return Graph::fromSortedAdjacency(std::move(adj));
}

}  // namespace detail

SpatialGrid::SpatialGrid(std::size_t order, double cellWidth) {
  // floor(1/width) keeps cells at least cellWidth wide; the sqrt(order) cap
  // keeps the cell count O(order) when the width is tiny relative to the
  // point density (gather() walks rectangles, so a cell narrower than the
  // query radius costs extra cells, never correctness).
  const auto cap = static_cast<std::size_t>(std::ceil(
      std::sqrt(static_cast<double>(std::max<std::size_t>(order, 1)))));
  std::size_t side = cap;
  if (cellWidth > 0.0) {
    side = std::min(side, static_cast<std::size_t>(
                              std::max(1.0, 1.0 / cellWidth)));
  }
  side_ = std::max<std::size_t>(side, 1);
  scale_ = static_cast<double>(side_);
  cells_.resize(side_ * side_);
  where_.resize(order);
}

void SpatialGrid::place(Vertex v, const Point& p) {
  const auto cell = static_cast<std::uint32_t>(cellOf(p));
  Slot& slot = where_[v];
  if (slot.cell == cell) return;
  if (slot.cell != kNowhere) {
    auto& old = cells_[slot.cell];
    const Vertex moved = old.back();
    old[slot.index] = moved;
    where_[moved].index = slot.index;
    old.pop_back();
  }
  auto& dst = cells_[cell];
  slot.cell = cell;
  slot.index = static_cast<std::uint32_t>(dst.size());
  dst.push_back(v);
}

void SpatialGrid::gather(const Point& center, double radius,
                         std::vector<Vertex>& out) const {
  forEachCellIntersecting(center, radius, [&](std::size_t cell) {
    const auto& members = cells_[cell];
    out.insert(out.end(), members.begin(), members.end());
  });
}

}  // namespace selfstab::graph
