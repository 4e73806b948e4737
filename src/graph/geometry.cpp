#include "graph/geometry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>

#include "graph/sort_neighbors.hpp"
#include "parallel/worker_pool.hpp"
#include "parallel/workers.hpp"

namespace selfstab::graph {

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
  std::vector<std::size_t> offsets(n + 1, 0);

  // Small inputs (and radii the grid cannot help with) compare all pairs:
  // building the grid would cost more than it saves. Scanning vertices in
  // order fills the CSR directly, each slice already sorted.
  if (n < 256 || !(radius > 0.0 && radius < 0.5)) {
    std::vector<Vertex> targets;
    for (Vertex u = 0; u < n; ++u) {
      for (Vertex v = 0; v < n; ++v) {
        if (v != u && squaredDistance(points[u], points[v]) <= r2) {
          targets.push_back(v);
        }
      }
      offsets[u + 1] = targets.size();
    }
    return Graph::fromCsr(std::move(offsets), std::move(targets));
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

  // Counting sort of vertices into cells (CSR layout: cellStart + members),
  // with the coordinates copied into the same cell order so every neighbor
  // search below reads contiguous memory.
  std::vector<std::size_t> cellStart(side * side + 1, 0);
  std::vector<std::size_t> cellOf(n);
  for (Vertex v = 0; v < n; ++v) {
    cellOf[v] = axisCell(points[v].y) * side + axisCell(points[v].x);
    ++cellStart[cellOf[v] + 1];
  }
  for (std::size_t c = 1; c < cellStart.size(); ++c) {
    cellStart[c] += cellStart[c - 1];
  }
  std::vector<Vertex> members(n);
  std::vector<Point> sorted(n);
  {
    std::vector<std::size_t> cursor(cellStart.begin(), cellStart.end() - 1);
    for (Vertex v = 0; v < n; ++v) {
      const std::size_t i = cursor[cellOf[v]]++;
      members[i] = v;
      sorted[i] = points[v];
    }
  }

  // Band b searches cell rows [b·side/bands, (b+1)·side/bands): each vertex
  // searches its full 3x3 block of cells (a row of the block is consecutive
  // cells, hence one contiguous run of `sorted`) and appends its sorted list
  // to the band's flat buffer, recording the list's length by slot.
  bands = std::clamp<std::size_t>(bands, 1, side);
  const auto rowOf = [&](std::size_t b) { return b * side / bands; };
  std::vector<std::vector<Vertex>> bandLists(bands);
  std::vector<std::uint32_t> degree(n);
  // Expected degree (n-1)·πr², ignoring the border: a reservation that a
  // uniform sample rarely outgrows.
  const double expectedDegree =
      static_cast<double>(n - 1) * std::numbers::pi * r2;
  const auto searchBand = [&](std::size_t b) {
    std::vector<Vertex>& out = bandLists[b];
    out.reserve(static_cast<std::size_t>(
        static_cast<double>(cellStart[rowOf(b + 1) * side] -
                            cellStart[rowOf(b) * side]) *
        expectedDegree));
    std::vector<Vertex> buffer;
    for (std::size_t cy = rowOf(b); cy < rowOf(b + 1); ++cy) {
      const std::size_t y0 = cy == 0 ? 0 : cy - 1;
      const std::size_t y1 = std::min(cy + 1, side - 1);
      for (std::size_t cx = 0; cx < side; ++cx) {
        const std::size_t x0 = cx == 0 ? 0 : cx - 1;
        const std::size_t x1 = std::min(cx + 1, side - 1);
        const std::size_t c = cy * side + cx;
        std::size_t block = 0;
        for (std::size_t y = y0; y <= y1; ++y) {
          block += cellStart[y * side + x1 + 1] - cellStart[y * side + x0];
        }
        if (buffer.size() < block) buffer.resize(block);
        for (std::size_t i = cellStart[c]; i < cellStart[c + 1]; ++i) {
          const Point p = sorted[i];
          // Branch-free filter: write every candidate, keep the in-range
          // ones (about a third of the block, in no predictable pattern).
          std::size_t k = 0;
          for (std::size_t y = y0; y <= y1; ++y) {
            const std::size_t end = cellStart[y * side + x1 + 1];
            for (std::size_t j = cellStart[y * side + x0]; j < end; ++j) {
              buffer[k] = members[j];
              k += static_cast<std::size_t>(
                  (j != i) & (squaredDistance(p, sorted[j]) <= r2));
            }
          }
          sortNeighbors(buffer.data(), k);
          out.insert(out.end(), buffer.data(), buffer.data() + k);
          degree[i] = static_cast<std::uint32_t>(k);
        }
      }
    }
  };
  // Scatters band b's lists, slot by slot, into their vertices' slices of
  // the CSR (disjoint across bands) and frees the band's buffer.
  std::vector<Vertex> targets;
  const auto scatterBand = [&](std::size_t b) {
    const Vertex* list = bandLists[b].data();
    for (std::size_t i = cellStart[rowOf(b) * side];
         i < cellStart[rowOf(b + 1) * side]; ++i) {
      std::copy_n(list, degree[i], targets.data() + offsets[members[i]]);
      list += degree[i];
    }
    std::vector<Vertex>().swap(bandLists[b]);
  };
  const auto layOut = [&] {
    for (std::size_t i = 0; i < n; ++i) offsets[members[i] + 1] = degree[i];
    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    targets.resize(offsets[n]);
  };
  if (bands == 1) {
    searchBand(0);
    layOut();
    scatterBand(0);
  } else {
    parallel::WorkerPool pool(bands);
    pool.run(searchBand);
    layOut();
    pool.run(scatterBand);
  }
  return Graph::fromCsr(std::move(offsets), std::move(targets));
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
