#include "graph/geometry.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "graph/sort_neighbors.hpp"
#include "parallel/spin_team.hpp"
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

Graph unitDiskGraph(const std::vector<Point>& points, double radius,
                    VertexOrder order) {
  return detail::unitDiskGraph(
      points, radius, parallel::workersFor(points.size(), kUnitDiskGrain),
      order);
}

namespace detail {

Graph unitDiskGraph(const std::vector<Point>& points, double radius,
                    std::size_t bands, VertexOrder order) {
  const std::size_t n = points.size();
  const double r2 = radius * radius;

  // Spatial hashing: bucket the unit square into cells at least `radius`
  // wide, so every in-range pair lives in the same or an adjacent cell.
  // Expected cost is O(n + m) instead of the all-pairs O(n^2), which is what
  // makes 10^6-node geometric topologies practical. The 1e-9 margin keeps
  // cells wide enough after rounding: with side * radius == 1, a point one
  // ulp below a cell edge and its partner at distance exactly `radius` could
  // land two cells apart. The sqrt(n) cap keeps the cell count O(n) for tiny
  // radii (wider cells only add candidates). Small inputs (and radii the
  // grid cannot help with) get one cell, which is the all-pairs comparison:
  // building a grid would cost more than it saves.
  std::size_t side = 1;
  if (n >= 256 && radius > 0.0 && radius < 0.5) {
    const double cap = std::ceil(std::sqrt(static_cast<double>(n)));
    side = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::min((1.0 - 1e-9) / radius, cap)));
  }
  // Counting sort of vertices into cells (CSR layout: cellStart +
  // members), with the coordinates copied into the same cell order so
  // every neighbor search below reads contiguous memory; it runs at the
  // build's width. In Space order slot i is vertex i and members become
  // its labels.
  bands = std::clamp<std::size_t>(bands, 1, side);
  CellSort cells = sortIntoCells(points, side, bands);
  const std::vector<std::size_t>& cellStart = cells.cellStart;
  Graph::Labels& members = cells.members;
  const BulkVector<Point>& sorted = cells.sorted;

  // Band b covers cell rows [b·side/bands, (b+1)·side/bands). Each vertex
  // searches its full 3x3 block of cells (a row of the block is consecutive
  // cells, hence one contiguous run of `sorted`). The build makes two
  // passes over the bands: the first counts each slot's in-range
  // candidates into its vertex's CSR offset, the second searches again and
  // writes each sorted list into its vertex's slice of the targets. Bands
  // write disjoint offsets and slices, and the Graph's CSR is the only
  // adjacency ever held.
  // The count pass takes the order as a tag and each order has its own
  // fill pass, so the point-order loops stay as they were: a runtime branch
  // or a search shared by both fills measured ~5% slower on the point-order
  // build at 10^6.
  using SpaceTag = std::true_type;
  using PointsTag = std::false_type;
  // The CSR vertex of slot i.
  const auto vertexAt = [&](auto tag, std::size_t i) -> Vertex {
    if constexpr (decltype(tag)::value) {
      return static_cast<Vertex>(i);
    } else {
      return members[i];
    }
  };
  const auto rowOf = [&](std::size_t b) { return b * side / bands; };
  // The count pass writes every vertex's degree into offsets[v + 1], so
  // offsets, like the slices, are sized unwritten. The slices are narrow
  // (Graph::Deltas) when every |w − v| fits, wide (Graph::Targets)
  // otherwise, and only the one width is ever allocated.
  Graph::Offsets offsets(n + 1);
  offsets[0] = 0;
  Graph::Targets targets;
  Graph::Deltas deltas;
  // Calls visit(slot, first, last) for every slot of band b, where the
  // slot's candidates are the runs [first[y], last[y]) of `sorted`, one per
  // row y of its 3x3 block (rows beyond the block are empty runs).
  const auto forEachSlot = [&](std::size_t b, const auto& visit) {
    std::size_t first[3] = {0, 0, 0};
    std::size_t last[3] = {0, 0, 0};
    for (std::size_t cy = rowOf(b); cy < rowOf(b + 1); ++cy) {
      const std::size_t y0 = cy == 0 ? 0 : cy - 1;
      const std::size_t y1 = std::min(cy + 1, side - 1);
      for (std::size_t cx = 0; cx < side; ++cx) {
        const std::size_t x0 = cx == 0 ? 0 : cx - 1;
        const std::size_t x1 = std::min(cx + 1, side - 1);
        for (std::size_t y = y0, k = 0; k < 3; ++k, ++y) {
          first[k] = y <= y1 ? cellStart[y * side + x0] : 0;
          last[k] = y <= y1 ? cellStart[y * side + x1 + 1] : 0;
        }
        const std::size_t c = cy * side + cx;
        for (std::size_t i = cellStart[c]; i < cellStart[c + 1]; ++i) {
          visit(i, first, last);
        }
      }
    }
  };
  // In Space order the count pass also bounds |w − v| for the band: slot
  // i finds its neighbours among its candidate runs, so the farthest end
  // of a non-empty run from i bounds the distance to any of them.
  std::vector<std::size_t> spans(bands, 0);
  const auto countBand = [&](auto tag, std::size_t b) {
    std::size_t span = 0;
    forEachSlot(b, [&](std::size_t i, const std::size_t* first,
                       const std::size_t* last) {
      if constexpr (decltype(tag)::value) {
        std::size_t lo = i;
        std::size_t hi = i + 1;
        for (std::size_t y = 0; y < 3; ++y) {
          if (first[y] < last[y]) {
            lo = std::min(lo, first[y]);
            hi = std::max(hi, last[y]);
          }
        }
        span = std::max({span, i - lo, hi - 1 - i});
      }
      // The slot is among its own candidates; its comparison with itself
      // is taken back out after the loop, which keeps the loop a plain sum.
      const Point p = sorted[i];
      std::size_t k = 0;
      for (std::size_t y = 0; y < 3; ++y) {
        for (std::size_t j = first[y]; j < last[y]; ++j) {
          k += static_cast<std::size_t>(squaredDistance(p, sorted[j]) <= r2);
        }
      }
      k -= static_cast<std::size_t>(squaredDistance(p, p) <= r2);
      offsets[vertexAt(tag, i) + 1] = k;
    });
    if constexpr (decltype(tag)::value) spans[b] = span;
  };
  // Both fill passes filter branch-free: every candidate is written and the
  // in-range ones (about a third of the block, in no predictable pattern)
  // are kept. Space order: slots are vertices, so a slot's candidates are
  // three ascending runs of vertices and its list comes out sorted, and a
  // band's slices are one contiguous run of the targets, written in order.
  // The filter may write one slot past a list, which could be the next
  // band's, so it writes to a scratch list that is copied into the slice.
  // Entries are encoded as they are written: w − i for a narrow slice.
  const auto fillSpaceBand = [&](auto entry, std::size_t b) {
    using Entry = decltype(entry);
    Entry* const entries = [&] {
      if constexpr (std::is_same_v<Entry, Delta>) {
        return deltas.data();
      } else {
        return targets.data();
      }
    }();
    std::vector<Entry> scratch;
    forEachSlot(b, [&](std::size_t i, const std::size_t* first,
                       const std::size_t* last) {
      const std::size_t block =
          (last[0] - first[0]) + (last[1] - first[1]) + (last[2] - first[2]);
      if (scratch.size() < block) scratch.resize(block);
      const Point p = sorted[i];
      std::size_t k = 0;
      for (std::size_t y = 0; y < 3; ++y) {
        for (std::size_t j = first[y]; j < last[y]; ++j) {
          scratch[k] = encodeEntry<Entry>(static_cast<Vertex>(i),
                                          static_cast<Vertex>(j));
          k += static_cast<std::size_t>(
              (j != i) & (squaredDistance(p, sorted[j]) <= r2));
        }
      }
      assert(k == offsets[i + 1] - offsets[i]);
      std::copy_n(scratch.data(), k, entries + offsets[i]);
    });
  };
  // Points order: band b's lists are staged in a chunk of about kFillChunk
  // entries and copied into their slices a chunk at a time. Copying each
  // list into its slice (at a random place: slots are in cell order, slices
  // in point order) as soon as it is sorted interleaves those store misses
  // with the search, which measured 0.4 s slower on one band at 10^6.
  constexpr std::size_t kFillChunk = 2048;
  const auto fillPointsBand = [&](std::size_t b) {
    std::vector<Vertex> chunk;
    std::size_t used = 0;
    std::vector<std::size_t> staged;  // the chunk's slots, in order
    const auto flush = [&] {
      const Vertex* list = chunk.data();
      for (const std::size_t i : staged) {
        const Vertex v = members[i];
        const std::size_t degree = offsets[v + 1] - offsets[v];
        std::copy_n(list, degree, targets.data() + offsets[v]);
        list += degree;
      }
      used = 0;
      staged.clear();
    };
    forEachSlot(b, [&](std::size_t i, const std::size_t* first,
                       const std::size_t* last) {
      const std::size_t block =
          (last[0] - first[0]) + (last[1] - first[1]) + (last[2] - first[2]);
      if (chunk.size() < used + block) chunk.resize(used + block);
      Vertex* const out = chunk.data() + used;
      const Point p = sorted[i];
      std::size_t k = 0;
      for (std::size_t y = 0; y < 3; ++y) {
        for (std::size_t j = first[y]; j < last[y]; ++j) {
          out[k] = members[j];
          k += static_cast<std::size_t>(
              (j != i) & (squaredDistance(p, sorted[j]) <= r2));
        }
      }
      assert(k == offsets[members[i] + 1] - offsets[members[i]]);
      sortNeighbors(out, k);
      used += k;
      staged.push_back(i);
      if (used >= kFillChunk) flush();
    });
    flush();
  };
  // Sizing leaves the slices unwritten: the fill pass writes every slot,
  // so its bands take the page faults in parallel.
  const auto layOut = [&](bool narrow) {
    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    if (narrow) {
      deltas.resize(offsets[n]);
    } else {
      targets.resize(offsets[n]);
    }
  };
  // Index t runs band t; a single band runs inline.
  if (order == VertexOrder::Space && side > 1) {
    parallel::team().run(bands,
                         [&](std::size_t b) { countBand(SpaceTag{}, b); });
    const bool narrow =
        *std::max_element(spans.begin(), spans.end()) <=
        static_cast<std::size_t>(kMaxDelta);
    layOut(narrow);
    if (narrow) {
      parallel::team().run(
          bands, [&](std::size_t b) { fillSpaceBand(Delta{}, b); });
      return Graph::fromDeltas(std::move(offsets), std::move(deltas),
                               std::move(members));
    }
    parallel::team().run(bands,
                         [&](std::size_t b) { fillSpaceBand(Vertex{}, b); });
    return Graph::fromCsr(std::move(offsets), std::move(targets),
                          std::move(members));
  }
  // Point order builds 4-byte targets and fromCsr decides the width:
  // above 2^15 vertices neighbours are numbered at random, so it finds a
  // misfit in its first slices.
  parallel::team().run(bands,
                       [&](std::size_t b) { countBand(PointsTag{}, b); });
  layOut(false);
  parallel::team().run(bands, fillPointsBand);
  return Graph::fromCsr(std::move(offsets), std::move(targets));
}

CellSort sortIntoCells(const std::vector<Point>& points, std::size_t side,
                       std::size_t workers) {
  const std::size_t n = points.size();
  const std::size_t cellCount = side * side;
  const auto scale = static_cast<double>(side);
  const auto axisCell = [&](double t) {
    return static_cast<std::size_t>(std::clamp(t * scale, 0.0, scale - 1.0));
  };
  const auto cellOf = [&](const Point& p) {
    return axisCell(p.y) * side + axisCell(p.x);
  };
  workers = std::max<std::size_t>(workers, 1);
  const auto first = [&](std::size_t t) { return t * n / workers; };
  CellSort out;
  out.cellStart.resize(cellCount + 1);
  out.members.resize(n);
  out.sorted.resize(n);
  // Row t counts worker t's points per cell, then holds its next slot in
  // each cell. Slots fit a Vertex, as every vertex number does.
  BulkVector<Vertex> rows(workers * cellCount);
  parallel::team().run(workers, [&](std::size_t t) {
    Vertex* const count = rows.data() + t * cellCount;
    std::fill_n(count, cellCount, Vertex{0});
    for (std::size_t v = first(t); v < first(t + 1); ++v) {
      ++count[cellOf(points[v])];
    }
  });
  // Cell-major, worker-minor: worker t's run in cell c follows the runs of
  // workers before it, so the scatter below is the serial stable sort.
  std::size_t next = 0;
  for (std::size_t c = 0; c < cellCount; ++c) {
    out.cellStart[c] = next;
    for (std::size_t t = 0; t < workers; ++t) {
      Vertex& slot = rows[t * cellCount + c];
      const Vertex count = slot;
      slot = static_cast<Vertex>(next);
      next += count;
    }
  }
  out.cellStart[cellCount] = next;
  // The scatter takes the page faults of members and sorted, which are
  // sized unwritten.
  parallel::team().run(workers, [&](std::size_t t) {
    Vertex* const cursor = rows.data() + t * cellCount;
    for (std::size_t v = first(t); v < first(t + 1); ++v) {
      const Point p = points[v];
      const Vertex i = cursor[cellOf(p)]++;
      out.members[i] = static_cast<Vertex>(v);
      out.sorted[i] = p;
    }
  });
  return out;
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
