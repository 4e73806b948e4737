// Fault injection and adversarial initial configurations.
//
// Self-stabilization means convergence from *every* configuration — whether
// it arose from transient memory corruption, message garbling, or topology
// churn. These helpers manufacture such configurations: uniformly random
// states, targeted corruption of a stabilized configuration, and (for small
// graphs) exhaustive enumeration of the full configuration space, which gives
// exact worst-case round counts for the bound checks of Theorems 1 and 2.
// Random states and corruption draw per node from keyed streams (below), so
// they run in storage order on the team and give the same configuration at
// every width and in every storage order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rng.hpp"
#include "parallel/spin_team.hpp"
#include "parallel/workers.hpp"

namespace selfstab::engine {

// Keyed draws. Every node draws from an Rng of its own, seeded by a key
// and the node's external number (Graph::labelOf): a counter-based stream
// in the sense of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
// 3" (SC 2011). What a node draws therefore depends neither on the order
// nodes are visited in nor on their storage numbers, so the helpers below
// visit nodes in storage order on parallel::team(). A sampler is called
// with an internal vertex v of g and v's own Rng; on a labelled graph
// (Graph::labels()) it draws in the external frame: a vertex-valued field
// holds an external number, which toInternalFrame translates. A labelled
// graph thus gets the configuration its unlabelled twin would, renumbered,
// from the same caller's Rng.

namespace detail {
struct VertexFieldProbe {
  void operator()(graph::Vertex&) const noexcept {}
};
}  // namespace detail

/// True if State declares vertex-valued fields: a state type names them
/// with a hidden friend `mapVertices(State&, fn)` that calls
/// fn(graph::Vertex&) on each; types without one hold no vertex.
template <typename State>
inline constexpr bool kHoldsVertices =
    requires(State& s) { mapVertices(s, detail::VertexFieldProbe{}); };

/// Translates a state drawn in the external frame into the internal one:
/// every vertex-valued field x < n becomes byLabel[x] (graph::vertexByLabel).
template <typename State>
void toInternalFrame(State& s, std::span<const graph::Vertex> byLabel) {
  if constexpr (kHoldsVertices<State>) {
    mapVertices(s, [&](graph::Vertex& x) {
      if (x < byLabel.size()) x = byLabel[x];
    });
  }
}

/// True if Sampler already draws in the internal frame: it declares
/// `static constexpr bool kInternalFrame = true` (core::RandomPointer), and
/// its states are used as drawn.
template <typename Sampler>
inline constexpr bool kDrawsInternal =
    requires { requires Sampler::kInternalFrame; };

/// What toInternalFrame needs for State drawn by Sampler (by default, one
/// that draws externally) on g: g's inverse labels if State holds
/// vertices, Sampler draws externally and g is labelled, else nothing.
template <typename State, typename Sampler = void>
std::vector<graph::Vertex> frameFor(const graph::Graph& g) {
  if constexpr (kHoldsVertices<State> && !kDrawsInternal<Sampler>) {
    return graph::vertexByLabel(g);
  }
  return {};
}

/// The Rng node v draws from under `key`.
inline Rng nodeRng(std::uint64_t key, const graph::Graph& g, graph::Vertex v) {
  return Rng(hashCombine(key, g.labelOf(v)));
}

/// sampler(v, g, rng) in g's internal frame; `byLabel` is
/// frameFor<State, Sampler>.
template <typename State, typename Sampler>
State sampleInternal(Sampler& sampler, graph::Vertex v, const graph::Graph& g,
                     Rng& rng, std::span<const graph::Vertex> byLabel) {
  State s = sampler(v, g, rng);
  if constexpr (!kDrawsInternal<Sampler>) toInternalFrame(s, byLabel);
  return s;
}

/// Nodes per worker of a keyed draw over the whole graph.
inline constexpr std::size_t kSampleGrain = 4096;

namespace detail {

inline constexpr std::size_t kSampleBlock = 1024;

/// Every node's state drawn under `key`, at width `width`.
template <typename State, typename Sampler>
std::vector<State> randomConfiguration(const graph::Graph& g,
                                       std::uint64_t key, Sampler& sampler,
                                       std::size_t width) {
  const std::vector<graph::Vertex> byLabel = frameFor<State, Sampler>(g);
  std::vector<State> states(g.order());
  parallel::forEachBlock(
      width, g.order(), kSampleBlock, [&](std::size_t b, std::size_t e) {
        for (auto v = static_cast<graph::Vertex>(b); v < e; ++v) {
          Rng rng = nodeRng(key, g, v);
          states[v] = sampleInternal<State>(sampler, v, g, rng, byLabel);
        }
      });
  return states;
}

/// Resamples, under `key` at width `width`, each node whose own Rng's
/// first draw, chance(fraction), hits; the state is drawn from the same
/// Rng. Returns the resampled nodes, ascending.
template <typename State, typename Sampler>
std::vector<graph::Vertex> corruptFraction(
    std::vector<State>& states, const graph::Graph& g, std::uint64_t key,
    double fraction, Sampler& sampler, std::span<const graph::Vertex> byLabel,
    std::size_t width) {
  std::vector<std::uint8_t> hit(states.size(), 0);
  parallel::forEachBlock(
      width, states.size(), kSampleBlock, [&](std::size_t b, std::size_t e) {
        for (auto v = static_cast<graph::Vertex>(b); v < e; ++v) {
          Rng rng = nodeRng(key, g, v);
          if (!rng.chance(fraction)) continue;
          states[v] = sampleInternal<State>(sampler, v, g, rng, byLabel);
          hit[v] = 1;
        }
      });
  std::vector<graph::Vertex> corrupted;
  for (graph::Vertex v = 0; v < hit.size(); ++v) {
    if (hit[v] != 0) corrupted.push_back(v);
  }
  return corrupted;
}

}  // namespace detail

/// Builds a configuration by sampling each node's state independently
/// under one draw of `rng` (see above).
/// Sampler signature: State(graph::Vertex v, const graph::Graph& g, Rng&).
template <typename State, typename Sampler>
std::vector<State> randomConfiguration(const graph::Graph& g, Rng& rng,
                                       Sampler sampler) {
  return detail::randomConfiguration<State>(
      g, rng.next(), sampler,
      parallel::workersFor(g.order(), kSampleGrain));
}

/// Resamples each node's state independently with probability `fraction`
/// (a transient-fault burst hitting a random subset of nodes), under one
/// draw of `rng`. Returns the number of nodes corrupted.
template <typename State, typename Sampler>
std::size_t corruptConfiguration(std::vector<State>& states,
                                 const graph::Graph& g, Rng& rng,
                                 double fraction, Sampler sampler) {
  return detail::corruptFraction(
             states, g, rng.next(), fraction, sampler,
             frameFor<State, Sampler>(g),
             parallel::workersFor(states.size(), kSampleGrain))
      .size();
}

/// corruptConfiguration plus the announcement SyncRunner requires: a
/// transient fault changes states behind the runner's back, and
/// invalidateSchedule() makes its next round diff them and evaluate the
/// changed nodes' closed neighborhoods. Works with SyncRunner at any thread
/// count (and with runner wrappers exposing the same call).
template <typename Runner, typename State, typename Sampler>
std::size_t corruptAndReschedule(Runner& runner, std::vector<State>& states,
                                 const graph::Graph& g, Rng& rng,
                                 double fraction, Sampler sampler) {
  const std::size_t corrupted =
      corruptConfiguration(states, g, rng, fraction, sampler);
  runner.invalidateSchedule();
  return corrupted;
}

/// Exhaustively enumerates the cartesian product of per-vertex candidate
/// state lists, invoking `callback(const std::vector<State>&)` once per
/// configuration. Intended for small graphs: the count is the product of the
/// candidate-list sizes. Callback returning void; enumeration is in odometer
/// order (vertex 0 varies fastest).
template <typename State, typename Callback>
void enumerateConfigurations(
    const std::vector<std::vector<State>>& candidates, Callback callback) {
  const std::size_t n = candidates.size();
  std::vector<std::size_t> index(n, 0);
  std::vector<State> config;
  config.reserve(n);
  for (const auto& options : candidates) {
    if (options.empty()) return;  // empty product
    config.push_back(options.front());
  }
  for (;;) {
    callback(const_cast<const std::vector<State>&>(config));
    std::size_t pos = 0;
    while (pos < n) {
      if (++index[pos] < candidates[pos].size()) {
        config[pos] = candidates[pos][index[pos]];
        break;
      }
      index[pos] = 0;
      config[pos] = candidates[pos][0];
      ++pos;
    }
    if (pos == n) return;
  }
}

/// Total number of configurations enumerateConfigurations would visit.
template <typename State>
std::size_t configurationCount(
    const std::vector<std::vector<State>>& candidates) {
  std::size_t total = 1;
  for (const auto& options : candidates) total *= options.size();
  return total;
}

/// Random topology churn: flips `count` uniformly random vertex pairs
/// (adds the edge if absent, removes it if present), modeling link
/// creation/failure due to host mobility (Section 2). When `keepConnected`
/// is set, a removal that would disconnect the graph is rolled back.
std::size_t perturbTopology(graph::Graph& g, Rng& rng, std::size_t count,
                            bool keepConnected);

}  // namespace selfstab::engine
