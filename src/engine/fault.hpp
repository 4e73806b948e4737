// Fault injection and adversarial initial configurations.
//
// Self-stabilization means convergence from *every* configuration — whether
// it arose from transient memory corruption, message garbling, or topology
// churn. These helpers manufacture such configurations: uniformly random
// states, targeted corruption of a stabilized configuration, and (for small
// graphs) exhaustive enumeration of the full configuration space, which gives
// exact worst-case round counts for the bound checks of Theorems 1 and 2.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace selfstab::engine {

// Samplers and labelled graphs. A sampler is called with an internal
// vertex v of g; on a labelled graph (Graph::labels()) it draws in the
// external frame: a vertex-valued field holds an external number, and a
// draw among v's neighbours ranks them by label. The helpers below visit
// nodes in label order and translate what the sampler drew, so a labelled
// graph gets the configuration its unlabelled twin would, renumbered, from
// the same RNG draws.

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

/// sampler(v, g, rng) in g's internal frame; `byLabel` is g's inverse
/// labels, empty for an unlabelled graph.
template <typename State, typename Sampler>
State sampleInternal(Sampler& sampler, graph::Vertex v, const graph::Graph& g,
                     Rng& rng, std::span<const graph::Vertex> byLabel) {
  State s = sampler(v, g, rng);
  toInternalFrame(s, byLabel);
  return s;
}

/// Builds a configuration by sampling each node's state independently, in
/// label order (see above).
/// Sampler signature: State(graph::Vertex v, const graph::Graph& g, Rng&).
template <typename State, typename Sampler>
std::vector<State> randomConfiguration(const graph::Graph& g, Rng& rng,
                                       Sampler sampler) {
  const std::vector<graph::Vertex> byLabel = graph::vertexByLabel(g);
  std::vector<State> states(g.order());
  for (graph::Vertex x = 0; x < g.order(); ++x) {
    const graph::Vertex v = byLabel.empty() ? x : byLabel[x];
    states[v] = sampleInternal<State>(sampler, v, g, rng, byLabel);
  }
  return states;
}

/// Resamples each node's state independently with probability `fraction`
/// (a transient-fault burst hitting a random subset of nodes), visiting
/// nodes in label order. Returns the number of nodes corrupted.
template <typename State, typename Sampler>
std::size_t corruptConfiguration(std::vector<State>& states,
                                 const graph::Graph& g, Rng& rng,
                                 double fraction, Sampler sampler) {
  const std::vector<graph::Vertex> byLabel = graph::vertexByLabel(g);
  std::size_t corrupted = 0;
  for (graph::Vertex x = 0; x < states.size(); ++x) {
    const graph::Vertex v = byLabel.empty() ? x : byLabel[x];
    if (rng.chance(fraction)) {
      states[v] = sampleInternal<State>(sampler, v, g, rng, byLabel);
      ++corrupted;
    }
  }
  return corrupted;
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
