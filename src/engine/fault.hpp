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
#include <vector>

#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace selfstab::engine {

/// Builds a configuration by sampling each node's state independently.
/// Sampler signature: State(graph::Vertex v, const graph::Graph& g, Rng&).
template <typename State, typename Sampler>
std::vector<State> randomConfiguration(const graph::Graph& g, Rng& rng,
                                       Sampler sampler) {
  std::vector<State> states;
  states.reserve(g.order());
  for (graph::Vertex v = 0; v < g.order(); ++v) {
    states.push_back(sampler(v, g, rng));
  }
  return states;
}

/// Resamples each node's state independently with probability `fraction`
/// (a transient-fault burst hitting a random subset of nodes). Returns the
/// number of nodes corrupted.
template <typename State, typename Sampler>
std::size_t corruptConfiguration(std::vector<State>& states,
                                 const graph::Graph& g, Rng& rng,
                                 double fraction, Sampler sampler) {
  std::size_t corrupted = 0;
  for (graph::Vertex v = 0; v < states.size(); ++v) {
    if (rng.chance(fraction)) {
      states[v] = sampler(v, g, rng);
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
