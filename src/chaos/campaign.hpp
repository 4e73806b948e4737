// Round-indexed fault campaigns over the abstract synchronous executor.
//
// runEngineCampaign drives a SyncRunner (at any thread count) through a
// FaultPlan: it steps the runner round by round, applies each FaultEvent at
// its round index, and measures recovery with chaos/monitors.hpp. The
// executor-visible model is the paper's:
//
//  * corrupt/garble  resample states behind the runner's back, then
//                    invalidateSchedule() so active-set dirty bits stay
//                    correct (the same contract as engine::corruptAndReschedule);
//  * crash           the node is isolated (its incident edges are removed
//                    from the shared Graph — Graph::version() makes the
//                    runner re-snapshot) and frozen: it executes nothing
//                    until it rejoins with a fresh initial state;
//  * partition       cross-side edges are masked out of the shared Graph,
//                    restored at heal;
//  * stuck           the node's state is pinned (any move the protocol
//                    makes for it is reverted before the next round), but
//                    neighbors keep seeing the frozen state — Byzantine-lite;
//  * loss_burst /    beacon-model-only faults: logged no-ops here (the
//    clock_drift     abstract model has no radio or clocks).
//
// Recovery per event is *masked stability*: every node that is not crashed
// or stuck has no enabled rule (Protocol::isStable), evaluated on the
// effective topology. For SMM/SIS that implies the paper predicate restricted
// to live nodes; once the plan ends clean it coincides with the global
// fixpoint, which the campaign then verifies.
//
// Determinism: all campaign randomness comes from a dedicated Rng seeded by
// `chaosSeed`, so the same (plan, seeds, executor schedule) replays
// bit-identically at every thread count.
//
// Cost follows the change, not n. A round in which the runner moved nothing
// and no event fired since the previous round is the identity: nothing to
// pin, diff, safety-check or report, so it costs the runner's step alone. A
// moving round makes one O(n) diff into a `moved` list, which feeds the
// monitor and the masked-stability cache. For local protocols (see
// Protocol::readsBeyondNeighborhood) that cache re-asks only the closed
// neighborhoods of moved, injected and newly frozen or released nodes; a
// topology rebuild (crash, rejoin, partition) forces a full sweep, and
// non-local protocols always get one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "chaos/monitors.hpp"
#include "chaos/plan.hpp"
#include "engine/protocol.hpp"
#include "engine/view_builder.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace selfstab::chaos {

struct CampaignResult {
  std::size_t roundsExecuted = 0;
  std::size_t totalMoves = 0;
  std::size_t safetyViolations = 0;
  bool recoveredAll = true;   ///< every fault window reached masked stability
  bool finalFixpoint = false; ///< global fixpoint after the plan played out
};

/// Drives `runner` (constructed over this same `g`, `ids`) through `plan`.
/// `states` is the live configuration, mutated in place. `recoveryBudget`
/// caps each fault's recovery window and the final drain (0 = 2n+8, the
/// template gap). `sampler(v, g, rng)` supplies corrupted states. `monitor`
/// and `safety` may be null/empty. `safety` runs only on rounds that changed
/// some state (identity transitions are violation-free by SafetyCheck's
/// contract); `monitor` sees `g` as each window's topology, which stays
/// unchanged until the window closes.
template <typename State, typename Runner, typename Sampler>
CampaignResult runEngineCampaign(
    Runner& runner, const engine::Protocol<State>& protocol, graph::Graph& g,
    const graph::IdAssignment& ids, std::vector<State>& states,
    const FaultPlan& plan, std::uint64_t chaosSeed,
    std::size_t recoveryBudget, Sampler sampler,
    RecoveryMonitor* monitor = nullptr,
    const SafetyCheck<State>& safety = nullptr) {
  const std::size_t n = g.order();
  validatePlan(plan, n);
  if (recoveryBudget == 0) recoveryBudget = 2 * n + 8;

  CampaignResult result;
  const graph::Graph base = g;
  Rng chaosRng(chaosSeed);
  engine::ViewBuilder<State> builder(g, ids);

  std::vector<std::uint8_t> crashed(n, 0);  // isolated in the topology
  std::vector<std::uint8_t> frozen(n, 0);   // executes nothing (crash|stuck)
  std::vector<graph::Vertex> frozenList;    // {v : frozen[v]}, any order
  std::vector<std::uint8_t> side(n, 0);
  std::vector<std::uint8_t> faulty(n, 0);   // frozen or in the open window
  std::vector<State> frozenState(states);
  bool partitionActive = false;

  // Nodes whose closed neighborhoods must be re-asked for masked stability;
  // a topology rebuild asks everyone.
  std::vector<graph::Vertex> touched;
  std::vector<std::uint8_t> isTouched(n, 0);
  bool sweepAll = true;
  const auto touch = [&](graph::Vertex v) {
    if (isTouched[v] != 0) return;
    isTouched[v] = 1;
    touched.push_back(v);
  };

  const auto setFrozen = [&](graph::Vertex v, bool on) {
    if ((frozen[v] != 0) == on) return;
    frozen[v] = on ? 1 : 0;
    if (on) {
      frozenList.push_back(v);
    } else {
      frozenList.erase(std::find(frozenList.begin(), frozenList.end(), v));
    }
    touch(v);
  };

  // Syncs the shared Graph to base minus crashed-incident and cross-side
  // edges. Rebuilding bumps Graph::version(), which makes the runner (and
  // `builder`) refresh their mirrors before the next round.
  const auto rebuildEffective = [&] {
    g.clearEdges();
    for (const auto& e : base.edges()) {
      if (crashed[e.u] != 0 || crashed[e.v] != 0) continue;
      if (partitionActive && side[e.u] != side[e.v]) continue;
      g.addEdge(e.u, e.v);
    }
    runner.invalidateSchedule();
    sweepAll = true;
  };

  // Masked stability: no live (non-frozen) node has an enabled rule. For
  // local protocols unstable[v] caches v's verdict and unstableCount their
  // number; a verdict depends only on N[v]'s states, v's frozen status and
  // the topology, so only N[touched] is re-asked between rebuilds.
  const bool local = !protocol.readsBeyondNeighborhood();
  std::vector<std::uint8_t> unstable(n, 0);
  std::size_t unstableCount = 0;
  const auto maskedStable = [&] {
    const std::uint64_t key = runner.roundKey(runner.round());
    const auto enabled = [&](graph::Vertex v) {
      return frozen[v] == 0 &&
             !protocol.isStable(builder.build(v, states, key));
    };
    const auto recheck = [&](graph::Vertex v) {
      const bool bad = enabled(v);
      if (bad == (unstable[v] != 0)) return;
      unstable[v] = bad ? 1 : 0;
      unstableCount = bad ? unstableCount + 1 : unstableCount - 1;
    };
    // Close the touched set over neighborhoods, then re-ask it.
    const bool incremental = local && !sweepAll;
    if (incremental) {
      const std::size_t seeds = touched.size();
      for (std::size_t i = 0; i < seeds; ++i) {
        for (const graph::Vertex w : g.neighbors(touched[i])) touch(w);
      }
    }
    for (const graph::Vertex v : touched) {
      isTouched[v] = 0;
      if (incremental) recheck(v);
    }
    touched.clear();
    if (!local) {
      for (graph::Vertex v = 0; v < n; ++v) {
        if (enabled(v)) return false;
      }
      return true;
    }
    if (sweepAll) {
      sweepAll = false;
      for (graph::Vertex v = 0; v < n; ++v) recheck(v);
    }
    return unstableCount == 0;
  };

  // prev is S_t of the round being stepped; it is kept equal to `states`
  // between rounds by patching moved slots, and recopied only after an
  // event edits states behind its back.
  std::vector<State> prev;
  std::vector<graph::Vertex> moved;
  bool prevStale = true;
  const auto stepOnce = [&] {
    if (prevStale) prev = states;
    const std::size_t moves = runner.step(states);
    result.totalMoves += moves;
    ++result.roundsExecuted;
    // Nothing moved and nothing happened since the last round: frozen nodes
    // are still pinned and prev == states, so the transition is the
    // identity — no pins, no safety violations, no state changes to report.
    if (moves == 0 && !prevStale) return;
    prevStale = false;
    // Pin frozen nodes: a crashed node executes nothing, a stuck node keeps
    // beaconing its frozen state. Reverting before anyone reads S_{t+1}
    // keeps the move invisible under the synchronous model. Right after an
    // event this also reverts a frozen node the event corrupted.
    bool reverted = false;
    for (const graph::Vertex v : frozenList) {
      if (!(states[v] == frozenState[v])) {
        states[v] = frozenState[v];
        reverted = true;
      }
    }
    if (reverted) runner.invalidateSchedule();
    moved.clear();
    for (graph::Vertex v = 0; v < n; ++v) {
      if (!(states[v] == prev[v])) moved.push_back(v);
    }
    if (moved.empty()) return;
    if (safety) {
      const std::size_t violations = safety(g, prev, states, faulty);
      result.safetyViolations += violations;
      if (monitor != nullptr) monitor->onSafetyViolations(violations);
    }
    for (const graph::Vertex v : moved) {
      if (monitor != nullptr) monitor->onStateChanged(v);
      touch(v);
      prev[v] = states[v];
    }
  };

  // Endpoints of edges a partition mask change cuts or restores: the nodes
  // whose views the event directly touches.
  const auto boundaryNodes = [&] {
    std::vector<std::uint8_t> hit(n, 0);
    for (const auto& e : base.edges()) {
      if (crashed[e.u] != 0 || crashed[e.v] != 0) continue;
      if (side[e.u] != side[e.v]) hit[e.u] = hit[e.v] = 1;
    }
    std::vector<graph::Vertex> out;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (hit[v] != 0) out.push_back(v);
    }
    return out;
  };

  const auto applyEvent = [&](const FaultEvent& ev) {
    std::vector<graph::Vertex> injected;
    switch (ev.kind) {
      case FaultKind::Corrupt:
        if (!ev.nodes.empty()) {
          for (const graph::Vertex v : ev.nodes) {
            states[v] = sampler(v, g, chaosRng);
            injected.push_back(v);
          }
        } else {
          for (graph::Vertex v = 0; v < n; ++v) {
            if (chaosRng.chance(ev.fraction)) {
              states[v] = sampler(v, g, chaosRng);
              injected.push_back(v);
            }
          }
        }
        for (const graph::Vertex v : injected) touch(v);
        runner.invalidateSchedule();
        break;
      case FaultKind::Garble:
        // No payloads to garble in the abstract model; the nearest fault is
        // one corrupted state snapshot at the garbled node.
        states[ev.node] = sampler(ev.node, g, chaosRng);
        injected.push_back(ev.node);
        touch(ev.node);
        runner.invalidateSchedule();
        break;
      case FaultKind::Crash:
        crashed[ev.node] = 1;
        setFrozen(ev.node, true);
        frozenState[ev.node] = states[ev.node];
        rebuildEffective();
        injected.push_back(ev.node);
        break;
      case FaultKind::Rejoin:
        crashed[ev.node] = 0;
        setFrozen(ev.node, false);
        states[ev.node] = protocol.initialState(ev.node);
        rebuildEffective();
        injected.push_back(ev.node);
        break;
      case FaultKind::PartitionCut:
        std::fill(side.begin(), side.end(), 0);
        for (const graph::Vertex v : ev.nodes) side[v] = 1;
        injected = boundaryNodes();
        partitionActive = true;
        rebuildEffective();
        break;
      case FaultKind::PartitionHeal:
        injected = boundaryNodes();  // side[] still holds the healed cut
        partitionActive = false;
        rebuildEffective();
        break;
      case FaultKind::Stuck:
        setFrozen(ev.node, true);
        frozenState[ev.node] = states[ev.node];
        injected.push_back(ev.node);
        break;
      case FaultKind::Release:
        setFrozen(ev.node, false);
        injected.push_back(ev.node);
        runner.invalidateSchedule();
        break;
      case FaultKind::LossBurst:
      case FaultKind::ClockDrift:
        break;  // beacon-model-only; nothing to do under the abstract engine
    }
    prevStale = true;
    return injected;
  };

  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& ev = plan.events[i];
    while (static_cast<std::int64_t>(result.roundsExecuted) < ev.at) {
      stepOnce();
    }
    const std::vector<graph::Vertex> injected = applyEvent(ev);
    for (const graph::Vertex v : injected) faulty[v] = 1;
    if (monitor != nullptr) monitor->onFault(ev.at, ev.kind, injected, g);

    // Recovery window: until masked stability, the next event, or budget.
    std::int64_t limit = ev.at + static_cast<std::int64_t>(recoveryBudget);
    if (i + 1 < plan.events.size()) {
      limit = std::min(limit, plan.events[i + 1].at);
    }
    bool recovered = maskedStable();
    while (!recovered &&
           static_cast<std::int64_t>(result.roundsExecuted) < limit) {
      stepOnce();
      recovered = maskedStable();
    }
    const auto rounds = static_cast<std::size_t>(
        static_cast<std::int64_t>(result.roundsExecuted) - ev.at);
    if (monitor != nullptr) monitor->onRecovered(rounds, recovered);
    result.recoveredAll = result.recoveredAll && recovered;
    for (const graph::Vertex v : injected) faulty[v] = frozen[v];
  }

  // Drain to a true global fixpoint (or masked stability, if the plan left
  // nodes crashed or stuck — templates never do).
  const bool anyFrozen = !frozenList.empty();
  const auto finalStable = [&] {
    return anyFrozen ? maskedStable() : runner.isFixpoint(states);
  };
  std::size_t extra = 0;
  result.finalFixpoint = finalStable();
  while (!result.finalFixpoint && extra < recoveryBudget) {
    stepOnce();
    ++extra;
    result.finalFixpoint = finalStable();
  }
  return result;
}

}  // namespace selfstab::chaos
