// Round-indexed fault campaigns over the abstract synchronous executor.
//
// runEngineCampaign drives a SyncRunner (at any thread count) through a
// FaultPlan: it steps the runner round by round, applies each FaultEvent at
// its round index, and measures recovery with chaos/monitors.hpp. The
// executor-visible model is the paper's:
//
//  * corrupt/garble  resample states behind the runner's back, then name
//                    each slot that changed (SyncRunner::announce) so the
//                    runner's work set covers it;
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
// Determinism: all campaign randomness is keyed by `chaosSeed`: event i's
// corrupted states and its fraction draws come from each node's own
// stream, keyed by (chaosSeed, i, the node's external number; see
// engine/fault.hpp). So the same (plan, seeds, executor schedule) replays
// bit-identically at every thread count and in every storage order.
//
// Cost follows the change, not n. A round in which the runner moved nothing
// and no event fired since the previous round is the identity: nothing to
// pin, diff, safety-check or report, so it costs the runner's step alone. A
// moving round builds an exact `moved` list — from the runner's own moved
// list (SyncRunner::forEachMoved) plus the frozen nodes, minus those a
// revert put back, or by one O(n) diff for a runner that does not expose it
// — which feeds the safety check (SafetyCheck's moved-list form) and the
// monitor. Every state edit outside a round (a corruption, a rejoin's reset,
// a frozen node's revert) is named to the runner slot by slot, and only if
// the slot really changed, so the runner's work set is exactly the one an
// O(n) diff would find and `prev` is patched, never recopied.
//
// Masked stability is read off the runner. Every node outside its pending
// work set N[moved] ∪ N[edited] is disabled, so for a local protocol (see
// Protocol::readsBeyondNeighborhood) SyncRunner::liveEnabled evaluates that
// set through the installed kernel and stops at the first mover that is not
// frozen; a topology rebuild (crash, rejoin, partition) puts every node in
// the set. A non-local protocol gets SyncRunner::isFixpoint's sweep with the
// frozen mask, on the team. A runner without these calls (a wrapper that
// exposes only step and invalidateSchedule) gets invalidateSchedule() after
// edits and the campaign's own stale-verdict cache: for local protocols it
// re-asks only verdicts in the closed neighborhoods of moved, injected and
// newly frozen or released nodes, and only until it meets an enabled one.
//
// The topology is the caller's graph, edited in place: a crash, rejoin or
// partition rebuilds it from a base copy taken at the first such event, and
// the campaign rebuilds it to that base before it returns or throws.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "chaos/monitors.hpp"
#include "chaos/plan.hpp"
#include "engine/fault.hpp"
#include "engine/protocol.hpp"
#include "engine/view_builder.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"

namespace selfstab::chaos {

namespace detail {

/// Gives a campaign's base topology back to the caller's graph when the
/// campaign leaves, by return or by exception. Nothing to do if no event
/// ever took the copy.
class RestoreTopology {
 public:
  RestoreTopology(graph::Graph& g, std::optional<graph::Graph>& base) noexcept
      : g_(g), base_(base) {}
  RestoreTopology(const RestoreTopology&) = delete;
  RestoreTopology& operator=(const RestoreTopology&) = delete;
  ~RestoreTopology() {
    if (base_.has_value()) g_.rebuildFrom(std::move(*base_));
  }

 private:
  graph::Graph& g_;
  std::optional<graph::Graph>& base_;
};

}  // namespace detail

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
/// template gap). `sampler(v, g, rng)` supplies corrupted states (drawn in
/// the external frame on a labelled graph, as engine/fault.hpp describes;
/// the plan's vertices are internal ones). `monitor`
/// and `safety` may be null/empty. `safety` runs only on rounds that changed
/// some state (identity transitions are violation-free by SafetyCheck's
/// contract), over the round's moved list; `monitor` sees `g` as each
/// window's topology, which stays unchanged until the window closes. `g`
/// is the runner's topology during the campaign and holds its original
/// edges again when the campaign returns or throws.
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
  // The topology before any crash, rejoin or partition: `g` itself until
  // the first such event rebuilds it, so the copy is taken only then, and
  // given back to `g` however the campaign ends.
  std::optional<graph::Graph> baseCopy;
  const auto base = [&]() -> const graph::Graph& {
    if (!baseCopy.has_value()) baseCopy.emplace(g);
    return *baseCopy;
  };
  const detail::RestoreTopology restore{g, baseCopy};
  engine::ViewBuilder<State> builder(g, ids);

  // Sampled vertex fields are external numbers (see engine/fault.hpp); a
  // labelled g's inverse labels translate them. Built at the first event
  // that needs them.
  std::vector<graph::Vertex> byLabel;
  const auto frame = [&]() -> std::span<const graph::Vertex> {
    if (byLabel.empty()) byLabel = engine::frameFor<State, Sampler>(g);
    return byLabel;
  };
  // Event i's draws are keyed by (chaosSeed, i, the node's label).
  const auto corrupt = [&](std::uint64_t key, graph::Vertex v) {
    Rng rng = engine::nodeRng(key, g, v);
    states[v] = engine::sampleInternal<State>(sampler, v, g, rng, frame());
  };

  // A runner with the SyncRunner's own calls is told each edited slot
  // (announce), answers masked stability off its pending work set
  // (liveEnabled) and sweeps with a frozen mask (isFixpoint). Any other
  // runner gets invalidateSchedule() and the campaign's stale-verdict
  // cache below.
  constexpr bool fused = requires(Runner& r, const std::vector<State>& s,
                                  std::span<const std::uint8_t> mask,
                                  graph::Vertex v) {
    r.announce(v);
    { r.liveEnabled(s, mask) } -> std::convertible_to<bool>;
    { r.isFixpoint(s, mask) } -> std::convertible_to<bool>;
  };

  // Isolated in the topology, and partition sides: allocated by the first
  // crash, rejoin or partition, as the base copy is.
  std::vector<std::uint8_t> crashed;
  std::vector<std::uint8_t> side;
  const auto topologyMasks = [&] {
    if (crashed.size() == n) return;
    crashed.assign(n, 0);
    side.assign(n, 0);
  };
  std::vector<std::uint8_t> frozen(n, 0);   // executes nothing (crash|stuck)
  // {(v, its pinned state) : frozen[v]}, any order.
  std::vector<std::pair<graph::Vertex, State>> frozenList;
  std::vector<std::uint8_t> faulty(n, 0);   // frozen or in the open window
  bool partitionActive = false;

  // Nodes whose state or frozen status changed since masked stability was
  // last asked: their closed neighborhoods' verdicts are stale. A topology
  // rebuild makes every verdict stale. Kept for runners without liveEnabled.
  std::vector<graph::Vertex> touched;
  std::vector<std::uint8_t> isTouched(fused ? 0 : n, 0);
  bool sweepAll = true;
  const auto touch = [&](graph::Vertex v) {
    if constexpr (fused) return;
    if (isTouched[v] != 0) return;
    isTouched[v] = 1;
    touched.push_back(v);
  };

  // Pins v at its current state (again if already frozen), or releases it.
  const auto setFrozen = [&](graph::Vertex v, bool on) {
    const auto pin = std::find_if(frozenList.begin(), frozenList.end(),
                                  [&](const auto& p) { return p.first == v; });
    if (on && pin != frozenList.end()) pin->second = states[v];
    if ((frozen[v] != 0) == on) return;
    frozen[v] = on ? 1 : 0;
    if (on) {
      frozenList.emplace_back(v, states[v]);
    } else {
      frozenList.erase(pin);
    }
    touch(v);
  };

  // Syncs the shared Graph to base minus crashed-incident and cross-side
  // edges, filtering base's slices (still ascending, at base's width) into
  // a new CSR. It is rebuilt in place, so Graph::version() moves on and the
  // runner's and kernel's version-keyed caches see the change.
  const auto rebuildEffective = [&] {
    g.rebuildFrom(base(), [&](graph::Vertex u, graph::Vertex w) {
      return crashed[u] == 0 && crashed[w] == 0 &&
             (!partitionActive || side[u] == side[w]);
    });
    runner.invalidateSchedule();
    sweepAll = true;
  };

  // prev is what the runner last committed or was told of: S_t of the next
  // round once the edits since are flushed. Every edit of `states` outside
  // step() lists its slot in `edited`; a flush names each listed slot that
  // now differs from prev to the runner (a slot edited twice, or drawn back
  // to its old state, is named once or not at all) and patches prev, so
  // the runner's work sets are those an O(n) diff would find and prev is
  // never recopied.
  std::vector<State> prev = states;
  std::vector<graph::Vertex> edited;
  const auto flushEdits = [&] {
    bool changed = false;
    for (const graph::Vertex v : edited) {
      if (states[v] == prev[v]) continue;
      prev[v] = states[v];
      changed = true;
      if constexpr (fused) runner.announce(v);
    }
    edited.clear();
    if (!fused && changed) runner.invalidateSchedule();
  };

  // Masked stability: no live (non-frozen) node has an enabled rule. A
  // fused runner answers it: for a local protocol by evaluating its pending
  // work set through its kernel (every node outside it is disabled), for
  // any other by its fixpoint sweep with the frozen mask, on its team. The
  // first hands the runner the edits made since the last round, and its
  // next round then evaluates their neighborhoods even if a later edit in
  // the same round puts a slot back, which a diff at that round would not.
  // So when another event fires before the next round (`eventNext`), the
  // sweep answers instead: it reads `states` and leaves the runner alone.
  //
  // Otherwise, for local protocols unstable[v] caches v's verdict and
  // unstableCount their number; a verdict depends only on N[v]'s states, v's
  // frozen status and the topology, so only verdicts in N[touched] go stale.
  // Stale verdicts wait in `stale` and are re-asked only as far as the
  // answer needs: a fresh "unstable" verdict anywhere answers no at once,
  // and so does the first re-asked node found enabled; the rest wait for
  // the next ask. A node is re-asked at most once per time it goes stale,
  // so this never asks more than re-asking all of N[touched] on every call
  // would.
  const bool local = !protocol.readsBeyondNeighborhood();
  std::vector<std::uint8_t> unstable(fused ? 0 : n, 0);
  std::size_t unstableCount = 0;
  std::vector<graph::Vertex> stale;
  std::vector<std::uint8_t> isStale(fused ? 0 : n, 0);
  std::size_t staleUnstable = 0;  // |{v in stale : unstable[v]}|
  const auto markStale = [&](graph::Vertex v) {
    if (isStale[v] != 0) return;
    isStale[v] = 1;
    stale.push_back(v);
    staleUnstable += unstable[v];
  };
  const auto maskedStable = [&](bool eventNext) {
    if constexpr (fused) {
      const std::span<const std::uint8_t> mask(frozen);
      if (!local || eventNext) return runner.isFixpoint(states, mask);
      flushEdits();
      return !runner.liveEnabled(states, mask);
    } else {
      const std::uint64_t key = runner.roundKey(runner.round());
      const auto enabled = [&](graph::Vertex v) {
        return frozen[v] == 0 &&
               !protocol.isStable(builder.build(v, states, key));
      };
      if (!local) {
        for (const graph::Vertex v : touched) isTouched[v] = 0;
        touched.clear();
        for (graph::Vertex v = 0; v < n; ++v) {
          if (enabled(v)) return false;
        }
        return true;
      }
      if (sweepAll) {
        sweepAll = false;
        for (graph::Vertex v = 0; v < n; ++v) markStale(v);
      }
      for (const graph::Vertex v : touched) {
        isTouched[v] = 0;
        markStale(v);
        for (const graph::Vertex w : g.neighbors(v)) markStale(w);
      }
      touched.clear();
      while (unstableCount == staleUnstable) {
        if (stale.empty()) return true;  // no verdict stale, none unstable
        const graph::Vertex v = stale.back();
        stale.pop_back();
        isStale[v] = 0;
        staleUnstable -= unstable[v];
        unstableCount -= unstable[v];
        unstable[v] = enabled(v) ? 1 : 0;
        unstableCount += unstable[v];
      }
      return false;
    }
  };

  std::vector<graph::Vertex> moved;
  // A frozen node's move, reverted: (v, the state the runner committed).
  std::vector<std::pair<graph::Vertex, State>> reverts;
  bool eventSinceStep = false;
  // Only the runner's movers and the pinned nodes can differ from prev
  // after a step. A runner without a moved list gets the O(n) diff.
  constexpr bool listsMoves =
      requires(const Runner& r) { r.forEachMoved([](graph::Vertex) {}); };
  const auto collectMoved = [&] {
    moved.clear();
    if constexpr (listsMoves) {
      runner.forEachMoved([&](graph::Vertex v) { moved.push_back(v); });
      if (!frozenList.empty()) {
        for (const auto& entry : frozenList) moved.push_back(entry.first);
        std::sort(moved.begin(), moved.end());
        moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
      }
      std::erase_if(moved,
                    [&](graph::Vertex v) { return states[v] == prev[v]; });
    } else {
      for (graph::Vertex v = 0; v < n; ++v) {
        if (!(states[v] == prev[v])) moved.push_back(v);
      }
    }
  };
  const auto stepOnce = [&] {
    flushEdits();
    const std::size_t moves = runner.step(states);
    result.totalMoves += moves;
    ++result.roundsExecuted;
    // Nothing moved and nothing happened since the last round: frozen nodes
    // are still pinned and prev == states, so the transition is the
    // identity — no pins, no safety violations, no state changes to report.
    if (moves == 0 && !eventSinceStep) return;
    eventSinceStep = false;
    // Pin frozen nodes: a crashed node executes nothing, a stuck node keeps
    // beaconing its frozen state. Reverting before anyone reads S_{t+1}
    // keeps the move invisible under the synchronous model. Right after an
    // event this also reverts a frozen node the event corrupted.
    reverts.clear();
    for (const auto& [v, state] : frozenList) {
      if (!(states[v] == state)) {
        reverts.emplace_back(v, std::move(states[v]));
        states[v] = state;
      }
    }
    collectMoved();
    if (safety && !moved.empty()) {
      const std::size_t violations = safety(
          g, prev, states, faulty, std::span<const graph::Vertex>(moved));
      result.safetyViolations += violations;
      if (monitor != nullptr) monitor->onSafetyViolations(violations);
    }
    for (const graph::Vertex v : moved) {
      if (monitor != nullptr) monitor->onStateChanged(v);
      touch(v);
      prev[v] = states[v];
    }
    // The runner holds the reverted moves; the next flush names the pins.
    for (auto& [v, committed] : reverts) {
      prev[v] = std::move(committed);
      edited.push_back(v);
    }
  };

  // Endpoints of edges a partition mask change cuts or restores: the nodes
  // whose views the event directly touches, in ascending order.
  const auto boundaryNodes = [&] {
    const graph::Graph& from = base();
    std::vector<graph::Vertex> out;
    for (graph::Vertex v = 0; v < n; ++v) {
      if (crashed[v] != 0) continue;
      for (const graph::Vertex w : from.neighbors(v)) {
        if (crashed[w] == 0 && side[v] != side[w]) {
          out.push_back(v);
          break;
        }
      }
    }
    return out;
  };

  const auto applyEvent = [&](const FaultEvent& ev, std::size_t index) {
    const std::uint64_t key = hashCombine(chaosSeed, index);
    std::vector<graph::Vertex> injected;
    switch (ev.kind) {
      case FaultKind::Corrupt:
        if (!ev.nodes.empty()) {
          for (const graph::Vertex v : ev.nodes) {
            corrupt(key, v);
            injected.push_back(v);
          }
        } else {
          injected = engine::detail::corruptFraction(
              states, g, key, ev.fraction, sampler, frame(),
              parallel::workersFor(n, engine::kSampleGrain));
        }
        for (const graph::Vertex v : injected) touch(v);
        edited.insert(edited.end(), injected.begin(), injected.end());
        break;
      case FaultKind::Garble:
        // No payloads to garble in the abstract model; the nearest fault is
        // one corrupted state snapshot at the garbled node.
        corrupt(key, ev.node);
        injected.push_back(ev.node);
        touch(ev.node);
        edited.push_back(ev.node);
        break;
      case FaultKind::Crash:
        topologyMasks();
        crashed[ev.node] = 1;
        setFrozen(ev.node, true);
        rebuildEffective();
        injected.push_back(ev.node);
        break;
      case FaultKind::Rejoin:
        topologyMasks();
        crashed[ev.node] = 0;
        setFrozen(ev.node, false);
        states[ev.node] = protocol.initialState(ev.node);
        edited.push_back(ev.node);
        rebuildEffective();
        injected.push_back(ev.node);
        break;
      case FaultKind::PartitionCut:
        topologyMasks();
        std::fill(side.begin(), side.end(), 0);
        for (const graph::Vertex v : ev.nodes) side[v] = 1;
        injected = boundaryNodes();
        partitionActive = true;
        rebuildEffective();
        break;
      case FaultKind::PartitionHeal:
        topologyMasks();
        injected = boundaryNodes();  // side[] still holds the healed cut
        partitionActive = false;
        rebuildEffective();
        break;
      case FaultKind::Stuck:
        setFrozen(ev.node, true);
        injected.push_back(ev.node);
        break;
      case FaultKind::Release:
        setFrozen(ev.node, false);
        injected.push_back(ev.node);
        break;
      case FaultKind::LossBurst:
      case FaultKind::ClockDrift:
        break;  // beacon-model-only; nothing to do under the abstract engine
    }
    eventSinceStep = true;
    return injected;
  };

  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& ev = plan.events[i];
    while (static_cast<std::int64_t>(result.roundsExecuted) < ev.at) {
      stepOnce();
    }
    const std::vector<graph::Vertex> injected = applyEvent(ev, i);
    for (const graph::Vertex v : injected) faulty[v] = 1;
    if (monitor != nullptr) monitor->onFault(ev.at, ev.kind, injected, g);

    // Recovery window: until masked stability, the next event, or budget.
    std::int64_t limit = ev.at + static_cast<std::int64_t>(recoveryBudget);
    if (i + 1 < plan.events.size()) {
      limit = std::min(limit, plan.events[i + 1].at);
    }
    const auto eventNext = [&] {
      return i + 1 < plan.events.size() &&
             static_cast<std::int64_t>(result.roundsExecuted) >=
                 plan.events[i + 1].at;
    };
    bool recovered = maskedStable(eventNext());
    while (!recovered &&
           static_cast<std::int64_t>(result.roundsExecuted) < limit) {
      stepOnce();
      recovered = maskedStable(eventNext());
    }
    const auto rounds = static_cast<std::size_t>(
        static_cast<std::int64_t>(result.roundsExecuted) - ev.at);
    if (monitor != nullptr) monitor->onRecovered(rounds, recovered);
    result.recoveredAll = result.recoveredAll && recovered;
    for (const graph::Vertex v : injected) faulty[v] = frozen[v];
  }

  // Drain to a true global fixpoint (or masked stability, if the plan left
  // nodes crashed or stuck — templates never do). With no node frozen,
  // masked stability is the global fixpoint.
  const bool anyFrozen = !frozenList.empty();
  const auto finalStable = [&] {
    if constexpr (fused) {
      return maskedStable(false);
    } else {
      return anyFrozen ? maskedStable(false) : runner.isFixpoint(states);
    }
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
