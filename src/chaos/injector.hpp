// Fault-plan injection for the beacon-network simulator.
//
// SimChaosController translates a FaultPlan (round-indexed) into ChaosTick
// events on the simulator's queue (round r fires at r * beaconInterval) and
// applies each FaultEvent through the NetworkSimulator chaos hooks:
//
//  * corrupt/garble  resample states from `sampler` over the ground-truth
//                    topology at fault time;
//  * crash/rejoin    chaosCrash / chaosRejoin (the restart phase is a keyed
//                    draw, so restarts stay desynchronized);
//  * partition       side mask at the radio; heal removes it;
//  * loss_burst      swaps lossProbability, restores it `duration` rounds
//                    later via a second tick;
//  * clock_drift     multiplies the node's beacon interval;
//  * stuck/release   freeze / resume rule evaluation (radio stays live).
//
// Recovery is measured by quiescence: a fault's window closes at the next
// fault tick (or finalize()), recovery time is the number of beacon
// intervals from injection to the last observed move, and the window counts
// as recovered when the simulator has then been quiet for at least two
// intervals. Containment uses the monitor's BFS distances over the
// ground-truth topology at fault time (built once per tick and kept here
// while the window is open), fed by the simulator's move hook.
//
// Determinism: fault randomness is keyed as runEngineCampaign keys it:
// event i draws under hashCombine(chaosSeed, i), each node from its own
// stream (engine::nodeRng), fraction corruption on the team through
// engine::detail::corruptFraction. So a node's corrupted state depends
// neither on the other nodes an event names nor on the worker count, a
// fraction event on a static placement hits the nodes and states the
// abstract campaign's would, and none of it touches the simulator's own
// draws: the same (config seed, plan, chaos seed) replays bit-identically
// across every IndexMode/QueueMode combination, and an *empty* plan leaves
// the base trajectory untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "adhoc/network.hpp"
#include "adhoc/sim_time.hpp"
#include "chaos/monitors.hpp"
#include "chaos/plan.hpp"
#include "engine/fault.hpp"
#include "graph/graph.hpp"
#include "graph/rng.hpp"
#include "parallel/workers.hpp"

namespace selfstab::chaos {

template <typename State, typename Sampler>
class SimChaosController {
 public:
  /// Inert when `plan` is empty: nothing is attached or scheduled and the
  /// simulator's trajectory is exactly the plan-free one. `monitor` must
  /// outlive the controller; attach telemetry to it separately.
  SimChaosController(adhoc::NetworkSimulator<State>& sim, FaultPlan plan,
                     std::uint64_t chaosSeed, Sampler sampler,
                     adhoc::SimTime beaconInterval, RecoveryMonitor& monitor)
      : sim_(&sim),
        plan_(std::move(plan)),
        chaosSeed_(chaosSeed),
        sampler_(std::move(sampler)),
        interval_(beaconInterval),
        monitor_(&monitor) {
    if (plan_.empty()) return;
    // A fault's first observable reaction can be expiry-driven: a crashed
    // node is noticed only timeoutFactor intervals after its last beacon,
    // and the neighbor acts at its own next (possibly drifted) beacon. The
    // quiet guard must outlast that lag or runUntilQuiet declares the old
    // pre-fault quiescence final before anyone has reacted.
    quietLag_ = static_cast<adhoc::SimTime>(
                    (sim.config().timeoutFactor + plan_.maxDriftFactor()) *
                    static_cast<double>(interval_)) +
                2 * interval_;
    sim.chaosAttach(plan_.maxDriftFactor());
    sim.chaosSetHandler([this](std::int64_t tick) { onTick(tick); });
    sim.chaosSetMoveHook([this](adhoc::SimTime, graph::Vertex v) {
      monitor_->onStateChanged(v);
    });
    baseLoss_ = sim.lossProbability();
    for (std::size_t i = 0; i < plan_.events.size(); ++i) {
      const FaultEvent& ev = plan_.events[i];
      pushTick(ev.at * interval_, i, /*restore=*/false);
      if (ev.kind == FaultKind::LossBurst) {
        pushTick((ev.at + ev.duration) * interval_, i, /*restore=*/true);
      }
    }
  }

  [[nodiscard]] bool active() const noexcept { return !plan_.empty(); }

  /// Earliest time runUntilQuiet may declare quiescence: the last scheduled
  /// tick (fault or restore) plus the worst-case reaction lag (cache
  /// timeout + a drifted beacon interval).
  [[nodiscard]] adhoc::SimTime noQuietBefore() const noexcept {
    return lastTickTime_ == 0 ? 0 : lastTickTime_ + quietLag_;
  }

  /// Closes the final fault window against the simulator's end-of-run
  /// clock. Call once, after the run.
  void finalize() { closeWindow(); }

 private:
  struct Tick {
    adhoc::SimTime at;
    std::size_t event;
    bool restore;
  };

  void pushTick(adhoc::SimTime at, std::size_t event, bool restore) {
    sim_->chaosScheduleTick(at, static_cast<std::int64_t>(ticks_.size()));
    ticks_.push_back(Tick{at, event, restore});
    lastTickTime_ = std::max(lastTickTime_, at);
  }

  void onTick(std::int64_t index) {
    const Tick tick = ticks_[static_cast<std::size_t>(index)];
    const FaultEvent& ev = plan_.events[tick.event];
    if (tick.restore) {
      // Only loss bursts schedule restores; part of the same fault window.
      sim_->chaosSetLossProbability(baseLoss_);
      return;
    }
    closeWindow();
    windowOpenAt_ = sim_->now();
    // The one snapshot of this tick: the event draws over it, and the
    // monitor explores it lazily until the window closes, so it lives here,
    // unchanged, until the next tick or finalize(). No event moves a host,
    // so it is the topology after the event too.
    windowTopology_ = sim_->currentTopology();
    const std::vector<graph::Vertex> injected =
        applyEvent(ev, hashCombine(chaosSeed_, tick.event), windowTopology_);
    monitor_->onFault(ev.at, ev.kind, injected, windowTopology_);
  }

  /// Applies `ev`, whose draws are keyed by `key`, over `topo`.
  std::vector<graph::Vertex> applyEvent(const FaultEvent& ev,
                                        std::uint64_t key,
                                        const graph::Graph& topo) {
    const std::vector<graph::Vertex> byLabel =
        engine::frameFor<State, Sampler>(topo);
    const auto draw = [&](graph::Vertex v) {
      Rng rng = engine::nodeRng(key, topo, v);
      return engine::sampleInternal<State>(sampler_, v, topo, rng, byLabel);
    };
    std::vector<graph::Vertex> injected;
    switch (ev.kind) {
      case FaultKind::Corrupt:
        if (!ev.nodes.empty()) {
          for (const graph::Vertex v : ev.nodes) {
            sim_->setNodeState(v, draw(v));
            injected.push_back(v);
          }
        } else {
          std::vector<State> states = sim_->states();
          injected = engine::detail::corruptFraction(
              states, topo, key, ev.fraction, sampler_, byLabel,
              parallel::workersFor(states.size(), engine::kSampleGrain));
          for (const graph::Vertex v : injected) {
            sim_->setNodeState(v, std::move(states[v]));
          }
        }
        break;
      case FaultKind::Garble:
        sim_->chaosGarble(ev.node, draw(ev.node));
        injected.push_back(ev.node);
        break;
      case FaultKind::Crash:
        sim_->chaosCrash(ev.node);
        injected.push_back(ev.node);
        break;
      case FaultKind::Rejoin: {
        Rng rng = engine::nodeRng(key, topo, ev.node);
        sim_->chaosRejoin(ev.node, static_cast<adhoc::SimTime>(rng.below(
                                       static_cast<std::uint64_t>(interval_))));
        injected.push_back(ev.node);
        break;
      }
      case FaultKind::PartitionCut:
        side_.assign(topo.order(), 0);
        for (const graph::Vertex v : ev.nodes) side_[v] = 1;
        injected = boundaryNodes(topo, side_);
        sim_->chaosSetPartition(side_);
        break;
      case FaultKind::PartitionHeal:
        // side_ still holds the healed cut
        injected = boundaryNodes(topo, side_);
        sim_->chaosHealPartition();
        break;
      case FaultKind::LossBurst:
        sim_->chaosSetLossProbability(ev.p);
        break;  // no epicenter: containment distances default to 0
      case FaultKind::ClockDrift:
        sim_->chaosSetDrift(ev.node, ev.factor);
        injected.push_back(ev.node);
        break;
      case FaultKind::Stuck:
        sim_->chaosSetStuck(ev.node, true);
        injected.push_back(ev.node);
        break;
      case FaultKind::Release:
        sim_->chaosSetStuck(ev.node, false);
        injected.push_back(ev.node);
        break;
    }
    return injected;
  }

  void closeWindow() {
    if (!monitor_->windowOpen()) return;
    const adhoc::SimTime now = sim_->now();
    const adhoc::SimTime lastMove = sim_->lastMoveTime();
    std::size_t rounds = 0;
    if (lastMove > windowOpenAt_) {
      rounds = static_cast<std::size_t>(
          (lastMove - windowOpenAt_ + interval_ - 1) / interval_);
    }
    const adhoc::SimTime settled = std::max(lastMove, windowOpenAt_);
    const bool recovered = now - settled >= 2 * interval_;
    monitor_->onRecovered(rounds, recovered);
  }

  adhoc::NetworkSimulator<State>* sim_;
  FaultPlan plan_;
  std::uint64_t chaosSeed_;
  Sampler sampler_;
  adhoc::SimTime interval_;
  RecoveryMonitor* monitor_;
  graph::Graph windowTopology_;  // the open window's ground truth
  std::vector<Tick> ticks_;
  std::vector<std::uint8_t> side_;
  double baseLoss_ = 0.0;
  adhoc::SimTime quietLag_ = 0;
  adhoc::SimTime lastTickTime_ = 0;
  adhoc::SimTime windowOpenAt_ = 0;
};

}  // namespace selfstab::chaos
