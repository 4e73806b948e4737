// Masked stability read off the runner (SyncRunner::announce and
// liveEnabled) against the campaign's own stale-verdict cache, which a
// runner without those calls gets. Both must give the same campaign byte
// for byte: result, monitor records, final states and the event log, whose
// round events carry each round's work-set size ("active").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/safety.hpp"
#include "core/bfs_tree.hpp"
#include "core/coloring.hpp"
#include "core/kernels.hpp"
#include "core/leader_tree.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/id_order.hpp"
#include "telemetry/telemetry.hpp"

namespace selfstab::chaos {
namespace {

constexpr std::size_t kN = 60;
constexpr std::uint64_t kSeed = 41;

/// A SyncRunner seen through the calls every campaign runner has: no
/// announce, liveEnabled or masked isFixpoint, so the campaign falls back to
/// invalidateSchedule() and its stale-verdict cache.
template <typename State>
class HiddenRunner {
 public:
  explicit HiddenRunner(engine::SyncRunner<State>& runner) : runner_(runner) {}
  std::size_t step(std::vector<State>& states) { return runner_.step(states); }
  bool isFixpoint(const std::vector<State>& states) {
    return runner_.isFixpoint(states);
  }
  void invalidateSchedule() noexcept { runner_.invalidateSchedule(); }
  [[nodiscard]] std::size_t round() const noexcept { return runner_.round(); }
  [[nodiscard]] std::uint64_t roundKey(std::size_t r) const noexcept {
    return runner_.roundKey(r);
  }
  template <typename F>
  void forEachMoved(F&& f) const {
    runner_.forEachMoved(std::forward<F>(f));
  }

 private:
  engine::SyncRunner<State>& runner_;
};

FaultEvent event(std::int64_t at, FaultKind kind,
                 graph::Vertex node = graph::kNoVertex) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.node = node;
  return ev;
}

/// Single-node and small corruptions, some inside the previous window, some
/// hitting the same nodes twice in one round, and one fractional
/// corruption. A draw that lands on the old state changes nothing, and a
/// round whose edits all did must then stay quiet.
FaultPlan corruptStream() {
  FaultPlan plan;
  for (std::int64_t i = 0; i < 8; ++i) {
    FaultEvent ev = event(6 + 7 * i, FaultKind::Corrupt);
    for (std::int64_t k = 0; k <= i % 3; ++k) {
      ev.nodes.push_back(static_cast<graph::Vertex>((11 * i + 17 * k) % kN));
    }
    plan.events.push_back(ev);
    plan.events.push_back(ev);
  }
  FaultEvent wide = event(70, FaultKind::Corrupt);
  wide.fraction = 0.3;
  plan.events.push_back(wide);
  return plan;
}

/// Stuck nodes corrupted while pinned, in the same round as their revert
/// and twice in one round, a garbled crashed node, releases, and a node
/// still stuck when the plan ends (the drain then waits for masked
/// stability).
FaultPlan stuckRelease() {
  FaultPlan plan;
  plan.events.push_back(event(4, FaultKind::Stuck, 5));
  plan.events.push_back(event(4, FaultKind::Stuck, 9));
  for (std::int64_t at = 8; at < 40; at += 3) {
    FaultEvent hit = event(at, FaultKind::Corrupt);
    hit.nodes = {5, static_cast<graph::Vertex>((at * 7) % kN)};
    plan.events.push_back(hit);
    plan.events.push_back(event(at, FaultKind::Garble, 9));
  }
  plan.events.push_back(event(41, FaultKind::Crash, 20));
  plan.events.push_back(event(44, FaultKind::Garble, 20));
  plan.events.push_back(event(50, FaultKind::Release, 5));
  plan.events.push_back(event(55, FaultKind::Rejoin, 20));
  plan.events.push_back(event(60, FaultKind::Release, 9));
  plan.events.push_back(event(70, FaultKind::Stuck, 30));
  FaultEvent late = event(71, FaultKind::Corrupt);
  late.nodes = {29, 30, 31};
  plan.events.push_back(late);
  return plan;
}

struct Outcome {
  CampaignResult result;
  std::vector<RecoveryMonitor::Record> records;
  std::string events;
  std::uint64_t states = 0;
};

template <typename State, typename Sampler>
Outcome runCase(const engine::Protocol<State>& protocol, const FaultPlan& plan,
                Sampler sampler, const SafetyCheck<State>& safety,
                engine::Schedule schedule, std::size_t threads, bool flat,
                bool hidden) {
  Rng rng(kSeed);
  graph::Graph g = graph::connectedRandomGeometric(kN, 0.25, rng);
  const graph::IdAssignment ids =
      graph::IdAssignment::randomPermutation(kN, rng);
  engine::SyncRunner<State> runner(protocol, g, ids, kSeed, schedule, threads);
  if (flat) runner.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
  std::ostringstream text;
  telemetry::EventLog log(text);
  runner.attachTelemetry(nullptr, &log);
  RecoveryMonitor monitor;
  monitor.attachTelemetry(nullptr, &log);
  std::vector<State> states =
      engine::randomConfiguration<State>(g, rng, sampler);
  Outcome out;
  if (hidden) {
    HiddenRunner<State> wrapper(runner);
    out.result = runEngineCampaign(wrapper, protocol, g, ids, states, plan,
                                   kSeed, 2 * kN, sampler, &monitor, safety);
  } else {
    out.result = runEngineCampaign(runner, protocol, g, ids, states, plan,
                                   kSeed, 2 * kN, sampler, &monitor, safety);
  }
  out.records = monitor.records();
  out.events = text.str();
  for (const State& s : states) {
    out.states = hashCombine(out.states, hashValue(s));
  }
  return out;
}

bool sameRecords(const std::vector<RecoveryMonitor::Record>& a,
                 const std::vector<RecoveryMonitor::Record>& b) {
  const auto fields = [](const RecoveryMonitor::Record& r) {
    return std::tie(r.at, r.kind, r.injected, r.recoveryRounds,
                    r.containmentRadius, r.recovered);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const auto& x, const auto& y) {
                      return fields(x) == fields(y);
                    });
}

template <typename State, typename Sampler>
void expectSameCampaigns(const engine::Protocol<State>& protocol,
                         Sampler sampler,
                         const SafetyCheck<State>& safety = {}) {
  graph::Graph probe(kN);
  const graph::IdAssignment probeIds = graph::IdAssignment::identity(kN);
  const bool hasFlat =
      core::makeFlatKernel<State>(protocol, probe, probeIds) != nullptr;
  const std::vector<std::pair<const char*, FaultPlan>> plans = {
      {"churn", makeCampaign("churn", 3, kN)},
      {"crash-storm", makeCampaign("crash-storm", 4, kN)},
      {"rolling-partition", makeCampaign("rolling-partition", 5, kN)},
      {"corrupt-stream", corruptStream()},
      {"stuck-release", stuckRelease()}};
  for (const auto& [name, plan] : plans) {
    for (const auto schedule :
         {engine::Schedule::Dense, engine::Schedule::Active}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const bool flat : {false, true}) {
          if (flat && !hasFlat) continue;
          const std::string where =
              std::string(protocol.name()) + " / " + name + " / " +
              std::string(engine::toString(schedule)) + " / threads " +
              std::to_string(threads) + (flat ? " / flat" : " / generic");
          const Outcome peek = runCase(protocol, plan, sampler, safety,
                                       schedule, threads, flat, false);
          const Outcome stale = runCase(protocol, plan, sampler, safety,
                                        schedule, threads, flat, true);
          EXPECT_EQ(peek.result.roundsExecuted, stale.result.roundsExecuted)
              << where;
          EXPECT_EQ(peek.result.totalMoves, stale.result.totalMoves) << where;
          EXPECT_EQ(peek.result.safetyViolations,
                    stale.result.safetyViolations)
              << where;
          EXPECT_EQ(peek.result.recoveredAll, stale.result.recoveredAll)
              << where;
          EXPECT_EQ(peek.result.finalFixpoint, stale.result.finalFixpoint)
              << where;
          EXPECT_TRUE(sameRecords(peek.records, stale.records)) << where;
          EXPECT_EQ(peek.states, stale.states) << where;
          EXPECT_TRUE(peek.events == stale.events) << where;
        }
      }
    }
  }
}

// One case per protocol, so the six run side by side under ctest -j.
TEST(CampaignStability, PeekMatchesStaleOracleSmm) {
  expectSameCampaigns(core::smmPaper(), core::randomPointerState,
                      smmSafetyCheck());
}

TEST(CampaignStability, PeekMatchesStaleOracleSmmArbitrary) {
  expectSameCampaigns(core::smmArbitrary(core::Choice::Successor),
                      core::randomPointerState);
}

TEST(CampaignStability, PeekMatchesStaleOracleSis) {
  expectSameCampaigns(core::SisProtocol{}, core::randomBitState,
                      sisSafetyCheck());
}

TEST(CampaignStability, PeekMatchesStaleOracleColoring) {
  expectSameCampaigns(core::ColoringProtocol{}, core::randomColorState);
}

TEST(CampaignStability, PeekMatchesStaleOracleBfsTree) {
  expectSameCampaigns(core::BfsTreeProtocol(0, kN), core::randomTreeState);
}

TEST(CampaignStability, PeekMatchesStaleOracleLeaderTree) {
  expectSameCampaigns(core::LeaderTreeProtocol(kN), core::randomLeaderState);
}

}  // namespace
}  // namespace selfstab::chaos
