// Pins runEngineCampaign's observable output — CampaignResult, every
// RecoveryMonitor record, and the final configuration — to values recorded
// from the straightforward campaign loop (a full state copy, diff, pin scan,
// safety sweep and masked-stability sweep every round, plus an eager
// containment BFS per fault). The campaign's incremental bookkeeping and the
// executor's quiet-round skip must reproduce them exactly, for every
// protocol family, every event kind, both schedules, both kernel paths and
// threads 1 and 3.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/safety.hpp"
#include "core/coloring.hpp"
#include "core/kernels.hpp"
#include "core/leader_tree.hpp"
#include "core/local_mutex.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/id_order.hpp"

namespace selfstab::chaos {
namespace {

constexpr std::size_t kN = 40;
constexpr std::uint64_t kSeed = 29;

struct Fingerprint {
  std::size_t rounds = 0;
  std::size_t moves = 0;
  std::size_t safety = 0;
  bool recoveredAll = false;
  bool finalFixpoint = false;
  std::uint64_t records = 0;  ///< digest of every monitor record
  std::uint64_t states = 0;   ///< digest of the final configuration

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
    return os << "{" << f.rounds << ", " << f.moves << ", " << f.safety
              << ", " << std::boolalpha << f.recoveredAll << ", "
              << f.finalFixpoint << ", 0x" << std::hex << f.records
              << "ULL, 0x" << f.states << "ULL" << std::dec
              << std::noboolalpha << "}";
  }
};

graph::Graph testGraph() {
  Rng rng(kSeed);
  return graph::connectedRandomGeometric(kN, 0.3, rng);
}

FaultEvent event(std::int64_t at, FaultKind kind,
                 graph::Vertex node = graph::kNoVertex) {
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.node = node;
  return ev;
}

/// Small corruptions every 9 rounds — often inside the previous window, so
/// windows close unrecovered too — then one fractional corruption.
FaultPlan corruptStream() {
  FaultPlan plan;
  for (std::int64_t i = 0; i < 6; ++i) {
    FaultEvent ev = event(6 + 9 * i, FaultKind::Corrupt);
    for (std::int64_t k = 0; k < 3; ++k) {
      ev.nodes.push_back(static_cast<graph::Vertex>((7 * i + 13 * k) % kN));
    }
    plan.events.push_back(ev);
  }
  FaultEvent wide = event(70, FaultKind::Corrupt);
  wide.fraction = 0.4;
  plan.events.push_back(wide);
  return plan;
}

/// Stuck and crashed nodes that get corrupted or garbled while frozen (the
/// pin must revert them even on a round where nothing moves), back-to-back
/// events, and a plan that ends with a node still stuck (the final drain
/// then waits for masked stability, not a global fixpoint).
FaultPlan stuckGarble() {
  FaultPlan plan;
  plan.events.push_back(event(5, FaultKind::Stuck, 3));
  FaultEvent hit = event(20, FaultKind::Corrupt);
  hit.nodes = {3, 11, 27};
  plan.events.push_back(hit);
  plan.events.push_back(event(35, FaultKind::Garble, 3));
  plan.events.push_back(event(36, FaultKind::Crash, 8));
  plan.events.push_back(event(50, FaultKind::Garble, 8));
  plan.events.push_back(event(51, FaultKind::LossBurst));
  plan.events.push_back(event(60, FaultKind::Release, 3));
  plan.events.push_back(event(75, FaultKind::Rejoin, 8));
  plan.events.push_back(event(76, FaultKind::Garble, 19));
  plan.events.push_back(event(95, FaultKind::Stuck, 30));
  FaultEvent late = event(96, FaultKind::Corrupt);
  late.nodes = {30, 31};
  plan.events.push_back(late);
  return plan;
}

struct PlanCase {
  const char* name;
  FaultPlan plan;
};

std::vector<PlanCase> plans() {
  return {{"corrupt-stream", corruptStream()},
          {"crash-storm", makeCampaign("crash-storm", 5, kN)},
          {"churn", makeCampaign("churn", 7, kN)},
          {"rolling-partition", makeCampaign("rolling-partition", 3, kN)},
          {"stuck-garble", stuckGarble()}};
}

std::uint64_t recordsDigest(const RecoveryMonitor& monitor) {
  std::uint64_t h = monitor.safetyViolations();
  for (const RecoveryMonitor::Record& r : monitor.records()) {
    h = hashCombine(h, static_cast<std::uint64_t>(r.at));
    h = hashCombine(
        h, static_cast<std::uint64_t>(faultKindFromString(r.kind)));
    h = hashCombine(h, r.injected);
    h = hashCombine(h, r.recoveryRounds);
    h = hashCombine(h, r.containmentRadius);
    h = hashCombine(h, r.recovered ? 1 : 0);
  }
  return h;
}

/// One campaign from a seeded random start on the fixed test graph.
template <typename State, typename Sampler>
Fingerprint runCase(const engine::Protocol<State>& protocol,
                    const FaultPlan& plan, Sampler sampler,
                    const SafetyCheck<State>& safety,
                    engine::Schedule schedule, std::size_t threads,
                    bool flat) {
  graph::Graph g = testGraph();
  const graph::IdAssignment ids = graph::IdAssignment::identity(kN);
  engine::SyncRunner<State> runner(protocol, g, ids, kSeed, schedule, threads);
  if (flat) runner.setKernel(core::makeFlatKernel<State>(protocol, g, ids));
  Rng startRng(hashCombine(kSeed, 0x5747u));
  std::vector<State> states =
      engine::randomConfiguration<State>(g, startRng, sampler);
  RecoveryMonitor monitor;
  const CampaignResult result =
      runEngineCampaign(runner, protocol, g, ids, states, plan, 0xC4A05ULL,
                        2 * kN + 1, sampler, &monitor, safety);
  Fingerprint f;
  f.rounds = result.roundsExecuted;
  f.moves = result.totalMoves;
  f.safety = result.safetyViolations;
  f.recoveredAll = result.recoveredAll;
  f.finalFixpoint = result.finalFixpoint;
  f.records = recordsDigest(monitor);
  for (const State& s : states) f.states = hashCombine(f.states, hashValue(s));
  return f;
}

/// Runs every plan under both schedules, threads 1 and 3, and (where the
/// protocol has one) both kernel paths; each must match its pinned row.
template <typename State, typename Sampler>
void expectPinned(const engine::Protocol<State>& protocol, Sampler sampler,
                  const SafetyCheck<State>& safety,
                  const std::vector<Fingerprint>& expected) {
  const std::vector<PlanCase> cases = plans();
  ASSERT_EQ(cases.size(), expected.size());
  graph::Graph probe = testGraph();
  const graph::IdAssignment probeIds = graph::IdAssignment::identity(kN);
  const bool hasFlat =
      core::makeFlatKernel<State>(protocol, probe, probeIds) != nullptr;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (const auto schedule :
         {engine::Schedule::Dense, engine::Schedule::Active}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        for (const bool flat : {false, true}) {
          if (flat && !hasFlat) continue;
          EXPECT_EQ(runCase(protocol, cases[i].plan, sampler, safety,
                            schedule, threads, flat),
                    expected[i])
              << protocol.name() << " / " << cases[i].name << " / "
              << engine::toString(schedule) << " / threads " << threads
              << (flat ? " / flat" : " / generic");
        }
      }
    }
  }
}

TEST(EngineCampaignFingerprint, Smm) {
  expectPinned(core::smmPaper(), core::randomPointerState, smmSafetyCheck(),
               {
                   {82, 491, 0, false, true,  // corrupt-stream
                    0xf6ed8a47193da03eULL, 0xb9b9e94159fb01bfULL},
                   {546, 1254, 0, true, true,  // crash-storm
                    0xfd3c2c879da1fbaeULL, 0x361ab5be6293a14eULL},
                   {803, 602, 0, true, true,  // churn
                    0x9f5068a1e893237aULL, 0x7bbaae8ec03508bfULL},
                   {445, 398, 0, true, true,  // rolling-partition
                    0x698e3d34c023e361ULL, 0xc14f5e5979813f3bULL},
                   {99, 360, 0, false, true,  // stuck-garble
                    0xd10496d983b12847ULL, 0x81a3a63b76f95959ULL},
               });
}

TEST(EngineCampaignFingerprint, Sis) {
  expectPinned(core::SisProtocol{}, core::randomBitState, sisSafetyCheck(),
               {
                   {74, 81, 0, true, true,  // corrupt-stream
                    0x4893f0980a78ddafULL, 0xf3356ac426243612ULL},
                   {535, 842, 0, true, true,  // crash-storm
                    0x3cec5b97dd9da79bULL, 0xf3356ac426243612ULL},
                   {799, 268, 0, true, true,  // churn
                    0xf30094495842d60bULL, 0xf3356ac426243612ULL},
                   {447, 157, 0, true, true,  // rolling-partition
                    0x9305c84b8eafaf9bULL, 0xf3356ac426243612ULL},
                   {98, 97, 0, true, true,  // stuck-garble
                    0x12123cddca77c780ULL, 0xf3356ac426243612ULL},
               });
}

TEST(EngineCampaignFingerprint, Coloring) {
  expectPinned(core::ColoringProtocol{}, core::randomColorState,
               SafetyCheck<core::ColorState>{},
               {
                   {82, 662, 0, false, true,  // corrupt-stream
                    0x4723f45419ea8d2fULL, 0x2c6dd06f4ea217e4ULL},
                   {543, 1191, 0, true, true,  // crash-storm
                    0x8d987246d24cbb9bULL, 0x2c6dd06f4ea217e4ULL},
                   {807, 661, 0, true, true,  // churn
                    0xb5ba3e1e40654bbfULL, 0x2c6dd06f4ea217e4ULL},
                   {453, 656, 0, true, true,  // rolling-partition
                    0xed562d21565ab2c0ULL, 0x2c6dd06f4ea217e4ULL},
                   {106, 446, 0, false, true,  // stuck-garble
                    0x336b8fe339d8da44ULL, 0x2c6dd06f4ea217e4ULL},
               });
}

TEST(EngineCampaignFingerprint, LeaderTree) {
  expectPinned(core::LeaderTreeProtocol{kN}, core::randomLeaderState,
               SafetyCheck<core::LeaderState>{},
               {
                   {95, 3564, 0, false, true,  // corrupt-stream
                    0x739d6476cab4b52ULL, 0x3f2ed498a459f281ULL},
                   {561, 3381, 0, true, true,  // crash-storm
                    0x18fe2f889ff2120eULL, 0x3f2ed498a459f281ULL},
                   {823, 4010, 0, true, true,  // churn
                    0x9dba7377c5cbec50ULL, 0x3f2ed498a459f281ULL},
                   {446, 3112, 0, true, true,  // rolling-partition
                    0x5aa14b6c1541ac4dULL, 0x3f2ed498a459f281ULL},
                   {135, 3268, 0, false, true,  // stuck-garble
                    0x5756c5a80f95ebb3ULL, 0x3f2ed498a459f281ULL},
               });
}

// Hsu–Huang under the randomized local-mutex wrapper (the CLI's hh-sync):
// its lottery reads the round key, so the executor may never skip a round
// and masked stability is always a full sweep.
TEST(EngineCampaignFingerprint, HsuHuangSync) {
  const core::Synchronized<core::SmmProtocol> protocol(core::Choice::First,
                                                       core::Choice::First);
  expectPinned(protocol, core::randomPointerState, smmSafetyCheck(),
               {
                   {169, 131, 0, false, true,  // corrupt-stream
                    0x1ea08e36b9803849ULL, 0xb06f0988c52d160cULL},
                   {599, 638, 0, false, true,  // crash-storm
                    0xa16d1246fb8ad5a2ULL, 0x8f5d78b0f80e2b3fULL},
                   {845, 279, 0, false, true,  // churn
                    0xaf92484d30a7d2eULL, 0x170b8bb7db85bb59ULL},
                   {464, 162, 0, true, true,  // rolling-partition
                    0xa93e218e9b7fb788ULL, 0x5cd6f875a4d04548ULL},
                   {123, 115, 0, false, true,  // stuck-garble
                    0xbc2dd22d4d22f245ULL, 0xc879144f3e3a18f7ULL},
               });
}

}  // namespace
}  // namespace selfstab::chaos
