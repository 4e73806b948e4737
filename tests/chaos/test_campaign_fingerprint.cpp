// Pins runEngineCampaign's observable output — CampaignResult, every
// RecoveryMonitor record, and the final configuration — to values recorded
// from the straightforward campaign loop (a full state copy, diff, pin scan,
// safety sweep and masked-stability sweep every round, plus an eager
// containment BFS per fault). The campaign's incremental bookkeeping and the
// executor's quiet-round skip must reproduce them exactly, for every
// protocol family, every event kind, both schedules, both kernel paths and
// threads 1 and 3. The rows were re-pinned when the random start and the
// corruption draws became keyed per node (engine/fault.hpp): every seeded
// trajectory changed once.
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
                   {85, 480, 0, true, true,  // corrupt-stream
                    0x5b880d0fd35d28c3ULL, 0xac0c2fa8b46ed821ULL},
                   {547, 1267, 0, true, true,  // crash-storm
                    0xa9695fca6badaca7ULL, 0x450279e3672626a7ULL},
                   {803, 475, 0, true, true,  // churn
                    0xb157b838613c5719ULL, 0x292bbac0d4b892a5ULL},
                   {445, 309, 0, true, true,  // rolling-partition
                    0x7f30cc6155acea73ULL, 0x92ab7fb620682783ULL},
                   {100, 258, 0, false, true,  // stuck-garble
                    0xd55a6c5c20cb20e2ULL, 0xa79be83cc18b7802ULL},
               });
}

TEST(EngineCampaignFingerprint, Sis) {
  expectPinned(core::SisProtocol{}, core::randomBitState, sisSafetyCheck(),
               {
                   {74, 71, 0, true, true,  // corrupt-stream
                    0x3d7451019e4e80ccULL, 0xf3356ac426243612ULL},
                   {536, 850, 0, true, true,  // crash-storm
                    0x73795980afae90b0ULL, 0xf3356ac426243612ULL},
                   {800, 288, 0, true, true,  // churn
                    0x6b63fce4bc7dcecbULL, 0xf3356ac426243612ULL},
                   {447, 150, 0, true, true,  // rolling-partition
                    0x9305c84b8eafaf9bULL, 0xf3356ac426243612ULL},
                   {98, 90, 0, true, true,  // stuck-garble
                    0x4bd753afd69bc4a6ULL, 0xf3356ac426243612ULL},
               });
}

TEST(EngineCampaignFingerprint, Coloring) {
  expectPinned(core::ColoringProtocol{}, core::randomColorState,
               SafetyCheck<core::ColorState>{},
               {
                   {82, 694, 0, false, true,  // corrupt-stream
                    0x5145d31f5f73bce1ULL, 0x2c6dd06f4ea217e4ULL},
                   {544, 1218, 0, true, true,  // crash-storm
                    0xe7eacddc35b7b563ULL, 0x2c6dd06f4ea217e4ULL},
                   {808, 709, 0, true, true,  // churn
                    0x4f94e864a187328dULL, 0x2c6dd06f4ea217e4ULL},
                   {453, 664, 0, true, true,  // rolling-partition
                    0xed562d21565ab2c0ULL, 0x2c6dd06f4ea217e4ULL},
                   {106, 447, 0, false, true,  // stuck-garble
                    0x336b8fe339d8da44ULL, 0x2c6dd06f4ea217e4ULL},
               });
}

TEST(EngineCampaignFingerprint, LeaderTree) {
  expectPinned(core::LeaderTreeProtocol{kN}, core::randomLeaderState,
               SafetyCheck<core::LeaderState>{},
               {
                   {109, 3948, 0, false, true,  // corrupt-stream
                    0x2b9217c421494b83ULL, 0x3f2ed498a459f281ULL},
                   {571, 3196, 0, true, true,  // crash-storm
                    0x532a920230efa516ULL, 0x3f2ed498a459f281ULL},
                   {818, 3169, 0, true, true,  // churn
                    0xb5d42e3c5354cc0eULL, 0x3f2ed498a459f281ULL},
                   {446, 2512, 0, true, true,  // rolling-partition
                    0x824cd915c1c384eULL, 0x3f2ed498a459f281ULL},
                   {132, 2983, 0, false, true,  // stuck-garble
                    0xe075ee38f3754b80ULL, 0x3f2ed498a459f281ULL},
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
                   {219, 130, 0, false, true,  // corrupt-stream
                    0xb230d02cf46daba7ULL, 0x87f489d5725da4bcULL},
                   {629, 662, 0, false, true,  // crash-storm
                    0x5c48f86b3fa64e06ULL, 0x9a70fc2321edeae8ULL},
                   {902, 266, 0, false, true,  // churn
                    0x787a51a60b8a5073ULL, 0xa4cd4e73b67a0191ULL},
                   {464, 135, 0, true, true,  // rolling-partition
                    0xcc0a012fbcb3ee5fULL, 0xf497cc07f40a066bULL},
                   {138, 114, 0, false, true,  // stuck-garble
                    0xf6f6158f041b4f3eULL, 0x47fe20eb144b188bULL},
               });
}

}  // namespace
}  // namespace selfstab::chaos
