// Chaos soak gate: the fault-campaign subsystem must be free when unused,
// deterministic when used, and must never stretch recovery past the paper's
// stabilization bounds.
//
// Three gates, each fatal on failure (non-zero exit):
//
//  1. Zero-cost-when-off: a beacon run with the chaos state block attached
//     but an empty plan is bit-identical to a plain run (states AND stats)
//     and costs < 2% extra wall clock: the median of per-pair time ratios
//     over 24 ABBA-interleaved pairs (plain, attached, attached, plain),
//     both arms at one simulator worker, on a run big enough that the
//     guard branches dominate any allocation noise.
//  2. Determinism: the same (seed, plan) replays byte-identically across
//     repeated runs and across every IndexMode x QueueMode combination —
//     final states, network stats, and per-fault recovery records.
//  3. Recovery bounds: randomized template campaigns over the abstract
//     engine re-stabilize SMM within 2n+1 rounds and SIS within n rounds of
//     every injected fault (measured from each fault, per Theorems 1-2).
//
// Results append to $SELFSTAB_BENCH_JSON (bench/support/bench_json.hpp).
// SELFSTAB_CHAOS_GATE_N and SELFSTAB_CHAOS_OVERHEAD_PCT override the
// overhead-stage size/threshold for smoke runs on noisy machines.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "adhoc/mobility.hpp"
#include "adhoc/network.hpp"
#include "analysis/verifiers.hpp"
#include "bench/support/bench_json.hpp"
#include "chaos/campaign.hpp"
#include "chaos/injector.hpp"
#include "chaos/monitors.hpp"
#include "chaos/plan.hpp"
#include "chaos/safety.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/id_order.hpp"

namespace {

using namespace selfstab;
using adhoc::SimTime;

int failures = 0;

void gate(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::size_t envSize(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

double envDouble(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double v = std::strtod(env, nullptr);
    if (v > 0) return v;
  }
  return fallback;
}

std::vector<graph::Point> placement(std::size_t n, double radius,
                                    std::uint64_t seed) {
  graph::Rng rng(seed);
  std::vector<graph::Point> pts;
  graph::connectedRandomGeometric(n, radius, rng, &pts);
  return pts;
}

// ---------------------------------------------------------------------------
// Gate 1: empty plan == no plan, in bits and (almost) in wall clock.

struct TimedRun {
  double seconds = 0.0;
  std::vector<core::BitState> states;
  adhoc::NetworkStats stats;
};

TimedRun timedSisRun(const std::vector<graph::Point>& pts, double radius,
                     std::size_t workers, bool attachChaos) {
  adhoc::NetworkConfig cfg;
  cfg.seed = 1234;
  cfg.radius = radius;
  cfg.lossProbability = 0.05;
  adhoc::StaticPlacement mobility(pts);
  const auto ids = graph::IdAssignment::identity(pts.size());
  const core::SisProtocol sis;
  adhoc::NetworkSimulator<core::BitState> sim(sis, ids, mobility, cfg,
                                              workers);
  if (attachChaos) sim.chaosAttach(1.0);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run(40 * cfg.beaconInterval);
  const auto t1 = std::chrono::steady_clock::now();
  TimedRun out;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.states = sim.states();
  out.stats = sim.stats();
  return out;
}

void overheadGate() {
  const std::size_t n = envSize("SELFSTAB_CHAOS_GATE_N", 4000);
  const double threshold = envDouble("SELFSTAB_CHAOS_OVERHEAD_PCT", 2.0);
  const double radius = 1.4 / std::sqrt(static_cast<double>(n));
  const auto pts = placement(n, radius, 99);
  // Both arms run the window executor at one worker: the guard branches
  // are the same code at every worker count, are least diluted there, and
  // a team's dispatch jitter would only widen the spread (per-pair IQR
  // ~4% at four workers against ~2% at one).
  constexpr std::size_t workers = 1;
  constexpr int kBlocks = 12;  // ABBA blocks: two pairs each
  std::printf(
      "gate 1: empty-plan overhead, n=%zu, %zu worker(s), median of %d "
      "ABBA pairs\n",
      n, workers, 2 * kBlocks);

  timedSisRun(pts, radius, workers, false);  // warm-up, untimed
  std::vector<double> ratios;
  std::vector<double> plainTimes;
  std::vector<double> attachedTimes;
  TimedRun plain;
  TimedRun attached;
  for (int block = 0; block < kBlocks; ++block) {
    plain = timedSisRun(pts, radius, workers, false);
    attached = timedSisRun(pts, radius, workers, true);
    const TimedRun attached2 = timedSisRun(pts, radius, workers, true);
    const TimedRun plain2 = timedSisRun(pts, radius, workers, false);
    ratios.push_back(attached.seconds / plain.seconds);
    ratios.push_back(attached2.seconds / plain2.seconds);
    plainTimes.insert(plainTimes.end(), {plain.seconds, plain2.seconds});
    attachedTimes.insert(attachedTimes.end(),
                         {attached.seconds, attached2.seconds});
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
  };
  const double medianPlain = median(plainTimes);
  const double medianAttached = median(attachedTimes);
  const bool identical =
      plain.states == attached.states && plain.stats == attached.stats;
  const double overheadPct = 100.0 * (median(ratios) - 1.0);
  gate(identical, "attached empty plan is bit-identical to plain run");
  char line[200];
  std::snprintf(line, sizeof line,
                "overhead %.2f%% (median pair ratio; plain %.4fs, attached "
                "%.4fs medians, limit %.1f%%)",
                overheadPct, medianPlain, medianAttached, threshold);
  gate(overheadPct < threshold, line);
  bench::appendBenchJson(
      "chaos_empty_plan_overhead",
      {{"n", static_cast<double>(n)},
       {"workers", static_cast<double>(workers)},
       {"plain_s", medianPlain},
       {"attached_s", medianAttached},
       {"overhead_pct", overheadPct},
       {"identical", identical ? 1.0 : 0.0}});
}

// ---------------------------------------------------------------------------
// Gate 2: determinism across modes and runs.

struct SimCampaignRun {
  std::vector<core::PointerState> states;
  adhoc::NetworkStats stats;
  std::vector<chaos::RecoveryMonitor::Record> records;
};

SimCampaignRun simCampaign(std::size_t n, std::uint64_t seed,
                           adhoc::IndexMode index, adhoc::QueueMode queue) {
  adhoc::NetworkConfig cfg;
  cfg.seed = seed;
  cfg.index = index;
  cfg.queue = queue;
  adhoc::StaticPlacement mobility(placement(n, cfg.radius, seed));
  const auto ids = graph::IdAssignment::identity(n);
  const core::SmmProtocol smm = core::smmPaper();
  adhoc::NetworkSimulator<core::PointerState> sim(smm, ids, mobility, cfg);
  const chaos::FaultPlan plan = chaos::makeCampaign("churn", seed, n);
  chaos::RecoveryMonitor monitor;
  chaos::SimChaosController<core::PointerState,
                            decltype(&core::randomPointerState)>
      controller(sim, plan, hashCombine(seed, 0xC4A05ULL),
                 &core::randomPointerState, cfg.beaconInterval, monitor);
  sim.runUntilQuiet(5 * cfg.beaconInterval,
                    controller.noQuietBefore() + 4000 * cfg.beaconInterval,
                    controller.noQuietBefore());
  controller.finalize();
  SimCampaignRun out;
  out.states = sim.states();
  out.stats = sim.stats();
  out.records = monitor.records();
  return out;
}

bool sameRecords(const std::vector<chaos::RecoveryMonitor::Record>& a,
                 const std::vector<chaos::RecoveryMonitor::Record>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].at != b[i].at || a[i].kind != b[i].kind ||
        a[i].injected != b[i].injected ||
        a[i].recoveryRounds != b[i].recoveryRounds ||
        a[i].containmentRadius != b[i].containmentRadius ||
        a[i].recovered != b[i].recovered) {
      return false;
    }
  }
  return true;
}

void determinismGate() {
  const std::size_t n = 20;
  std::printf("gate 2: cross-mode + cross-run determinism, n=%zu\n", n);
  const auto reference =
      simCampaign(n, 7, adhoc::IndexMode::Grid, adhoc::QueueMode::Calendar);
  const auto rerun =
      simCampaign(n, 7, adhoc::IndexMode::Grid, adhoc::QueueMode::Calendar);
  gate(reference.states == rerun.states && reference.stats == rerun.stats &&
           sameRecords(reference.records, rerun.records),
       "same (seed, plan) replays identically");

  bool crossMode = true;
  for (const auto index : {adhoc::IndexMode::Grid, adhoc::IndexMode::Scan}) {
    for (const auto queue :
         {adhoc::QueueMode::Calendar, adhoc::QueueMode::Heap}) {
      const auto run = simCampaign(n, 7, index, queue);
      crossMode = crossMode && run.states == reference.states &&
                  run.stats == reference.stats &&
                  sameRecords(run.records, reference.records);
    }
  }
  gate(crossMode, "identical across index {grid,scan} x queue "
                  "{calendar,heap}");
  bench::appendBenchJson("chaos_determinism",
                         {{"n", static_cast<double>(n)},
                          {"faults", static_cast<double>(
                               reference.records.size())},
                          {"cross_mode_ok", crossMode ? 1.0 : 0.0}});
}

// ---------------------------------------------------------------------------
// Gate 3: paper recovery bounds under randomized campaigns (engine).

template <typename State, typename Protocol, typename Sampler>
bool engineCampaignWithinBound(const Protocol& protocol, Sampler sampler,
                               const chaos::SafetyCheck<State>& safety,
                               std::size_t n, std::uint64_t seed,
                               const char* name, std::size_t bound,
                               std::size_t* worstRecovery) {
  Rng rng(hashCombine(seed, 0x706CULL));
  graph::Graph g = graph::connectedRandomGeometric(n, 0.35, rng);
  const auto ids = graph::IdAssignment::identity(n);
  engine::SyncRunner<State> runner(protocol, g, ids, seed);
  std::vector<State> states;
  for (graph::Vertex v = 0; v < n; ++v) {
    states.push_back(protocol.initialState(v));
  }
  chaos::RecoveryMonitor monitor;
  const chaos::CampaignResult result = chaos::runEngineCampaign(
      runner, protocol, g, ids, states, chaos::makeCampaign(name, seed, n),
      hashCombine(seed, 0xC4A05ULL), bound, sampler, &monitor, safety);
  bool ok = result.recoveredAll && result.finalFixpoint;
  for (const auto& r : monitor.records()) {
    ok = ok && r.recoveryRounds <= bound;
    *worstRecovery = std::max(*worstRecovery, r.recoveryRounds);
  }
  return ok;
}

void recoveryBoundGate() {
  std::printf("gate 3: paper recovery bounds over randomized campaigns\n");
  const char* templates[] = {"churn", "crash-storm", "rolling-partition"};
  bool smmOk = true;
  bool sisOk = true;
  std::size_t worstSmm = 0;
  std::size_t worstSis = 0;
  std::size_t campaigns = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const char* name : templates) {
      const std::size_t n = 14 + 3 * static_cast<std::size_t>(seed);
      smmOk = engineCampaignWithinBound<core::PointerState>(
                  core::smmPaper(), &core::randomPointerState,
                  chaos::smmSafetyCheck(), n, seed, name, 2 * n + 1,
                  &worstSmm) &&
              smmOk;
      sisOk = engineCampaignWithinBound<core::BitState>(
                  core::SisProtocol(), &core::randomBitState,
                  chaos::sisSafetyCheck(), n, seed, name, n, &worstSis) &&
              sisOk;
      ++campaigns;
    }
  }
  char line[120];
  std::snprintf(line, sizeof line,
                "SMM recovers within 2n+1 after every fault (worst %zu)",
                worstSmm);
  gate(smmOk, line);
  std::snprintf(line, sizeof line,
                "SIS recovers within n after every fault (worst %zu)",
                worstSis);
  gate(sisOk, line);
  bench::appendBenchJson("chaos_recovery_bounds",
                         {{"campaigns", static_cast<double>(campaigns)},
                          {"worst_smm_recovery",
                           static_cast<double>(worstSmm)},
                          {"worst_sis_recovery",
                           static_cast<double>(worstSis)},
                          {"smm_ok", smmOk ? 1.0 : 0.0},
                          {"sis_ok", sisOk ? 1.0 : 0.0}});
}

}  // namespace

int main() {
  std::printf("soak_chaos: fault-campaign subsystem gates\n");
  overheadGate();
  determinismGate();
  recoveryBoundGate();
  if (failures != 0) {
    std::printf("soak_chaos: %d gate(s) FAILED\n", failures);
    return 1;
  }
  std::printf("soak_chaos: all gates passed\n");
  return 0;
}
