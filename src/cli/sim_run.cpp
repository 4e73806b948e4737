#include "cli/sim_run.hpp"

#include <iomanip>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "adhoc/network.hpp"
#include "analysis/verifiers.hpp"
#include "chaos/injector.hpp"
#include "chaos/monitors.hpp"
#include "chaos/plan.hpp"
#include "cli/metrics_io.hpp"
#include "core/kernels.hpp"
#include "core/leader_tree.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "graph/generators.hpp"

namespace selfstab::cli {

namespace {

using adhoc::SimTime;

std::unique_ptr<adhoc::Mobility> makeMobility(const SimOptions& options) {
  graph::Rng rng(hashCombine(options.seed, 0x6d6f62ULL));
  if (options.mobility == MobilityKind::Static) {
    std::vector<graph::Point> pts;
    graph::connectedRandomGeometric(options.nodes, options.radius, rng, &pts);
    return std::make_unique<adhoc::StaticPlacement>(std::move(pts));
  }
  adhoc::RandomWaypoint::Config wp;
  wp.speedMin = options.speedMin;
  wp.speedMax = options.speedMax;
  wp.stopTime = options.stopTime;
  return std::make_unique<adhoc::RandomWaypoint>(
      graph::randomPoints(options.nodes, rng), wp, options.seed * 31 + 7);
}

adhoc::NetworkConfig makeConfig(const SimOptions& options) {
  adhoc::NetworkConfig config;
  config.beaconInterval = options.beaconInterval;
  config.lossProbability = options.lossProbability;
  config.collisionWindow = options.collisionWindow;
  config.timeoutFactor = options.timeoutFactor;
  config.schedule = options.schedule;
  config.radius = options.radius;
  config.index = options.index;
  config.queue = options.queue;
  config.seed = options.seed;
  return config;
}

/// Drives one protocol type through the timeline loop. `verify` and
/// `describe` evaluate the final configuration against the ground-truth
/// bidirectional topology. `sampler` supplies corrupted states for --chaos.
template <typename State, typename Sampler, typename Verify, typename Describe>
SimReport driveSim(const SimOptions& options, telemetry::Registry* registry,
                   telemetry::EventLog* events,
                   const engine::Protocol<State>& protocol,
                   const graph::IdAssignment& ids, Sampler sampler,
                   Verify verify, Describe describe, std::ostream& out) {
  auto mobility = makeMobility(options);
  adhoc::NetworkSimulator<State> sim(protocol, ids, *mobility,
                                     makeConfig(options));
  sim.attachTelemetry(registry, events);

  // Devirtualized rule evaluation (--kernel): the simulator has no static
  // graph to mirror, so it takes the view-level kernel — same shared rule
  // code as Protocol::onRound, minus the vtable hop. Auto falls back to the
  // generic path for protocols without one.
  std::unique_ptr<engine::ViewKernel<State>> viewKernel;
  if (options.kernel != engine::KernelMode::Generic) {
    viewKernel = core::makeViewKernel<State>(protocol);
    if (viewKernel == nullptr && options.kernel == engine::KernelMode::Flat) {
      throw CliError("--kernel flat: protocol '" +
                     std::string(protocol.name()) +
                     "' has no flat kernel (try --kernel auto)");
    }
  }
  sim.setViewKernel(viewKernel.get());

  // Fault campaign: with no --chaos the plan is empty and the controller is
  // inert — the trajectory is bit-identical to a build without it.
  chaos::FaultPlan plan;
  if (!options.chaosSpec.empty()) {
    plan = chaos::parseChaosSpec(options.chaosSpec, options.nodes);
  }
  chaos::RecoveryMonitor monitor;
  monitor.attachTelemetry(registry, events);
  chaos::SimChaosController<State, Sampler> controller(
      sim, plan, hashCombine(options.seed, 0xC4A05ULL), sampler,
      options.beaconInterval, monitor);
  // A campaign stretches the time budget to cover its own tail, and
  // suppresses the quiet early-exit until every scheduled fault has fired.
  const SimTime duration =
      controller.active()
          ? std::max(options.duration,
                     controller.noQuietBefore() + 10 * options.beaconInterval)
          : options.duration;

  // --json wants a single machine-readable document on stdout, so the
  // human timeline is suppressed.
  const bool timeline = !options.json;
  if (timeline) out << "time(s)  links  moves  beacons(sent/lost/coll)\n";
  const SimTime quietWindow = 5 * options.beaconInterval;
  bool quiet = false;
  for (SimTime t = options.reportEvery; t <= duration;
       t += options.reportEvery) {
    if (options.untilQuiet) {
      const auto result =
          sim.runUntilQuiet(quietWindow, t, controller.noQuietBefore());
      quiet = result.quiet;
    } else {
      sim.run(t);
    }
    if (timeline) {
      const auto& stats = sim.stats();
      out << std::setw(7) << sim.now() / adhoc::kSecond << "  " << std::setw(5)
          << sim.currentTopology().size() << "  " << std::setw(5)
          << stats.moves << "  " << stats.beaconsSent << "/"
          << stats.beaconsLost << "/" << stats.beaconsCollided << '\n';
    }
    if (quiet) break;
  }
  controller.finalize();

  SimReport report;
  report.protocol = std::string(protocol.name());
  report.kernel = std::string(engine::toString(sim.kernel()));
  report.nodes = options.nodes;
  report.endTime = sim.now();
  report.quiet =
      options.untilQuiet ? quiet
                         : (sim.now() - sim.lastMoveTime() >= quietWindow);
  const graph::Graph topo = sim.currentTopology();
  const auto states = sim.states();
  recordBulkBytes(registry, sim.radioGraph(), ids,
                  states.capacity() * sizeof(State), 0);
  report.predicateOk = report.quiet && verify(topo, states);
  report.summary = describe(topo, states);
  const auto& stats = sim.stats();
  report.beaconsSent = stats.beaconsSent;
  report.beaconsDelivered = stats.beaconsDelivered;
  report.beaconsLost = stats.beaconsLost;
  report.beaconsCollided = stats.beaconsCollided;
  report.moves = stats.moves;
  report.ruleEvaluations = stats.ruleEvaluations;
  report.evaluationsSkipped = stats.evaluationsSkipped;
  report.rounds = static_cast<std::size_t>(sim.now() / options.beaconInterval);
  report.rangeChecks = sim.indexStats().rangeChecks;
  if (controller.active()) {
    report.chaosActive = true;
    report.chaosFaults = monitor.records().size();
    report.chaosRecoveredAll = monitor.allRecovered();
    report.chaosMaxRecoveryRounds = monitor.maxRecoveryRounds();
    report.chaosMaxContainment = monitor.maxContainmentRadius();
  }
  if (registry != nullptr) {
    // The paper counts rounds as whole beacon intervals; finalize the
    // counter here so it equals SimReport::rounds exactly.
    registry->counter(telemetry::names::kRoundsTotal)
        .inc(static_cast<std::uint64_t>(report.rounds));
  }
  return report;
}

}  // namespace

SimReport executeSim(const SimOptions& options, std::ostream& out) {
  const graph::IdAssignment ids =
      graph::IdAssignment::identity(options.nodes);

  std::optional<telemetry::Registry> registry;
  if (!options.metricsPath.empty()) registry.emplace();
  EventSink events(options.eventsPath, out);
  telemetry::Registry* reg = registry.has_value() ? &*registry : nullptr;

  SimReport report;
  switch (options.protocol) {
    case SimProtocolKind::Smm: {
      const core::SmmProtocol smm = core::smmPaper();
      report = driveSim<core::PointerState>(
          options, reg, events.get(), smm, ids, core::randomPointerState,
          [](const graph::Graph& g,
             const std::vector<core::PointerState>& states) {
            return analysis::checkMatchingFixpoint(g, states).ok();
          },
          [](const graph::Graph& g,
             const std::vector<core::PointerState>& states) {
            std::ostringstream ss;
            ss << "matching: " << analysis::matchedEdges(g, states).size()
               << " pair(s)";
            return ss.str();
          },
          out);
      break;
    }
    case SimProtocolKind::Sis: {
      const core::SisProtocol sis;
      report = driveSim<core::BitState>(
          options, reg, events.get(), sis, ids, core::randomBitState,
          [](const graph::Graph& g,
             const std::vector<core::BitState>& states) {
            return analysis::isMaximalIndependentSet(
                g, analysis::membersOf(states));
          },
          [](const graph::Graph&,
             const std::vector<core::BitState>& states) {
            std::ostringstream ss;
            ss << "independent set: " << analysis::membersOf(states).size()
               << " member(s)";
            return ss.str();
          },
          out);
      break;
    }
    case SimProtocolKind::LeaderTree: {
      const core::LeaderTreeProtocol protocol(
          static_cast<std::uint32_t>(options.nodes));
      report = driveSim<core::LeaderState>(
          options, reg, events.get(), protocol, ids, core::randomLeaderState,
          [](const graph::Graph& g,
             const std::vector<core::LeaderState>& states) {
            const graph::IdAssignment identity =
                graph::IdAssignment::identity(g.order());
            return analysis::isLeaderTree(g, identity, states);
          },
          [](const graph::Graph&,
             const std::vector<core::LeaderState>& states) {
            std::uint32_t depth = 0;
            for (const auto& s : states) {
              if (!states.empty() && s.root == states[0].root) {
                depth = std::max(depth, s.dist);
              }
            }
            std::ostringstream ss;
            ss << "leader id " << (states.empty() ? 0 : states[0].root)
               << ", tree depth " << depth;
            return ss.str();
          },
          out);
      break;
    }
    default:
      throw CliError("unhandled protocol");
  }
  if (registry.has_value()) {
    writeMetricsDump(*registry, options.metricsPath, out);
  }
  return report;
}

void printSimReportJson(const SimReport& report, std::ostream& out) {
  telemetry::JsonWriter w(out);
  w.beginObject();
  w.key("protocol").value(report.protocol);
  w.key("kernel").value(report.kernel);
  w.key("nodes").value(static_cast<std::uint64_t>(report.nodes));
  w.key("endTimeUs").value(static_cast<std::int64_t>(report.endTime));
  w.key("rounds").value(static_cast<std::uint64_t>(report.rounds));
  w.key("quiet").value(report.quiet);
  w.key("predicateOk").value(report.predicateOk);
  w.key("beaconsSent").value(static_cast<std::uint64_t>(report.beaconsSent));
  w.key("beaconsDelivered")
      .value(static_cast<std::uint64_t>(report.beaconsDelivered));
  w.key("beaconsLost").value(static_cast<std::uint64_t>(report.beaconsLost));
  w.key("beaconsCollided")
      .value(static_cast<std::uint64_t>(report.beaconsCollided));
  w.key("moves").value(static_cast<std::uint64_t>(report.moves));
  w.key("ruleEvaluations")
      .value(static_cast<std::uint64_t>(report.ruleEvaluations));
  w.key("evaluationsSkipped")
      .value(static_cast<std::uint64_t>(report.evaluationsSkipped));
  w.key("rangeChecks").value(static_cast<std::uint64_t>(report.rangeChecks));
  w.key("summary").value(report.summary);
  if (report.chaosActive) {
    w.key("chaosFaults").value(static_cast<std::uint64_t>(report.chaosFaults));
    w.key("chaosRecoveredAll").value(report.chaosRecoveredAll);
    w.key("chaosMaxRecoveryRounds")
        .value(static_cast<std::uint64_t>(report.chaosMaxRecoveryRounds));
    w.key("chaosMaxContainment")
        .value(static_cast<std::uint64_t>(report.chaosMaxContainment));
  }
  w.endObject();
  out << '\n';
}

void printSimReport(const SimReport& report, std::ostream& out) {
  out << "protocol    : " << report.protocol << '\n'
      << "kernel      : " << report.kernel << '\n'
      << "hosts       : " << report.nodes << '\n'
      << "sim time    : " << std::fixed << std::setprecision(1)
      << static_cast<double>(report.endTime) /
             static_cast<double>(adhoc::kSecond)
      << "s\n"
      << "quiet       : " << (report.quiet ? "yes" : "NO") << '\n'
      << "beacons     : " << report.beaconsSent << " sent, "
      << report.beaconsDelivered << " delivered, " << report.beaconsLost
      << " lost, " << report.beaconsCollided << " collided\n"
      << "moves       : " << report.moves << '\n'
      << "evaluations : " << report.ruleEvaluations << " run, "
      << report.evaluationsSkipped << " skipped\n"
      << "rounds      : " << report.rounds << '\n'
      << "range checks: " << report.rangeChecks << '\n'
      << "result      : " << report.summary << '\n'
      << "verified    : " << (report.predicateOk ? "yes" : "NO") << '\n';
  if (report.chaosActive) {
    out << "chaos       : " << report.chaosFaults << " fault(s), "
        << (report.chaosRecoveredAll ? "all recovered" : "NOT all recovered")
        << ", worst recovery " << report.chaosMaxRecoveryRounds
        << " round(s), worst containment " << report.chaosMaxContainment
        << '\n';
  }
}

}  // namespace selfstab::cli
