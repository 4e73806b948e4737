// Traced mirror: the same pipeline as `selfstab` (cli/run.cpp) and
// `selfstab-sim` (cli/sim_run.cpp), call for call, with a span around each
// call into a layer and a telemetry registry attached to the runner and the
// simulator. Spans stay in memory and are written once, at exit.
//
//   perfbench_trace <run-id> <spans.json> selfstab     <selfstab args...>
//   perfbench_trace <run-id> <spans.json> selfstab-sim <selfstab-sim args...>
//
// stdout carries the same report the CLI prints, so a caller can compare the
// two runs count for count. Supported: -p smm|sis on selfstab, and -p smm
// --mobility waypoint --no-early-stop on selfstab-sim. A span name
// is "<layer>.<what>", where the layer is a src/ module; "bench.*" spans are
// this program's own checks and belong to no layer.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adhoc/mobility.hpp"
#include "adhoc/network.hpp"
#include "analysis/verifiers.hpp"
#include "chaos/campaign.hpp"
#include "chaos/injector.hpp"
#include "chaos/monitors.hpp"
#include "chaos/plan.hpp"
#include "chaos/safety.hpp"
#include "cli/options.hpp"
#include "cli/run.hpp"
#include "cli/sim_options.hpp"
#include "cli/sim_run.hpp"
#include "core/kernels.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/geometry.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace selfstab;
using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    std::size_t parent = 0;  ///< 1-based id of the enclosing span; 0 = none
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    explicit Scope(Tracer& tracer) : tracer_(tracer) {}
    ~Scope() { tracer_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  [[nodiscard]] Scope span(std::string name) {
    Span s;
    s.parent = open_.empty() ? 0 : open_.back();
    s.name = std::move(name);
    s.startNs = now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size());
    return Scope(*this);
  }

  /// Attaches a count to the innermost open span.
  void attr(std::string key, double value) {
    spans_[open_.back() - 1].attrs.emplace_back(std::move(key), value);
  }

  void write(std::ostream& out, const std::string& runId,
             const std::map<std::string, double>& counters) const {
    out << std::setprecision(17);
    out << "{\"run\": \"" << runId << "\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"id\": " << i + 1
          << ", \"parent\": " << s.parent << ", \"run\": \"" << runId
          << "\", \"name\": \"" << s.name << "\", \"start_ns\": " << s.startNs
          << ", \"end_ns\": " << s.endNs;
      if (!s.attrs.empty()) {
        out << ", \"attrs\": {";
        for (std::size_t a = 0; a < s.attrs.size(); ++a) {
          out << (a == 0 ? "" : ", ") << '"' << s.attrs[a].first
              << "\": " << s.attrs[a].second;
        }
        out << '}';
      }
      out << '}';
    }
    out << "\n], \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
      out << (first ? "" : ", ") << '"' << name << "\": " << value;
      first = false;
    }
    out << "}}\n";
  }

 private:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  void close() {
    spans_[open_.back() - 1].endNs = now();
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

using Counters = std::map<std::string, double>;

double histogramSum(const telemetry::Registry& registry, const char* name) {
  const telemetry::Histogram* h = registry.findHistogram(name);
  return h == nullptr ? 0.0 : h->sum();
}

/// Upper edge of the highest non-empty bucket (+Inf maps to the last edge).
double histogramMaxBucket(const telemetry::Registry& registry,
                          const char* name) {
  const telemetry::Histogram* h = registry.findHistogram(name);
  if (h == nullptr) return 0.0;
  const auto counts = h->counts();
  for (std::size_t i = counts.size(); i-- > 0;) {
    if (counts[i] != 0) {
      return h->bounds()[std::min(i, h->bounds().size() - 1)];
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- selfstab

/// SyncRunner seen through the campaign's Runner interface, with a span
/// around every step() and fixpoint check.
template <typename State>
class TracedRunner {
 public:
  TracedRunner(engine::SyncRunner<State>& runner, Tracer& tracer)
      : runner_(runner), tracer_(tracer) {}

  std::size_t step(std::vector<State>& states) {
    const auto s = tracer_.span("engine.step");
    const std::size_t moves = runner_.step(states);
    tracer_.attr("moves", static_cast<double>(moves));
    return moves;
  }
  [[nodiscard]] bool isFixpoint(const std::vector<State>& states) {
    const auto s = tracer_.span("engine.fixpoint");
    return runner_.isFixpoint(states);
  }
  void invalidateSchedule() noexcept { runner_.invalidateSchedule(); }
  [[nodiscard]] std::size_t round() const noexcept { return runner_.round(); }
  [[nodiscard]] std::uint64_t roundKey(std::size_t r) const noexcept {
    return runner_.roundKey(r);
  }

 private:
  engine::SyncRunner<State>& runner_;
  Tracer& tracer_;
};

/// Mirror of drive() in cli/run.cpp for the dense schedule and auto kernel.
template <typename State, typename Sampler>
std::vector<State> driveEngine(const cli::Options& options, Tracer& tracer,
                               telemetry::Registry& registry,
                               const engine::Protocol<State>& protocol,
                               const graph::Graph& g,
                               const graph::IdAssignment& ids,
                               std::size_t autoBudget, Sampler sampler,
                               const chaos::SafetyCheck<State>& safety,
                               cli::Report& report, Counters& counters) {
  const auto installKernel = [&](engine::SyncRunner<State>& runner,
                                 const graph::Graph& topo) {
    const auto s = tracer.span("core.kernel_build");
    auto kernel = core::makeFlatKernel<State>(protocol, topo, ids);
    report.kernel = kernel != nullptr ? "flat" : "generic";
    report.schedule = "dense";
    if (kernel != nullptr) runner.setKernel(std::move(kernel));
  };
  const auto startStates = [&](engine::SyncRunner<State>& runner) {
    const auto s = tracer.span("engine.initial_states");
    if (options.start == cli::StartKind::Clean) return runner.initialStates();
    graph::Rng rng(hashCombine(options.seed, 0x5747u));
    return engine::randomConfiguration<State>(g, rng, sampler);
  };

  if (!options.chaosSpec.empty()) {
    chaos::FaultPlan plan;
    {
      const auto s = tracer.span("chaos.plan");
      plan = chaos::parseChaosSpec(options.chaosSpec, g.order());
    }
    std::optional<graph::Graph> effective;
    {
      const auto s = tracer.span("chaos.setup");
      effective.emplace(g);
    }
    std::optional<engine::SyncRunner<State>> runner;
    {
      const auto s = tracer.span("engine.setup");
      runner.emplace(protocol, *effective, ids, options.seed,
                     options.schedule);
      runner->attachTelemetry(&registry, nullptr);
    }
    installKernel(*runner, *effective);
    std::vector<State> states = startStates(*runner);
    chaos::RecoveryMonitor monitor;
    monitor.attachTelemetry(&registry, nullptr);
    TracedRunner<State> traced(*runner, tracer);
    const chaos::SafetyCheck<State> timedSafety =
        [&](const graph::Graph& topo, const std::vector<State>& before,
            const std::vector<State>& after,
            const std::vector<std::uint8_t>& faulty) {
          const auto s = tracer.span("analysis.safety");
          return safety(topo, before, after, faulty);
        };
    chaos::CampaignResult result;
    {
      const auto s = tracer.span("chaos.campaign");
      result = chaos::runEngineCampaign(
          traced, protocol, *effective, ids, states, plan,
          hashCombine(options.seed, 0xC4A05ULL), options.maxRounds, sampler,
          &monitor, timedSafety);
    }
    report.rounds = result.roundsExecuted;
    report.moves = result.totalMoves;
    report.stabilized = result.finalFixpoint;
    report.chaosActive = true;
    report.chaosFaults = monitor.records().size();
    report.chaosRecoveredAll = result.recoveredAll;
    report.chaosMaxRecoveryRounds = monitor.maxRecoveryRounds();
    report.chaosMaxContainment = monitor.maxContainmentRadius();
    report.chaosSafetyViolations = result.safetyViolations;
    std::vector<double> recovery;
    double unrecovered = 0;
    for (const auto& r : monitor.records()) {
      recovery.push_back(static_cast<double>(r.recoveryRounds));
      if (!r.recovered) ++unrecovered;
    }
    std::sort(recovery.begin(), recovery.end());
    counters["chaos.faults"] = static_cast<double>(recovery.size());
    counters["chaos.unrecovered"] = unrecovered;
    // Nearest-rank percentiles: exact counts, not interpolations.
    const auto nearestRank = [&](double q) {
      if (recovery.empty()) return 0.0;
      const auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(recovery.size())));
      return recovery[std::max<std::size_t>(rank, 1) - 1];
    };
    counters["chaos.recovery_rounds.p50"] = nearestRank(0.5);
    counters["chaos.recovery_rounds.p90"] = nearestRank(0.9);
    return states;
  }

  std::optional<engine::SyncRunner<State>> runner;
  {
    const auto s = tracer.span("engine.setup");
    runner.emplace(protocol, g, ids, options.seed, options.schedule);
    runner->attachTelemetry(&registry, nullptr);
  }
  installKernel(*runner, g);
  std::vector<State> states = startStates(*runner);
  const std::size_t budget =
      options.maxRounds > 0 ? options.maxRounds : autoBudget;
  // SyncRunner::run, unrolled so each round gets its own span.
  TracedRunner<State> traced(*runner, tracer);
  engine::RunResult result;
  {
    const auto s = tracer.span("engine.run");
    while (result.rounds < budget) {
      const std::size_t moves = traced.step(states);
      if (moves == 0 && traced.isFixpoint(states)) {
        result.stabilized = true;
        break;
      }
      ++result.rounds;
      result.totalMoves += moves;
    }
    if (!result.stabilized) result.stabilized = traced.isFixpoint(states);
  }
  report.rounds = result.rounds;
  report.moves = result.totalMoves;
  report.stabilized = result.stabilized;
  return states;
}

/// Checks that `g` is exactly the unit-disk graph of one of the point
/// samples cli::buildGraph draws (it resamples until a sample is connected):
/// every edge within the radius, and as many edges as in-range pairs. A
/// spliced spanning tree fails it.
bool checkUnitDisk(const graph::Graph& g, const cli::GraphSpec& spec,
                   std::uint64_t seed, Counters& counters) {
  // The same derivation and sample budget as cli::buildGraph; a drift shows
  // up here or as a mismatch against the untraced CLI run's report.
  constexpr int kSamples = 64;
  graph::Rng rng(hashCombine(seed, 0x6772617068ULL));
  const double r = spec.param;
  const double r2 = r * r;
  std::vector<graph::Point> pts;
  int sample = 0;
  const auto allEdgesInRange = [&] {
    for (graph::Vertex u = 0; u < g.order(); ++u) {
      for (const graph::Vertex v : g.neighbors(u)) {
        if (!(graph::squaredDistance(pts[u], pts[v]) <= r2)) return false;
      }
    }
    return true;
  };
  for (;; ++sample) {
    if (sample == kSamples) return false;
    pts = graph::randomPoints(spec.n, rng);
    if (allEdgesInRange()) break;
  }
  const auto side = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(1.0 / r)));
  const auto cellCoord = [&](double x) {
    return std::min(side - 1, static_cast<std::size_t>(
                                  x * static_cast<double>(side)));
  };
  std::vector<std::vector<graph::Vertex>> cells(side * side);
  for (graph::Vertex v = 0; v < pts.size(); ++v) {
    cells[cellCoord(pts[v].y) * side + cellCoord(pts[v].x)].push_back(v);
  }
  std::size_t pairs = 0;
  for (std::size_t cy = 0; cy < side; ++cy) {
    for (std::size_t cx = 0; cx < side; ++cx) {
      for (const graph::Vertex u : cells[cy * side + cx]) {
        for (std::size_t ny = (cy == 0 ? 0 : cy - 1);
             ny <= std::min(side - 1, cy + 1); ++ny) {
          for (std::size_t nx = (cx == 0 ? 0 : cx - 1);
               nx <= std::min(side - 1, cx + 1); ++nx) {
            for (const graph::Vertex v : cells[ny * side + nx]) {
              if (u < v && graph::squaredDistance(pts[u], pts[v]) <= r2) {
                ++pairs;
              }
            }
          }
        }
      }
    }
  }
  counters["check.udg_sample"] = sample;
  counters["check.udg_pairs"] = static_cast<double>(pairs);
  return pairs == g.size();
}

int traceSelfstab(const std::vector<std::string>& args, Tracer& tracer,
                  Counters& counters) {
  cli::Options options;
  {
    const auto s = tracer.span("cli.parse");
    options = cli::parseOptions(args);
  }
  if (options.schedule != engine::Schedule::Dense ||
      options.kernel != engine::KernelMode::Auto ||
      !options.metricsPath.empty() || !options.eventsPath.empty() ||
      options.json || options.trace || !options.csvPath.empty() ||
      !options.dotPath.empty() || !options.saveGraphPath.empty()) {
    std::cerr << "perfbench_trace: unsupported selfstab option\n";
    return 1;
  }
  std::optional<graph::Graph> g;
  {
    const auto s = tracer.span("graph.generate");
    g.emplace(cli::buildGraph(options.graph, options.seed));
  }
  if (g->order() == 0) throw cli::CliError("empty graph");
  std::optional<graph::IdAssignment> ids;
  {
    const auto s = tracer.span("graph.ids");
    ids.emplace(cli::buildIds(options.idOrder, g->order(), options.seed));
  }
  std::optional<telemetry::Registry> registry;
  {
    const auto s = tracer.span("telemetry.attach");
    registry.emplace();
  }

  cli::Report report;
  if (options.protocol == cli::ProtocolKind::Smm) {
    const core::SmmProtocol smm = core::smmPaper();
    report.protocol = std::string(smm.name());
    const auto budget = std::max<std::size_t>(g->order() + 2, 16);
    const auto states = driveEngine(
        options, tracer, *registry, smm, *g, *ids, budget,
        core::randomPointerState, chaos::smmSafetyCheck(), report, counters);
    const auto v = tracer.span("analysis.verify");
    const auto pairs = analysis::matchedEdges(*g, states);
    report.predicateOk =
        report.stabilized && analysis::checkMatchingFixpoint(*g, states).ok();
    std::ostringstream summary;
    summary << "matching: " << pairs.size() << " pair(s), "
            << (2 * pairs.size()) << "/" << g->order() << " nodes matched";
    report.summary = summary.str();
  } else if (options.protocol == cli::ProtocolKind::Sis) {
    const core::SisProtocol sis;
    report.protocol = std::string(sis.name());
    const auto states = driveEngine(
        options, tracer, *registry, sis, *g, *ids, g->order() + 1,
        core::randomBitState, chaos::sisSafetyCheck(), report, counters);
    const auto v = tracer.span("analysis.verify");
    const auto members = analysis::membersOf(states);
    report.predicateOk =
        report.stabilized && analysis::isMaximalIndependentSet(*g, members);
    std::ostringstream summary;
    summary << "independent set: " << members.size() << " member(s)";
    report.summary = summary.str();
  } else {
    std::cerr << "perfbench_trace: only -p smm|sis are traced\n";
    return 1;
  }
  report.n = g->order();
  report.m = g->size();
  {
    const auto s = tracer.span("telemetry.collect");
    namespace names = telemetry::names;
    counters["engine.steps"] =
        static_cast<double>(registry->counterValue(names::kRoundsTotal));
    counters["engine.moves"] =
        static_cast<double>(registry->counterValue(names::kMovesTotal));
    counters["engine.evaluations"] =
        static_cast<double>(registry->counterValue(names::kActiveNodes));
    counters["engine.snapshot_s"] =
        histogramSum(*registry, names::kSnapshotDuration);
    counters["engine.evaluate_s"] =
        histogramSum(*registry, names::kEvaluateDuration);
    counters["engine.commit_s"] =
        histogramSum(*registry, names::kCommitDuration);
    counters["graph.edges"] = static_cast<double>(g->size());
  }
  {
    const auto s = tracer.span("cli.report");
    cli::printReport(report, std::cout);
    std::cout.flush();
  }
  if (options.graph.kind == cli::GraphSpec::Kind::Udg) {
    const auto s = tracer.span("bench.check");
    if (!checkUnitDisk(*g, options.graph, options.seed, counters)) {
      std::cerr << "perfbench_trace: graph is not the unit-disk graph of "
                   "its point sample\n";
      return 3;
    }
  }
  return report.predicateOk ? 0 : 2;
}

// ------------------------------------------------------------ selfstab-sim

/// Mirror of driveSim() in cli/sim_run.cpp for SMM under waypoint mobility
/// with --no-early-stop, the one path a workload runs. Each report period is
/// cut into beacon-interval slices of NetworkSimulator::run; run(until) only
/// pops events due by `until`, so the slicing leaves the trajectory unchanged.
cli::SimReport driveSim(const cli::SimOptions& options, Tracer& tracer,
                        telemetry::Registry& registry,
                        const core::SmmProtocol& protocol,
                        const graph::IdAssignment& ids, Counters& counters) {
  using State = core::PointerState;
  std::unique_ptr<adhoc::Mobility> mobility;
  {
    const auto s = tracer.span("graph.generate");
    graph::Rng rng(hashCombine(options.seed, 0x6d6f62ULL));
    std::vector<graph::Point> pts = graph::randomPoints(options.nodes, rng);
    const auto m = tracer.span("adhoc.mobility");
    adhoc::RandomWaypoint::Config wp;
    wp.speedMin = options.speedMin;
    wp.speedMax = options.speedMax;
    wp.stopTime = options.stopTime;
    mobility = std::make_unique<adhoc::RandomWaypoint>(
        std::move(pts), wp, options.seed * 31 + 7);
  }
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
  std::optional<adhoc::NetworkSimulator<State>> sim;
  {
    const auto s = tracer.span("adhoc.setup");
    sim.emplace(protocol, ids, *mobility, config);
    sim->attachTelemetry(&registry, nullptr);
  }
  std::unique_ptr<engine::ViewKernel<State>> viewKernel;
  {
    const auto s = tracer.span("core.kernel_build");
    viewKernel = core::makeViewKernel<State>(protocol);
    sim->setViewKernel(viewKernel.get());
  }
  // Without --chaos the CLI still builds a controller over an empty plan.
  const chaos::FaultPlan plan;
  chaos::RecoveryMonitor monitor;
  std::optional<
      chaos::SimChaosController<State, decltype(&core::randomPointerState)>>
      controller;
  {
    const auto s = tracer.span("chaos.setup");
    monitor.attachTelemetry(&registry, nullptr);
    controller.emplace(*sim, plan, hashCombine(options.seed, 0xC4A05ULL),
                       &core::randomPointerState, options.beaconInterval,
                       monitor);
  }

  std::ostream& out = std::cout;
  out << "time(s)  links  moves  beacons(sent/lost/coll)\n";
  const adhoc::SimTime quietWindow = 5 * options.beaconInterval;
  adhoc::SimTime reached = 0;
  for (adhoc::SimTime t = options.reportEvery; t <= options.duration;
       t += options.reportEvery) {
    {
      const auto s = tracer.span("adhoc.run");
      while (reached < t) {
        reached = std::min(t, reached + options.beaconInterval);
        const auto slice = tracer.span("adhoc.interval");
        sim->run(reached);
      }
    }
    {
      const auto s = tracer.span("cli.timeline");
      std::size_t links = 0;
      {
        const auto topo = tracer.span("adhoc.topology");
        links = sim->currentTopology().size();
      }
      const auto& stats = sim->stats();
      out << std::setw(7) << sim->now() / adhoc::kSecond << "  "
          << std::setw(5) << links << "  " << std::setw(5) << stats.moves
          << "  " << stats.beaconsSent << "/" << stats.beaconsLost << "/"
          << stats.beaconsCollided << '\n';
    }
  }
  {
    const auto s = tracer.span("chaos.finalize");
    controller->finalize();
  }

  cli::SimReport report;
  report.protocol = std::string(protocol.name());
  report.kernel = std::string(engine::toString(sim->kernel()));
  report.nodes = options.nodes;
  report.endTime = sim->now();
  report.quiet = sim->now() - sim->lastMoveTime() >= quietWindow;
  std::optional<graph::Graph> topo;
  std::vector<State> states;
  {
    const auto s = tracer.span("adhoc.topology");
    topo.emplace(sim->currentTopology());
    states = sim->states();
  }
  {
    const auto s = tracer.span("analysis.verify");
    report.predicateOk =
        report.quiet && analysis::checkMatchingFixpoint(*topo, states).ok();
    std::ostringstream summary;
    summary << "matching: " << analysis::matchedEdges(*topo, states).size()
            << " pair(s)";
    report.summary = summary.str();
  }
  const auto& stats = sim->stats();
  report.beaconsSent = stats.beaconsSent;
  report.beaconsDelivered = stats.beaconsDelivered;
  report.beaconsLost = stats.beaconsLost;
  report.beaconsCollided = stats.beaconsCollided;
  report.moves = stats.moves;
  report.ruleEvaluations = stats.ruleEvaluations;
  report.evaluationsSkipped = stats.evaluationsSkipped;
  report.rounds =
      static_cast<std::size_t>(sim->now() / options.beaconInterval);
  report.rangeChecks = sim->indexStats().rangeChecks;
  {
    const auto s = tracer.span("telemetry.collect");
    namespace names = telemetry::names;
    const auto& index = sim->indexStats();
    counters["adhoc.beacons"] = static_cast<double>(stats.beaconsSent);
    counters["adhoc.deliveries"] = static_cast<double>(stats.beaconsDelivered);
    counters["adhoc.range_checks"] = static_cast<double>(index.rangeChecks);
    counters["adhoc.broadcast_candidates"] =
        static_cast<double>(index.broadcastCandidates);
    counters["adhoc.collision_checks"] =
        static_cast<double>(index.collisionChecks);
    counters["adhoc.rule_evaluations"] =
        static_cast<double>(stats.ruleEvaluations);
    counters["adhoc.moves"] = static_cast<double>(stats.moves);
    counters["adhoc.neighbor_expirations"] = static_cast<double>(
        registry.counterValue(names::kNeighborExpirations));
    counters["adhoc.queue_depth.max"] =
        histogramMaxBucket(registry, names::kEventQueueDepth);
    counters["graph.edges"] = static_cast<double>(topo->size());
  }
  return report;
}

int traceSelfstabSim(const std::vector<std::string>& args, Tracer& tracer,
                     Counters& counters) {
  cli::SimOptions options;
  {
    const auto s = tracer.span("cli.parse");
    options = cli::parseSimOptions(args);
  }
  if (options.protocol != cli::SimProtocolKind::Smm ||
      options.mobility != cli::MobilityKind::Waypoint || options.untilQuiet ||
      !options.chaosSpec.empty() ||
      options.kernel != engine::KernelMode::Auto || options.json ||
      !options.metricsPath.empty() || !options.eventsPath.empty()) {
    std::cerr << "perfbench_trace: unsupported selfstab-sim option (traced: "
                 "-p smm --mobility waypoint --no-early-stop)\n";
    return 1;
  }
  std::optional<graph::IdAssignment> ids;
  {
    const auto s = tracer.span("graph.ids");
    ids.emplace(graph::IdAssignment::identity(options.nodes));
  }
  std::optional<telemetry::Registry> registry;
  {
    const auto s = tracer.span("telemetry.attach");
    registry.emplace();
  }
  const core::SmmProtocol smm = core::smmPaper();
  const cli::SimReport report =
      driveSim(options, tracer, *registry, smm, *ids, counters);
  {
    const auto s = tracer.span("cli.report");
    cli::printSimReport(report, std::cout);
    std::cout.flush();
  }
  return report.predicateOk ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Tracer tracer;
  if (argc < 4) {
    std::cerr << "usage: perfbench_trace <run-id> <spans.json> "
                 "selfstab|selfstab-sim <cli args...>\n";
    return 1;
  }
  const std::string runId = argv[1];
  const std::string spansPath = argv[2];
  const std::string tool = argv[3];
  const std::vector<std::string> args(argv + 4, argv + argc);
  Counters counters;
  int code = 1;
  try {
    if (tool == "selfstab") {
      code = traceSelfstab(args, tracer, counters);
    } else if (tool == "selfstab-sim") {
      code = traceSelfstabSim(args, tracer, counters);
    } else {
      std::cerr << "perfbench_trace: unknown tool '" << tool << "'\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << '\n';
    return 1;
  }
  std::ofstream file(spansPath);
  tracer.write(file, runId, counters);
  if (!file) {
    std::cerr << "perfbench_trace: cannot write '" << spansPath << "'\n";
    return 1;
  }
  return code;
}
