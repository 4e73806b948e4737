#include "cli/run.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <numbers>
#include <optional>
#include <ostream>
#include <sstream>

#include "analysis/trace.hpp"
#include "analysis/verifiers.hpp"
#include "chaos/campaign.hpp"
#include "chaos/plan.hpp"
#include "chaos/safety.hpp"
#include "cli/metrics_io.hpp"
#include "core/bfs_tree.hpp"
#include "core/coloring.hpp"
#include "core/dominating_set.hpp"
#include "core/kernels.hpp"
#include "core/local_mutex.hpp"
#include "core/sis.hpp"
#include "core/smm.hpp"
#include "engine/cycle_detection.hpp"
#include "engine/fault.hpp"
#include "engine/sync_runner.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "telemetry/json.hpp"

namespace selfstab::cli {

namespace {

using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

/// Peak resident bytes per edge of a flat-kernel `selfstab` run (Graph,
/// IDs, the kernel's CSR and state mirror): 549 MB for the 14.1M edges of
/// udg:1000000:0.003.
constexpr double kBytesPerEdge = 40.0;

/// Resident bytes per vertex of such a run, an upper estimate: adjacency
/// vector header 24, CSR offset 8, ID 8, state and kernel mirror up to 8
/// each: 56, rounded up.
constexpr double kBytesPerVertex = 64.0;

/// The machine's physical memory, the budget the size checks hold a graph
/// to (infinite if sysconf cannot tell).
double physicalMemoryBytes() {
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long pageSize = sysconf(_SC_PAGE_SIZE);
  return pages > 0 && pageSize > 0
             ? static_cast<double>(pages) * static_cast<double>(pageSize)
             : std::numeric_limits<double>::infinity();
}

/// Optional telemetry sinks threaded from execute() into every driver.
struct Sinks {
  telemetry::Registry* registry = nullptr;
  telemetry::EventLog* events = nullptr;
};

/// Writes the final graph with per-vertex / per-edge annotations.
void writeAnnotatedDot(std::ostream& out, const Graph& g,
                       const std::vector<std::string>& vertexAttrs,
                       const std::vector<std::pair<graph::Edge, std::string>>&
                           edgeAttrs) {
  out << "graph selfstab {\n  node [shape=circle];\n";
  for (Vertex v = 0; v < g.order(); ++v) {
    out << "  " << v;
    if (!vertexAttrs[v].empty()) out << " [" << vertexAttrs[v] << "]";
    out << ";\n";
  }
  for (const auto& e : g.edges()) {
    out << "  " << e.u << " -- " << e.v;
    for (const auto& [edge, attr] : edgeAttrs) {
      if (edge == e) {
        out << " [" << attr << "]";
        break;
      }
    }
    out << ";\n";
  }
  out << "}\n";
}

void maybeWriteDot(const Options& options, const Graph& g,
                   const std::vector<std::string>& vertexAttrs,
                   const std::vector<std::pair<graph::Edge, std::string>>&
                       edgeAttrs) {
  if (options.dotPath.empty()) return;
  std::ofstream file(options.dotPath);
  if (!file) throw CliError("cannot write DOT file '" + options.dotPath + "'");
  writeAnnotatedDot(file, g, vertexAttrs, edgeAttrs);
}

/// Installs the compiled SoA kernel on the runner per --kernel and records
/// the path actually taken in the report. Auto silently falls back to the
/// generic LocalView path for protocols without a kernel; an explicit
/// `--kernel flat` there is a usage error. `g` and `ids` must be the very
/// objects the runner was built over (the mutable chaos copy under
/// --chaos): the kernel's CSR becomes the topology the runner reads, and
/// setKernel throws std::invalid_argument for any other objects.
template <typename State>
void installKernel(engine::SyncRunner<State>& runner,
                   const engine::Protocol<State>& protocol, const Graph& g,
                   const IdAssignment& ids, const Options& options,
                   Report& report) {
  report.schedule = std::string(engine::toString(options.schedule));
  report.kernel = std::string(engine::toString(engine::Kernel::Generic));
  if (options.kernel == engine::KernelMode::Generic) return;
  auto kernel = core::makeFlatKernel<State>(protocol, g, ids);
  if (kernel == nullptr) {
    if (options.kernel == engine::KernelMode::Flat) {
      throw CliError("--kernel flat: protocol '" +
                     std::string(protocol.name()) +
                     "' has no flat kernel (try --kernel auto)");
    }
    return;
  }
  runner.setKernel(std::move(kernel));
  report.kernel = std::string(engine::toString(engine::Kernel::Flat));
}

/// Shared driver: runs `protocol` from the configured start, tracing if
/// requested; fills the run-related Report fields. `metric` maps a
/// configuration to the solution size recorded in the CSV trace (matched
/// pairs, set members, colors, tree depth, ...).
template <typename State, typename Sampler, typename Metric>
std::vector<State> drive(const Options& options, const Sinks& sinks,
                         const engine::Protocol<State>& protocol,
                         const Graph& g, const IdAssignment& ids,
                         std::size_t autoBudget, Sampler sampler,
                         Metric metric, std::ostream& out, Report& report,
                         const chaos::SafetyCheck<State>& safety = {}) {
  if (!options.chaosSpec.empty()) {
    // Fault campaign: the runner owns a mutable copy of the topology (crash
    // and partition events mask edges in place); the caller's graph stays
    // the base topology its verifiers expect. --max-rounds, if set, caps
    // each fault's recovery window instead of the whole run.
    const chaos::FaultPlan plan =
        chaos::parseChaosSpec(options.chaosSpec, g.order());
    Graph effective = g;
    engine::SyncRunner<State> runner(protocol, effective, ids, options.seed,
                                     options.schedule);
    runner.attachTelemetry(sinks.registry, sinks.events);
    installKernel(runner, protocol, effective, ids, options, report);
    std::vector<State> states;
    if (options.start == StartKind::Clean) {
      states = runner.initialStates();
    } else {
      graph::Rng rng(hashCombine(options.seed, 0x5747u));
      states = engine::randomConfiguration<State>(g, rng, sampler);
    }
    chaos::RecoveryMonitor monitor;
    monitor.attachTelemetry(sinks.registry, sinks.events);
    const chaos::CampaignResult result = chaos::runEngineCampaign(
        runner, protocol, effective, ids, states, plan,
        hashCombine(options.seed, 0xC4A05ULL), options.maxRounds, sampler,
        &monitor, safety);
    report.rounds = result.roundsExecuted;
    report.moves = result.totalMoves;
    report.stabilized = result.finalFixpoint;
    report.chaosActive = true;
    report.chaosFaults = monitor.records().size();
    report.chaosRecoveredAll = result.recoveredAll;
    report.chaosMaxRecoveryRounds = monitor.maxRecoveryRounds();
    report.chaosMaxContainment = monitor.maxContainmentRadius();
    report.chaosSafetyViolations = result.safetyViolations;
    if (options.trace) {
      for (const auto& r : monitor.records()) {
        out << "fault @" << r.at << " " << r.kind << ": "
            << (r.recovered ? "recovered" : "NOT recovered") << " in "
            << r.recoveryRounds << " round(s), containment "
            << r.containmentRadius << '\n';
      }
    }
    return states;
  }

  engine::SyncRunner<State> runner(protocol, g, ids, options.seed,
                                   options.schedule);
  runner.attachTelemetry(sinks.registry, sinks.events);
  installKernel(runner, protocol, g, ids, options, report);
  std::vector<State> states;
  if (options.start == StartKind::Clean) {
    states = runner.initialStates();
  } else {
    graph::Rng rng(hashCombine(options.seed, 0x5747u));
    states = engine::randomConfiguration<State>(g, rng, sampler);
  }
  const std::size_t budget =
      options.maxRounds > 0 ? options.maxRounds : autoBudget;

  analysis::RoundTrace trace({"round", "moves", "size"});
  const bool wantRows = options.trace || !options.csvPath.empty();

  engine::RunResult result;
  if (wantRows) {
    trace.addRow({0.0, 0.0, metric(states)});
    result = runner.run(
        states, budget,
        [&](std::size_t round, const std::vector<State>&,
            const std::vector<State>& after, std::size_t moves) {
          if (options.trace) {
            out << "round " << round << ": " << moves << " move(s)\n";
          }
          trace.addRow({static_cast<double>(round + 1),
                        static_cast<double>(moves), metric(after)});
        });
  } else {
    result = runner.run(states, budget);
  }
  if (!options.csvPath.empty()) {
    std::ofstream csv(options.csvPath);
    if (!csv) {
      throw CliError("cannot write CSV file '" + options.csvPath + "'");
    }
    trace.writeCsv(csv);
  }
  report.rounds = result.rounds;
  report.moves = result.totalMoves;
  report.stabilized = result.stabilized;
  return states;
}

/// Metric: matched pairs in the configuration.
inline auto matchingMetric(const Graph& g) {
  return [&g](const std::vector<core::PointerState>& states) {
    return static_cast<double>(analysis::matchedEdges(g, states).size());
  };
}

/// Metric: set membership count (works for any state with an `in` bit).
template <typename State>
auto membershipMetric() {
  return [](const std::vector<State>& states) {
    std::size_t count = 0;
    for (const auto& s : states) count += s.in ? 1 : 0;
    return static_cast<double>(count);
  };
}

Report runMatching(const Options& options, const Sinks& sinks, const Graph& g,
                   const IdAssignment& ids, std::ostream& out) {
  Report report;
  std::vector<core::PointerState> states;

  const std::size_t budget = std::max<std::size_t>(g.order() + 2, 16);
  if (options.protocol == ProtocolKind::Smm) {
    const core::SmmProtocol smm = core::smmPaper();
    report.protocol = std::string(smm.name());
    states = drive(options, sinks, smm, g, ids, budget, core::randomPointerState,
                   matchingMetric(g), out, report, chaos::smmSafetyCheck());
  } else if (options.protocol == ProtocolKind::SmmArbitrary) {
    const core::SmmProtocol broken =
        core::smmArbitrary(core::Choice::Successor);
    report.protocol = std::string(broken.name());
    states = drive(options, sinks, broken, g, ids, 4 * g.order() + 64,
                   core::randomPointerState, matchingMetric(g), out, report);
    if (!report.stabilized) {
      // Deterministic protocol: certify the livelock by finding the cycle.
      engine::SyncRunner<core::PointerState> probe(broken, g, ids);
      auto start = options.start == StartKind::Clean
                       ? probe.initialStates()
                       : states;  // wherever we ended up still cycles
      const auto trajectory = engine::traceTrajectory(
          broken, g, ids, std::move(start), 4 * g.order() + 64);
      report.livelockCertified = trajectory.cycled;
    }
  } else {  // HsuHuangSync
    const core::Synchronized<core::SmmProtocol> wrapped(core::Choice::First,
                                                        core::Choice::First);
    report.protocol = std::string(wrapped.name());
    states = drive(options, sinks, wrapped, g, ids, 64 * g.order() + 256,
                   core::randomPointerState, matchingMetric(g), out, report);
  }

  const auto pairs = analysis::matchedEdges(g, states);
  report.predicateOk =
      report.stabilized && analysis::checkMatchingFixpoint(g, states).ok();
  std::ostringstream summary;
  summary << "matching: " << pairs.size() << " pair(s), "
          << (2 * pairs.size()) << "/" << g.order() << " nodes matched";
  report.summary = summary.str();

  std::vector<std::string> vattrs(g.order());
  std::vector<std::pair<graph::Edge, std::string>> eattrs;
  for (const auto& e : pairs) {
    vattrs[e.u] = vattrs[e.v] = "style=filled,fillcolor=lightblue";
    eattrs.emplace_back(e, "penwidth=3,color=blue");
  }
  maybeWriteDot(options, g, vattrs, eattrs);
  return report;
}

Report runSis(const Options& options, const Sinks& sinks, const Graph& g,
              const IdAssignment& ids, std::ostream& out) {
  Report report;
  const core::SisProtocol sis;
  report.protocol = std::string(sis.name());
  auto states = drive(options, sinks, sis, g, ids, g.order() + 1,
                      core::randomBitState, membershipMetric<core::BitState>(),
                      out, report, chaos::sisSafetyCheck());
  const auto members = analysis::membersOf(states);
  report.predicateOk =
      report.stabilized && analysis::isMaximalIndependentSet(g, members);
  std::ostringstream summary;
  summary << "independent set: " << members.size() << " member(s)";
  report.summary = summary.str();

  std::vector<std::string> vattrs(g.order());
  for (const Vertex v : members) {
    vattrs[v] = "style=filled,fillcolor=gold";
  }
  maybeWriteDot(options, g, vattrs, {});
  return report;
}

Report runColoring(const Options& options, const Sinks& sinks, const Graph& g,
                   const IdAssignment& ids, std::ostream& out) {
  Report report;
  const core::ColoringProtocol coloring;
  report.protocol = std::string(coloring.name());
  auto states = drive(
      options, sinks, coloring, g, ids, g.order() + 1, core::randomColorState,
      [](const std::vector<core::ColorState>& st) {
        return static_cast<double>(analysis::colorCount(st));
      },
      out, report);
  report.predicateOk =
      report.stabilized && analysis::isProperColoring(g, states);
  std::ostringstream summary;
  summary << "proper coloring with " << analysis::colorCount(states)
          << " color(s) (Delta+1 = " << g.maxDegree() + 1 << ")";
  report.summary = summary.str();

  static const char* kPalette[] = {"lightblue",  "gold",   "palegreen",
                                   "lightcoral", "plum",   "khaki",
                                   "lightgray",  "orange", "cyan"};
  std::vector<std::string> vattrs(g.order());
  for (Vertex v = 0; v < g.order(); ++v) {
    vattrs[v] = std::string("style=filled,fillcolor=") +
                kPalette[states[v].color % 9] + ",label=\"" +
                std::to_string(v) + ":" + std::to_string(states[v].color) +
                "\"";
  }
  maybeWriteDot(options, g, vattrs, {});
  return report;
}

Report runDominatingSet(const Options& options, const Sinks& sinks,
                        const Graph& g, const IdAssignment& ids,
                        std::ostream& out) {
  Report report;
  const core::Synchronized<core::DominatingSetProtocol> dom;
  report.protocol = std::string(dom.name());
  auto states = drive(options, sinks, dom, g, ids, 64 * g.order() + 256,
                      core::randomDomState,
                      membershipMetric<core::DomState>(), out, report);
  const auto members = analysis::membersOf(states);
  report.predicateOk =
      report.stabilized && analysis::isMinimalDominatingSet(g, members);
  std::ostringstream summary;
  summary << "minimal dominating set: " << members.size() << " member(s)";
  report.summary = summary.str();

  std::vector<std::string> vattrs(g.order());
  for (const Vertex v : members) {
    vattrs[v] = "style=filled,fillcolor=lightcoral";
  }
  maybeWriteDot(options, g, vattrs, {});
  return report;
}

Report runBfsTree(const Options& options, const Sinks& sinks,
                  const Graph& g, const IdAssignment& ids,
                  std::ostream& out) {
  Report report;
  // Root: the vertex holding the smallest ID (deterministic under every
  // --ids mode).
  Vertex root = 0;
  for (Vertex v = 1; v < g.order(); ++v) {
    if (ids.less(v, root)) root = v;
  }
  const auto cap = static_cast<std::uint32_t>(std::max<std::size_t>(
      g.order(), 1));
  const core::BfsTreeProtocol bfs(ids.idOf(root), cap);
  report.protocol = std::string(bfs.name());
  auto states = drive(
      options, sinks, bfs, g, ids, 3 * g.order() + 8, core::randomTreeState,
      [cap](const std::vector<core::TreeState>& st) {
        std::uint32_t depth = 0;
        for (const auto& t : st) {
          if (t.dist < cap) depth = std::max(depth, t.dist);
        }
        return static_cast<double>(depth);
      },
      out, report);
  report.predicateOk =
      report.stabilized &&
      analysis::isShortestPathTree(g, ids, root, cap, states);
  std::uint32_t depth = 0;
  for (const auto& s : states) {
    if (s.dist < cap) depth = std::max(depth, s.dist);
  }
  std::ostringstream summary;
  summary << "BFS tree rooted at " << root << ", depth " << depth;
  report.summary = summary.str();

  std::vector<std::string> vattrs(g.order());
  vattrs[root] = "style=filled,fillcolor=gold";
  std::vector<std::pair<graph::Edge, std::string>> eattrs;
  for (Vertex v = 0; v < g.order(); ++v) {
    if (v != root && states[v].parent != graph::kNoVertex) {
      eattrs.emplace_back(graph::makeEdge(v, states[v].parent),
                          "penwidth=3,color=forestgreen");
    }
  }
  maybeWriteDot(options, g, vattrs, eattrs);
  return report;
}

Report runLeaderTree(const Options& options, const Sinks& sinks,
                     const Graph& g, const IdAssignment& ids,
                     std::ostream& out) {
  Report report;
  const auto cap = static_cast<std::uint32_t>(std::max<std::size_t>(
      g.order(), 1));
  const core::LeaderTreeProtocol protocol(cap);
  report.protocol = std::string(protocol.name());
  auto states = drive(
      options, sinks, protocol, g, ids, 3 * g.order() + 8, core::randomLeaderState,
      [](const std::vector<core::LeaderState>& st) {
        std::uint32_t depth = 0;
        for (const auto& t : st) depth = std::max(depth, t.dist);
        return static_cast<double>(depth);
      },
      out, report);
  report.predicateOk =
      report.stabilized && analysis::isLeaderTree(g, ids, states);

  // Elected leader (of vertex 0's component — the whole graph if connected).
  Vertex leader = graph::kNoVertex;
  for (Vertex v = 0; v < g.order(); ++v) {
    if (ids.idOf(v) == states[0].root) {
      leader = v;
      break;
    }
  }
  std::uint32_t depth = 0;
  for (const auto& s : states) {
    if (s.root == states[0].root) depth = std::max(depth, s.dist);
  }
  std::ostringstream summary;
  summary << "leader " << leader << " (id " << states[0].root
          << "), tree depth " << depth;
  report.summary = summary.str();

  std::vector<std::string> vattrs(g.order());
  if (leader != graph::kNoVertex) {
    vattrs[leader] = "style=filled,fillcolor=gold";
  }
  std::vector<std::pair<graph::Edge, std::string>> eattrs;
  for (Vertex v = 0; v < g.order(); ++v) {
    if (states[v].parent != graph::kNoVertex) {
      eattrs.emplace_back(graph::makeEdge(v, states[v].parent),
                          "penwidth=3,color=forestgreen");
    }
  }
  maybeWriteDot(options, g, vattrs, eattrs);
  return report;
}

}  // namespace

double estimateEdges(const GraphSpec& spec) {
  const auto n = static_cast<double>(spec.n);
  const double pairs = n * (n - 1) / 2;
  switch (spec.kind) {
    case GraphSpec::Kind::Path:
    case GraphSpec::Kind::Star:
    case GraphSpec::Kind::Tree:
      return n > 0 ? n - 1 : 0;
    case GraphSpec::Kind::Cycle:
      return n;
    case GraphSpec::Kind::Complete:
      return pairs;
    case GraphSpec::Kind::Grid: {
      const auto cols = static_cast<double>(spec.cols);
      return n > 0 && cols > 0 ? n * (cols - 1) + cols * (n - 1) : 0;
    }
    case GraphSpec::Kind::Gnp:
      return spec.param * pairs;
    case GraphSpec::Kind::Udg:
      return pairs *
             std::min(1.0, std::numbers::pi * spec.param * spec.param);
    case GraphSpec::Kind::File:
      break;
  }
  return 0;
}

void checkGraphSize(const GraphSpec& spec, double memoryBytes) {
  if (spec.kind == GraphSpec::Kind::File) return;
  const double vertices =
      static_cast<double>(spec.n) *
      (spec.kind == GraphSpec::Kind::Grid ? static_cast<double>(spec.cols)
                                          : 1.0);
  std::ostringstream msg;
  msg << std::fixed << std::setprecision(0);
  if (vertices >= static_cast<double>(graph::kNoVertex)) {
    msg << "graph too large: " << vertices << " vertices (the limit is "
        << graph::kNoVertex - 1 << ")";
    throw CliError(msg.str());
  }
  const double edges = estimateEdges(spec);
  const double bytes = edges * kBytesPerEdge;
  if (bytes > memoryBytes) {
    msg << "graph too large: ~" << edges << " edges estimated, ~"
        << std::setprecision(1) << bytes / 1e9 << " GB at "
        << std::setprecision(0) << kBytesPerEdge << " B per edge, over the "
        << std::setprecision(1) << memoryBytes / 1e9
        << " GB of physical memory";
    throw CliError(msg.str());
  }
}

void checkGraphFileHeader(const std::string& path, std::uint64_t vertices,
                          std::uint64_t edges, double memoryBytes) {
  const double bytes = static_cast<double>(vertices) * kBytesPerVertex +
                       static_cast<double>(edges) * kBytesPerEdge;
  if (bytes <= memoryBytes) return;
  std::ostringstream msg;
  msg << std::fixed << std::setprecision(1) << "bad graph file '" << path
      << "': its header declares " << vertices << " vertices and " << edges
      << " edges, ~" << bytes / 1e9 << " GB at " << std::setprecision(0)
      << kBytesPerVertex << " B per vertex and " << kBytesPerEdge
      << " B per edge, over the " << std::setprecision(1)
      << memoryBytes / 1e9 << " GB of physical memory";
  throw CliError(msg.str());
}

Graph buildGraph(const GraphSpec& spec, std::uint64_t seed) {
  const double memory = physicalMemoryBytes();
  checkGraphSize(spec, memory);
  graph::Rng rng(hashCombine(seed, 0x6772617068ULL));
  switch (spec.kind) {
    case GraphSpec::Kind::Path:
      return graph::path(spec.n);
    case GraphSpec::Kind::Cycle:
      return graph::cycle(spec.n);
    case GraphSpec::Kind::Star:
      return graph::star(spec.n);
    case GraphSpec::Kind::Complete:
      return graph::complete(spec.n);
    case GraphSpec::Kind::Grid:
      return graph::grid(spec.n, spec.cols);
    case GraphSpec::Kind::Tree:
      return graph::randomTree(spec.n, rng);
    case GraphSpec::Kind::Gnp:
      return graph::connectedErdosRenyi(spec.n, spec.param, rng);
    case GraphSpec::Kind::Udg:
      return graph::connectedRandomGeometric(spec.n, spec.param, rng);
    case GraphSpec::Kind::File: {
      std::ifstream file(spec.path);
      if (!file) throw CliError("cannot open graph file '" + spec.path + "'");
      try {
        return graph::readEdgeList(
            file, [&](std::uint64_t vertices, std::uint64_t edges) {
              checkGraphFileHeader(spec.path, vertices, edges, memory);
            });
      } catch (const graph::ParseError& e) {
        throw CliError("bad graph file '" + spec.path + "': " + e.what());
      }
    }
  }
  throw CliError("unhandled graph kind");
}

IdAssignment buildIds(IdOrderKind kind, std::size_t n, std::uint64_t seed) {
  switch (kind) {
    case IdOrderKind::Identity:
      return IdAssignment::identity(n);
    case IdOrderKind::Reversed:
      return IdAssignment::reversed(n);
    case IdOrderKind::Random: {
      graph::Rng rng(hashCombine(seed, 0x696473ULL));
      return IdAssignment::randomPermutation(n, rng);
    }
  }
  throw CliError("unhandled id order");
}

Report execute(const Options& options, std::ostream& out) {
  const Graph g = buildGraph(options.graph, options.seed);
  if (g.order() == 0) throw CliError("empty graph");
  if (!options.saveGraphPath.empty()) {
    std::ofstream file(options.saveGraphPath);
    if (!file) {
      throw CliError("cannot write graph file '" + options.saveGraphPath +
                     "'");
    }
    graph::writeEdgeList(file, g);
  }
  const IdAssignment ids = buildIds(options.idOrder, g.order(), options.seed);

  // Telemetry is opt-in: with neither flag given the runners see null sinks
  // and instrument nothing. --json also needs a registry, to harvest the
  // evaluations_per_second gauge into the report.
  std::optional<telemetry::Registry> registry;
  if (!options.metricsPath.empty() || options.json) registry.emplace();
  EventSink events(options.eventsPath, out);
  Sinks sinks{registry.has_value() ? &*registry : nullptr, events.get()};

  Report report;
  switch (options.protocol) {
    case ProtocolKind::Smm:
    case ProtocolKind::SmmArbitrary:
    case ProtocolKind::HsuHuangSync:
      report = runMatching(options, sinks, g, ids, out);
      break;
    case ProtocolKind::Sis:
      report = runSis(options, sinks, g, ids, out);
      break;
    case ProtocolKind::Coloring:
      report = runColoring(options, sinks, g, ids, out);
      break;
    case ProtocolKind::DominatingSet:
      report = runDominatingSet(options, sinks, g, ids, out);
      break;
    case ProtocolKind::BfsTree:
      report = runBfsTree(options, sinks, g, ids, out);
      break;
    case ProtocolKind::LeaderTree:
      report = runLeaderTree(options, sinks, g, ids, out);
      break;
  }
  report.n = g.order();
  report.m = g.size();
  if (registry.has_value()) {
    report.evaluationsPerSecond =
        registry->gaugeValue(telemetry::names::kEvaluationsPerSecond);
    if (!options.metricsPath.empty()) {
      writeMetricsDump(*registry, options.metricsPath, out);
    }
  }
  return report;
}

void printReport(const Report& report, std::ostream& out) {
  out << "protocol    : " << report.protocol << '\n'
      << "graph       : " << report.n << " nodes, " << report.m << " edges\n"
      << "stabilized  : " << (report.stabilized ? "yes" : "NO");
  if (report.livelockCertified) out << " (livelock certified: configuration repeats)";
  out << '\n'
      << "rounds      : " << report.rounds << '\n'
      << "moves       : " << report.moves << '\n';
  if (!report.kernel.empty()) {
    out << "kernel      : " << report.kernel << " (" << report.schedule
        << " schedule)\n";
  }
  out << "result      : " << report.summary << '\n'
      << "verified    : " << (report.predicateOk ? "yes" : "NO") << '\n';
  if (report.chaosActive) {
    out << "chaos       : " << report.chaosFaults << " fault(s), "
        << (report.chaosRecoveredAll ? "all recovered" : "NOT all recovered")
        << ", worst recovery " << report.chaosMaxRecoveryRounds
        << " round(s), worst containment " << report.chaosMaxContainment
        << ", safety violations " << report.chaosSafetyViolations << '\n';
  }
}

void printReportJson(const Report& report, std::ostream& out) {
  telemetry::JsonWriter w(out);
  w.beginObject();
  w.key("protocol").value(report.protocol);
  w.key("n").value(static_cast<std::uint64_t>(report.n));
  w.key("m").value(static_cast<std::uint64_t>(report.m));
  w.key("rounds").value(static_cast<std::uint64_t>(report.rounds));
  w.key("moves").value(static_cast<std::uint64_t>(report.moves));
  w.key("stabilized").value(report.stabilized);
  w.key("livelockCertified").value(report.livelockCertified);
  w.key("predicateOk").value(report.predicateOk);
  w.key("kernel").value(report.kernel);
  w.key("schedule").value(report.schedule);
  w.key("evaluationsPerSecond").value(report.evaluationsPerSecond);
  w.key("summary").value(report.summary);
  if (report.chaosActive) {
    w.key("chaosFaults").value(static_cast<std::uint64_t>(report.chaosFaults));
    w.key("chaosRecoveredAll").value(report.chaosRecoveredAll);
    w.key("chaosMaxRecoveryRounds")
        .value(static_cast<std::uint64_t>(report.chaosMaxRecoveryRounds));
    w.key("chaosMaxContainment")
        .value(static_cast<std::uint64_t>(report.chaosMaxContainment));
    w.key("chaosSafetyViolations")
        .value(static_cast<std::uint64_t>(report.chaosSafetyViolations));
  }
  w.endObject();
  out << '\n';
}

}  // namespace selfstab::cli
