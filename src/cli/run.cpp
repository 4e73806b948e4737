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
#include "parallel/spin_team.hpp"
#include "parallel/workers.hpp"
#include "telemetry/json.hpp"

namespace selfstab::cli {

namespace {

using graph::Graph;
using graph::IdAssignment;
using graph::Vertex;

/// Resident bytes per edge a `selfstab` run may need, an upper bound. The
/// Graph is one CSR holding each edge twice in its slices (2 B per slot
/// when narrow, 4 B when wide; no per-slot neighbor ID), at most 8 B per
/// edge, and no layer copies it: a unit-disk build counts each slice and
/// then writes it in place, so it holds no second copy. `--chaos` edits
/// that Graph in place; once a crash or partition reshapes it, the
/// campaign holds a base copy and, during each reshape, the new CSR: at
/// most 8 B each. The bound of 40 B covers the 24 B with room to spare.
constexpr double kBytesPerEdge = 40.0;

/// Resident bytes per vertex of such a run, an upper estimate: 52 while a
/// unit-disk graph is built (CSR offset 8, point 16, its cell 8, slot 4
/// that stays on as the vertex's label, and cell-ordered copy 16), and at
/// most 52 afterwards: CSR offset 8 and label 4; ID 8, or 16 while the
/// external IDs are gathered into the graph's order; and up to 16 for the
/// state (a leader tree's), 8 for the kernel mirror and 8 for a kernel
/// cache such as SMM's verified pointers. A random start's transient
/// inverse labels or drawn ranks (4) are freed before the first round.
/// Rounded up to 64.
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

/// The vertex whose external number is x (a scan; reports ask once).
Vertex vertexLabelled(const Graph& g, Vertex x) {
  const auto labels = g.labels();
  if (labels.empty()) return x;
  return static_cast<Vertex>(std::find(labels.begin(), labels.end(), x) -
                             labels.begin());
}

/// Vertices per internalIds worker, and per claimed block.
constexpr std::size_t kIdGrain = 16384;
constexpr std::size_t kIdBlock = 4096;

/// buildIds(kind, n, seed), which numbers external vertices, in g's own
/// numbering: vertex v gets the ID of its label. Identity and reversed IDs
/// are computed from the label directly; random ones are drawn in the
/// external frame first. One pass on the team.
IdAssignment internalIds(IdOrderKind kind, const Graph& g,
                         std::uint64_t seed) {
  const std::size_t n = g.order();
  if (!g.labelled()) return buildIds(kind, n, seed);
  const IdAssignment drawn = kind == IdOrderKind::Random
                                 ? buildIds(kind, n, seed)
                                 : IdAssignment();
  IdAssignment::Ids ids(n);
  parallel::forEachBlock(
      parallel::workersFor(n, kIdGrain), n, kIdBlock,
      [&](std::size_t b, std::size_t e) {
        for (auto v = static_cast<Vertex>(b); v < e; ++v) {
          const Vertex x = g.labelOf(v);
          ids[v] = kind == IdOrderKind::Identity   ? graph::Id{x}
                   : kind == IdOrderKind::Reversed ? graph::Id{n - 1 - x}
                                                   : drawn.idOf(x);
        }
      });
  return IdAssignment(std::move(ids));
}

/// Optional telemetry sinks threaded from execute() into every driver.
struct Sinks {
  telemetry::Registry* registry = nullptr;
  telemetry::EventLog* events = nullptr;
};

/// Writes the --dot file, if one was asked for, with the annotations
/// annotate(vertexAttrs, edgeAttrs) fills in, in g's own numbering (the
/// writer prints external numbers). Without --dot nothing is
/// built: at 10^6 nodes the strings alone would take about 100 MB.
template <typename Annotate>
void maybeWriteDot(const Options& options, const Graph& g,
                   const Annotate& annotate) {
  if (options.dotPath.empty()) return;
  std::vector<std::string> vertexAttrs(g.order());
  std::vector<std::pair<graph::Edge, std::string>> edgeAttrs;
  annotate(vertexAttrs, edgeAttrs);
  std::ofstream file(options.dotPath);
  if (!file) throw CliError("cannot write DOT file '" + options.dotPath + "'");
  writeAnnotatedDot(file, g, vertexAttrs, std::move(edgeAttrs));
}

/// Installs the compiled SoA kernel on the runner per --kernel and records
/// the path actually taken in the report. Auto silently falls back to the
/// generic LocalView path for protocols without a kernel; an explicit
/// `--kernel flat` there is a usage error. `g` and `ids` must be the very
/// objects the runner was built over: the kernel reads the same CSR, and
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
/// pairs, set members, colors, tree depth, ...). `g` is mutable for --chaos
/// alone: a campaign edits it in place and hands it back unchanged.
template <typename State, typename Sampler, typename Metric>
std::vector<State> drive(const Options& options, const Sinks& sinks,
                         const engine::Protocol<State>& protocol,
                         Graph& g, const IdAssignment& ids,
                         std::size_t autoBudget, Sampler sampler,
                         Metric metric, std::ostream& out, Report& report,
                         const chaos::SafetyCheck<State>& safety = {}) {
  // Trajectories and event logs are identical at every thread count, so the
  // count is the machine's business, not an option.
  const std::size_t threads = roundThreads(g.order());
  std::optional<chaos::FaultPlan> plan;
  if (!options.chaosSpec.empty()) {
    plan = chaos::parseChaosSpec(options.chaosSpec, g.order());
    chaos::toInternalFrame(*plan, g);
  }
  engine::SyncRunner<State> runner(protocol, g, ids, options.seed,
                                   options.schedule, threads);
  runner.attachTelemetry(sinks.registry, sinks.events);
  installKernel(runner, protocol, g, ids, options, report);
  std::vector<State> states;
  if (options.start == StartKind::Clean) {
    states = runner.initialStates();
  } else {
    graph::Rng rng(hashCombine(options.seed, 0x5747u));
    states = engine::randomConfiguration<State>(g, rng, sampler);
  }
  const auto recordLedger = [&] {
    recordBulkBytes(sinks.registry, g, ids, states.capacity() * sizeof(State),
                    runner.kernelMirrorBytes());
  };
  if (plan.has_value()) {
    // Fault campaign: crash and partition events mask edges of `g` in
    // place, and the campaign rebuilds the base topology the verifiers
    // expect before it returns. --max-rounds, if set, caps each fault's
    // recovery window instead of the whole run.
    chaos::RecoveryMonitor monitor;
    monitor.attachTelemetry(sinks.registry, sinks.events);
    const chaos::CampaignResult result = chaos::runEngineCampaign(
        runner, protocol, g, ids, states, *plan,
        hashCombine(options.seed, 0xC4A05ULL), options.maxRounds, sampler,
        &monitor, safety);
    recordLedger();
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
  recordLedger();
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

Report runMatching(const Options& options, const Sinks& sinks, Graph& g,
                   const IdAssignment& ids, std::ostream& out) {
  Report report;
  std::vector<core::PointerState> states;

  const std::size_t budget = std::max<std::size_t>(g.order() + 2, 16);
  if (options.protocol == ProtocolKind::Smm) {
    const core::SmmProtocol smm = core::smmPaper();
    report.protocol = std::string(smm.name());
    states = drive(options, sinks, smm, g, ids, budget, core::RandomPointer{},
                   matchingMetric(g), out, report, chaos::smmSafetyCheck());
  } else if (options.protocol == ProtocolKind::SmmArbitrary) {
    const core::SmmProtocol broken =
        core::smmArbitrary(core::Choice::Successor);
    report.protocol = std::string(broken.name());
    states = drive(options, sinks, broken, g, ids, 4 * g.order() + 64,
                   core::RandomPointer{}, matchingMetric(g), out, report);
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
                   core::RandomPointer{}, matchingMetric(g), out, report);
  }

  const analysis::MatchingFixpointCheck check =
      analysis::checkMatchingFixpoint(g, states);
  report.predicateOk = report.stabilized && check.ok();
  std::ostringstream summary;
  summary << "matching: " << check.matchedPairs << " pair(s), "
          << (2 * check.matchedPairs) << "/" << g.order() << " nodes matched";
  report.summary = summary.str();

  maybeWriteDot(options, g, [&](auto& vattrs, auto& eattrs) {
    for (const auto& e : analysis::matchedEdges(g, states)) {
      vattrs[e.u] = vattrs[e.v] = "style=filled,fillcolor=lightblue";
      eattrs.emplace_back(e, "penwidth=3,color=blue");
    }
  });
  return report;
}

Report runSis(const Options& options, const Sinks& sinks, Graph& g,
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

  maybeWriteDot(options, g, [&](auto& vattrs, auto&) {
    for (const Vertex v : members) vattrs[v] = "style=filled,fillcolor=gold";
  });
  return report;
}

Report runColoring(const Options& options, const Sinks& sinks, Graph& g,
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

  maybeWriteDot(options, g, [&](auto& vattrs, auto&) {
    static const char* kPalette[] = {"lightblue",  "gold",   "palegreen",
                                     "lightcoral", "plum",   "khaki",
                                     "lightgray",  "orange", "cyan"};
    for (Vertex v = 0; v < g.order(); ++v) {
      vattrs[v] = std::string("style=filled,fillcolor=") +
                  kPalette[states[v].color % 9] + ",label=\"" +
                  std::to_string(g.labelOf(v)) + ":" +
                  std::to_string(states[v].color) +
                  "\"";
    }
  });
  return report;
}

Report runDominatingSet(const Options& options, const Sinks& sinks,
                        Graph& g, const IdAssignment& ids,
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

  maybeWriteDot(options, g, [&](auto& vattrs, auto&) {
    for (const Vertex v : members) {
      vattrs[v] = "style=filled,fillcolor=lightcoral";
    }
  });
  return report;
}

Report runBfsTree(const Options& options, const Sinks& sinks,
                  Graph& g, const IdAssignment& ids,
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
  summary << "BFS tree rooted at " << g.labelOf(root) << ", depth " << depth;
  report.summary = summary.str();

  maybeWriteDot(options, g, [&](auto& vattrs, auto& eattrs) {
    vattrs[root] = "style=filled,fillcolor=gold";
    for (Vertex v = 0; v < g.order(); ++v) {
      if (v != root && states[v].parent != graph::kNoVertex) {
        eattrs.emplace_back(graph::makeEdge(v, states[v].parent),
                            "penwidth=3,color=forestgreen");
      }
    }
  });
  return report;
}

Report runLeaderTree(const Options& options, const Sinks& sinks,
                     Graph& g, const IdAssignment& ids,
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

  // Elected leader (of vertex 0's component — the whole graph if connected;
  // vertex 0 in external numbers).
  const graph::Id elected = states[vertexLabelled(g, 0)].root;
  Vertex leader = graph::kNoVertex;
  for (Vertex v = 0; v < g.order(); ++v) {
    if (ids.idOf(v) == elected) {
      leader = v;
      break;
    }
  }
  std::uint32_t depth = 0;
  for (const auto& s : states) {
    if (s.root == elected) depth = std::max(depth, s.dist);
  }
  std::ostringstream summary;
  summary << "leader "
          << (leader == graph::kNoVertex ? leader : g.labelOf(leader))
          << " (id " << elected << "), tree depth " << depth;
  report.summary = summary.str();

  maybeWriteDot(options, g, [&](auto& vattrs, auto& eattrs) {
    if (leader != graph::kNoVertex) {
      vattrs[leader] = "style=filled,fillcolor=gold";
    }
    for (Vertex v = 0; v < g.order(); ++v) {
      if (states[v].parent != graph::kNoVertex) {
        eattrs.emplace_back(graph::makeEdge(v, states[v].parent),
                            "penwidth=3,color=forestgreen");
      }
    }
  });
  return report;
}

}  // namespace

void writeAnnotatedDot(
    std::ostream& out, const Graph& g,
    const std::vector<std::string>& vertexAttrs,
    std::vector<std::pair<graph::Edge, std::string>> edgeAttrs) {
  // Renumbered and sorted once, the annotations are merged with the edges,
  // which forEachEdgeByLabel yields in ascending order; the stable sort
  // keeps an edge's first annotation first among its duplicates.
  const std::size_t n = g.order();
  for (auto& [e, attrs] : edgeAttrs) {
    if (e.u < n && e.v < n) e = graph::makeEdge(g.labelOf(e.u), g.labelOf(e.v));
  }
  std::stable_sort(
      edgeAttrs.begin(), edgeAttrs.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  auto next = edgeAttrs.cbegin();
  out << "graph selfstab {\n  node [shape=circle];\n";
  const std::vector<Vertex> byLabel = graph::vertexByLabel(g);
  for (Vertex x = 0; x < n; ++x) {
    const std::string& attrs = vertexAttrs[byLabel.empty() ? x : byLabel[x]];
    out << "  " << x;
    if (!attrs.empty()) out << " [" << attrs << "]";
    out << ";\n";
  }
  graph::forEachEdgeByLabel(g, [&](Vertex u, Vertex v) {
    const graph::Edge e{u, v};
    out << "  " << u << " -- " << v;
    while (next != edgeAttrs.cend() && next->first < e) ++next;
    if (next != edgeAttrs.cend() && next->first == e) {
      out << " [" << next->second << "]";
    }
    out << ";\n";
  });
  out << "}\n";
}

std::size_t roundThreads(std::size_t n) {
  return parallel::workersFor(n, kRoundGrain);
}

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
  return detail::buildGraph(spec, seed, graph::VertexOrder::Points);
}

namespace detail {

Graph buildGraph(const GraphSpec& spec, std::uint64_t seed,
                 graph::VertexOrder udgOrder) {
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
      return graph::connectedRandomGeometric(spec.n, spec.param, rng, nullptr,
                                             64, udgOrder);
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

}  // namespace detail

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
  return detail::execute(options, out, graph::VertexOrder::Space);
}

Report detail::execute(const Options& options, std::ostream& out,
                       graph::VertexOrder udgOrder, bool wideSlices) {
  // smm-arbitrary and hh-sync pick among neighbours by vertex number
  // (core::Choice::Successor and First), so their udg graphs keep point
  // order. Every other protocol decides by IDs and runs on the graph in
  // space order; outputs show external numbers (Graph::labels()).
  const bool picksByNumber = options.protocol == ProtocolKind::SmmArbitrary ||
                             options.protocol == ProtocolKind::HsuHuangSync;
  Graph g = detail::buildGraph(
      options.graph, options.seed,
      picksByNumber ? graph::VertexOrder::Points : udgOrder);
  if (g.order() == 0) throw CliError("empty graph");
  if (wideSlices) g = graph::detail::widened(g);
  if (!options.saveGraphPath.empty()) {
    std::ofstream file(options.saveGraphPath);
    if (!file) {
      throw CliError("cannot write graph file '" + options.saveGraphPath +
                     "'");
    }
    graph::writeEdgeList(file, g);
  }
  const IdAssignment ids = internalIds(options.idOrder, g, options.seed);

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
        << " round(s), worst containment "
        << chaos::containmentText(report.chaosMaxContainment, report.n)
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
