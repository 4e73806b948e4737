// Execution engine of the `selfstab` CLI: materialize the graph, run the
// requested protocol, verify the stabilized predicate, and report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "cli/options.hpp"
#include "graph/graph.hpp"
#include "graph/id_order.hpp"

namespace selfstab::cli {

struct Report {
  std::string protocol;
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t rounds = 0;
  std::size_t moves = 0;
  bool stabilized = false;
  bool livelockCertified = false;  ///< deterministic revisit detected
  bool predicateOk = false;
  std::string kernel;    ///< evaluation path taken: "flat" or "generic"
  std::string schedule;  ///< "dense" or "active"
  double evaluationsPerSecond = 0.0;  ///< last-round rate (0 = not measured)
  std::string summary;  ///< e.g. "maximal matching: 12 pairs"

  // Fault-campaign outcome (--chaos); see docs/ROBUSTNESS.md.
  bool chaosActive = false;
  std::size_t chaosFaults = 0;            ///< fault events injected
  bool chaosRecoveredAll = false;         ///< every window re-stabilized
  std::size_t chaosMaxRecoveryRounds = 0;
  std::size_t chaosMaxContainment = 0;    ///< worst BFS containment radius
  std::size_t chaosSafetyViolations = 0;
};

/// Edge count a generator spec will produce: exact for path, cycle, star,
/// tree, grid and complete; the expectation p·n(n−1)/2 for gnp and
/// n(n−1)/2·min(1, πr²) for udg. 0 for files, known only once read.
[[nodiscard]] double estimateEdges(const GraphSpec& spec);

/// Fails fast on a spec that cannot be built: throws CliError, naming the
/// estimate, when the vertex count reaches graph::kNoVertex or when
/// estimateEdges × 40 bytes (a measured run's peak RSS per edge) exceeds
/// `memoryBytes`.
void checkGraphSize(const GraphSpec& spec, double memoryBytes);

/// The same budget for an edge-list file, checked against its header before
/// anything is allocated: throws CliError ("bad graph file") when `vertices`
/// × 64 bytes + `edges` × 40 bytes exceeds `memoryBytes`.
void checkGraphFileHeader(const std::string& path, std::uint64_t vertices,
                          std::uint64_t edges, double memoryBytes);

/// Builds the topology described by `spec` (reads files for Kind::File).
/// Generator-based specs retry/connect so the result is connected, matching
/// the paper's system model. Runs checkGraphSize against the machine's
/// physical memory before generating anything (for files: before
/// allocating the header's vertex count).
[[nodiscard]] graph::Graph buildGraph(const GraphSpec& spec,
                                      std::uint64_t seed);

[[nodiscard]] graph::IdAssignment buildIds(IdOrderKind kind, std::size_t n,
                                           std::uint64_t seed);

/// Runs one protocol per `options`; trace lines (when enabled) and the DOT
/// file go through/into the given stream/path. Throws CliError on
/// unusable input.
[[nodiscard]] Report execute(const Options& options, std::ostream& out);

/// Renders the report in the CLI's human-readable format.
void printReport(const Report& report, std::ostream& out);

/// Machine-readable form of the same report: one JSON object (--json).
void printReportJson(const Report& report, std::ostream& out);

}  // namespace selfstab::cli
