#include "cli/run.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/geometry.hpp"
#include "graph/io.hpp"
#include "parallel/spin_team.hpp"
#include "parallel/workers.hpp"

namespace selfstab::cli {
namespace {

Options makeOptions(ProtocolKind protocol, const std::string& graphSpec) {
  Options o;
  o.protocol = protocol;
  o.graph = parseGraphSpec(graphSpec);
  return o;
}

TEST(BuildGraph, GeneratorsHonorSpec) {
  EXPECT_EQ(buildGraph(parseGraphSpec("path:10"), 1).size(), 9u);
  EXPECT_EQ(buildGraph(parseGraphSpec("cycle:10"), 1).size(), 10u);
  EXPECT_EQ(buildGraph(parseGraphSpec("complete:6"), 1).size(), 15u);
  EXPECT_EQ(buildGraph(parseGraphSpec("grid:3x4"), 1).order(), 12u);
  EXPECT_EQ(buildGraph(parseGraphSpec("tree:20"), 1).size(), 19u);
  EXPECT_TRUE(
      graph::isConnected(buildGraph(parseGraphSpec("gnp:30:0.05"), 2)));
  EXPECT_TRUE(
      graph::isConnected(buildGraph(parseGraphSpec("udg:30:0.3"), 2)));
}

TEST(BuildGraph, DeterministicForSeed) {
  const auto a = buildGraph(parseGraphSpec("gnp:30:0.2"), 7);
  const auto b = buildGraph(parseGraphSpec("gnp:30:0.2"), 7);
  const auto c = buildGraph(parseGraphSpec("gnp:30:0.2"), 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(BuildGraph, ReadsEdgeListFiles) {
  const std::string path = ::testing::TempDir() + "/cli_topo.txt";
  {
    std::ofstream out(path);
    out << "3 2\n0 1\n1 2\n";
  }
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::File;
  spec.path = path;
  const auto g = buildGraph(spec, 1);
  EXPECT_EQ(g.order(), 3u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  std::remove(path.c_str());
}

TEST(BuildGraph, MissingFileThrows) {
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::File;
  spec.path = "/nonexistent/nope.txt";
  EXPECT_THROW(buildGraph(spec, 1), CliError);
}

TEST(BuildIds, AllKindsValid) {
  EXPECT_TRUE(buildIds(IdOrderKind::Identity, 10, 1).isValid(10));
  EXPECT_TRUE(buildIds(IdOrderKind::Reversed, 10, 1).isValid(10));
  EXPECT_TRUE(buildIds(IdOrderKind::Random, 10, 1).isValid(10));
}

TEST(Execute, SmmOnUdg) {
  std::ostringstream out;
  const Report r = execute(makeOptions(ProtocolKind::Smm, "udg:25:0.3"), out);
  EXPECT_TRUE(r.stabilized);
  EXPECT_TRUE(r.predicateOk);
  EXPECT_EQ(r.n, 25u);
  EXPECT_NE(r.summary.find("matching"), std::string::npos);
}

TEST(Execute, EveryStabilizingProtocolVerifies) {
  for (const ProtocolKind kind :
       {ProtocolKind::Smm, ProtocolKind::HsuHuangSync, ProtocolKind::Sis,
        ProtocolKind::Coloring, ProtocolKind::DominatingSet,
        ProtocolKind::BfsTree, ProtocolKind::LeaderTree}) {
    std::ostringstream out;
    Options options = makeOptions(kind, "gnp:20:0.15");
    options.start = StartKind::Random;
    options.seed = 11;
    const Report r = execute(options, out);
    EXPECT_TRUE(r.stabilized) << toString(kind);
    EXPECT_TRUE(r.predicateOk) << toString(kind);
  }
}

TEST(Execute, CounterexampleCertifiesLivelock) {
  std::ostringstream out;
  const Report r =
      execute(makeOptions(ProtocolKind::SmmArbitrary, "cycle:4"), out);
  EXPECT_FALSE(r.stabilized);
  EXPECT_TRUE(r.livelockCertified);
  EXPECT_FALSE(r.predicateOk);
}

TEST(Execute, TraceEmitsRoundLines) {
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Sis, "path:12");
  options.trace = true;
  const Report r = execute(options, out);
  EXPECT_TRUE(r.stabilized);
  EXPECT_NE(out.str().find("round 0:"), std::string::npos);
}

TEST(Execute, RespectsMaxRounds) {
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::SmmArbitrary, "cycle:4");
  options.maxRounds = 3;
  const Report r = execute(options, out);
  EXPECT_FALSE(r.stabilized);
  EXPECT_EQ(r.rounds, 3u);
}

TEST(Execute, WritesDotFile) {
  const std::string path = ::testing::TempDir() + "/cli_out.dot";
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Smm, "path:6");
  options.dotPath = path;
  const Report r = execute(options, out);
  EXPECT_TRUE(r.predicateOk);
  std::ifstream dot(path);
  ASSERT_TRUE(dot.good());
  std::stringstream content;
  content << dot.rdbuf();
  EXPECT_NE(content.str().find("graph selfstab {"), std::string::npos);
  EXPECT_NE(content.str().find("penwidth=3"), std::string::npos);
  std::remove(path.c_str());
}

// Reference writer: for every edge, scans the whole annotation list for
// its first match.
std::string naiveDot(const graph::Graph& g,
                     const std::vector<std::string>& vertexAttrs,
                     const std::vector<std::pair<graph::Edge, std::string>>&
                         edgeAttrs) {
  std::ostringstream out;
  out << "graph selfstab {\n  node [shape=circle];\n";
  for (graph::Vertex v = 0; v < g.order(); ++v) {
    out << "  " << v;
    if (!vertexAttrs[v].empty()) out << " [" << vertexAttrs[v] << "]";
    out << ";\n";
  }
  for (const graph::Edge& e : g.edges()) {
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
  return out.str();
}

TEST(WriteAnnotatedDot, MatchesNaiveWriter) {
  const std::vector<graph::Edge> edges = {{0, 1}, {0, 2}, {1, 2},
                                          {1, 3}, {2, 4}, {3, 4},
                                          {4, 5}, {5, 6}, {0, 6}};
  const graph::Graph g = graph::Graph::fromEdges(7, edges);
  std::vector<std::string> vertexAttrs(g.order());
  vertexAttrs[2] = "style=filled";
  vertexAttrs[5] = "color=red";
  // Out of order, {1, 3} annotated twice (the first must win), and one
  // pair that is not an edge.
  const std::vector<std::pair<graph::Edge, std::string>> edgeAttrs = {
      {{4, 5}, "penwidth=3"},
      {{1, 3}, "color=blue"},
      {{0, 6}, "color=green"},
      {{2, 6}, "color=gray"},
      {{1, 3}, "color=orange"},
      {{0, 1}, "style=dashed"},
  };
  const std::string path = ::testing::TempDir() + "/cli_annotated.dot";
  {
    std::ofstream file(path);
    writeAnnotatedDot(file, g, vertexAttrs, edgeAttrs);
  }
  std::ifstream dot(path);
  std::stringstream content;
  content << dot.rdbuf();
  const std::string expected = naiveDot(g, vertexAttrs, edgeAttrs);
  EXPECT_EQ(content.str(), expected);
  EXPECT_NE(expected.find("1 -- 3 [color=blue];"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WriteAnnotatedDot, LabelledGraphPrintsExternalNumbers) {
  // The space-ordered build of a point set, annotated in its own
  // numbering, prints what the point-ordered build annotated at the same
  // points prints.
  graph::Rng rng(17);
  const std::vector<graph::Point> pts = graph::randomPoints(600, rng);
  const graph::Graph points = graph::unitDiskGraph(pts, 0.08);
  const graph::Graph space =
      graph::unitDiskGraph(pts, 0.08, graph::VertexOrder::Space);
  ASSERT_TRUE(space.labelled());
  const auto annotate = [](const graph::Graph& g, auto pointOf) {
    std::vector<std::string> vertexAttrs(g.order());
    std::vector<std::pair<graph::Edge, std::string>> edgeAttrs;
    for (graph::Vertex v = 0; v < g.order(); ++v) {
      if (pointOf(v) % 7 == 0) vertexAttrs[v] = "p" + std::to_string(pointOf(v));
      for (const graph::Vertex w : g.neighbors(v)) {
        if (pointOf(v) < pointOf(w) && (pointOf(v) + pointOf(w)) % 5 == 0) {
          edgeAttrs.emplace_back(graph::makeEdge(v, w),
                                 std::to_string(pointOf(v)));
        }
      }
    }
    std::ostringstream out;
    writeAnnotatedDot(out, g, vertexAttrs, std::move(edgeAttrs));
    return out.str();
  };
  EXPECT_EQ(annotate(space, [&](graph::Vertex v) { return space.labelOf(v); }),
            annotate(points, [](graph::Vertex v) { return v; }));
}

TEST(Execute, BfsTreeRootsAtSmallestId) {
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::BfsTree, "path:8");
  options.idOrder = IdOrderKind::Reversed;  // smallest ID sits at vertex 7
  const Report r = execute(options, out);
  EXPECT_TRUE(r.predicateOk);
  EXPECT_NE(r.summary.find("rooted at 7"), std::string::npos);
}

TEST(Execute, WritesCsvTrace) {
  const std::string path = ::testing::TempDir() + "/cli_trace.csv";
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Smm, "path:10");
  options.csvPath = path;
  const Report r = execute(options, out);
  EXPECT_TRUE(r.predicateOk);
  std::ifstream csv(path);
  ASSERT_TRUE(csv.good());
  std::string header;
  std::getline(csv, header);
  EXPECT_EQ(header, "round,moves,size");
  std::size_t lines = 0;
  std::string line;
  while (std::getline(csv, line)) ++lines;
  // One row per executed round plus the round-0 snapshot and the final
  // verification round.
  EXPECT_EQ(lines, r.rounds + 2);
  std::remove(path.c_str());
}

TEST(Execute, CsvToUnwritablePathThrows) {
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Sis, "path:5");
  options.csvPath = "/nonexistent/dir/trace.csv";
  EXPECT_THROW(execute(options, out), CliError);
}

TEST(Execute, SaveGraphRoundTripsThroughFileSpec) {
  const std::string path = ::testing::TempDir() + "/cli_saved.txt";
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Sis, "gnp:15:0.2");
  options.seed = 5;
  options.saveGraphPath = path;
  const Report first = execute(options, out);
  EXPECT_TRUE(first.predicateOk);

  // Re-run on the saved topology via file: the graph is identical, and SIS
  // has a unique fixpoint, so the report matches exactly.
  Options replay = makeOptions(ProtocolKind::Sis, "file:" + path);
  replay.seed = 5;
  const Report second = execute(replay, out);
  EXPECT_EQ(second.n, first.n);
  EXPECT_EQ(second.m, first.m);
  EXPECT_EQ(second.summary, first.summary);
  std::remove(path.c_str());
}

TEST(Execute, MetricsFileHoldsJsonAndPrometheus) {
  const std::string path = ::testing::TempDir() + "/cli_metrics.txt";
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Smm, "gnp:20:0.15");
  options.start = StartKind::Random;
  options.seed = 11;
  options.metricsPath = path;
  const Report r = execute(options, out);
  EXPECT_TRUE(r.stabilized);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  // The executor's counters agree with the report: moves exactly; rounds
  // plus the final zero-move verification round.
  EXPECT_NE(text.find("\"moves_total\":" + std::to_string(r.moves)),
            std::string::npos);
  EXPECT_NE(text.find("\"rounds_total\":" + std::to_string(r.rounds + 1)),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rounds_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE round_duration_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("round_snapshot_duration_seconds_count"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Execute, MetricsDashWritesToReportStream) {
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Sis, "path:12");
  options.metricsPath = "-";
  const Report r = execute(options, out);
  EXPECT_TRUE(r.stabilized);
  EXPECT_NE(out.str().find("\"counters\":{"), std::string::npos);
  EXPECT_NE(out.str().find("rounds_total"), std::string::npos);
}

TEST(Execute, EventsFileIsOneRecordPerRound) {
  const std::string path = ::testing::TempDir() + "/cli_events.jsonl";
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Sis, "cycle:15");
  options.eventsPath = path;
  const Report r = execute(options, out);
  EXPECT_TRUE(r.stabilized);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.rfind("{\"type\":\"round\",\"executor\":\"sync\",", 0), 0u)
        << line;
    ++lines;
  }
  // Counted rounds plus the final verification round.
  EXPECT_EQ(lines, r.rounds + 1);
  std::remove(path.c_str());
}

TEST(Execute, MetricsToUnwritablePathThrows) {
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Sis, "path:5");
  options.metricsPath = "/nonexistent/dir/metrics.txt";
  EXPECT_THROW(execute(options, out), CliError);
}

TEST(Execute, FlatKernelMatchesGenericExactly) {
  // The flat kernels promise bit-identical trajectories, so the whole report
  // (rounds, moves, summary) must agree between --kernel generic and flat,
  // for both protocols and both schedules.
  for (const ProtocolKind kind : {ProtocolKind::Smm, ProtocolKind::Sis}) {
    for (const engine::Schedule schedule :
         {engine::Schedule::Dense, engine::Schedule::Active}) {
      std::ostringstream out;
      Options generic = makeOptions(kind, "gnp:30:0.12");
      generic.start = StartKind::Random;
      generic.seed = 23;
      generic.schedule = schedule;
      generic.kernel = engine::KernelMode::Generic;
      Options flat = generic;
      flat.kernel = engine::KernelMode::Flat;

      const Report a = execute(generic, out);
      const Report b = execute(flat, out);
      EXPECT_EQ(a.kernel, "generic") << toString(kind);
      EXPECT_EQ(b.kernel, "flat") << toString(kind);
      EXPECT_EQ(a.rounds, b.rounds) << toString(kind);
      EXPECT_EQ(a.moves, b.moves) << toString(kind);
      EXPECT_EQ(a.stabilized, b.stabilized) << toString(kind);
      EXPECT_EQ(a.summary, b.summary) << toString(kind);
    }
  }
}

TEST(Execute, AutoKernelSelectsFlatWhereAvailable) {
  std::ostringstream out;
  EXPECT_EQ(execute(makeOptions(ProtocolKind::Smm, "path:10"), out).kernel,
            "flat");
  EXPECT_EQ(execute(makeOptions(ProtocolKind::Sis, "path:10"), out).kernel,
            "flat");
  // Protocols without a flat kernel silently fall back under auto.
  EXPECT_EQ(execute(makeOptions(ProtocolKind::Coloring, "path:10"), out).kernel,
            "generic");
}

TEST(Execute, ForcedFlatKernelThrowsWhereUnavailable) {
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Coloring, "path:10");
  options.kernel = engine::KernelMode::Flat;
  EXPECT_THROW(execute(options, out), CliError);
}

TEST(Execute, JsonReportCarriesKernelAndRate) {
  std::ostringstream out;
  Options options = makeOptions(ProtocolKind::Sis, "gnp:25:0.15");
  options.json = true;
  const Report r = execute(options, out);
  EXPECT_TRUE(r.stabilized);
  EXPECT_EQ(r.kernel, "flat");
  EXPECT_GE(r.evaluationsPerSecond, 0.0);

  std::ostringstream json;
  printReportJson(r, json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"kernel\":\"flat\""), std::string::npos);
  EXPECT_NE(text.find("\"schedule\":"), std::string::npos);
  EXPECT_NE(text.find("\"evaluationsPerSecond\":"), std::string::npos);
  EXPECT_NE(text.find("\"rounds\":" + std::to_string(r.rounds)),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

// selfstab sizes its round pool and its unit-disk build from n and the CPUs
// it may run on, so a run above both thresholds (20000 vertices: four
// workers each, where four CPUs are available) must be byte for byte the
// run of a process held to one CPU, as `taskset -c 0` would: same report,
// same saved graph, same event log, with and without a fault campaign.
// Only the worker_threads gauge differs.
TEST(Execute, PooledRunMatchesSingleCpuRun) {
  const std::string dir = ::testing::TempDir();
  const std::string plan = dir + "/cli_pool_plan.json";
  {
    // The templates space faults 2n + 8 rounds apart; a short plan keeps
    // the campaign to ~100 rounds at this n.
    std::ofstream file(plan);
    file << R"({"events":[
      {"at":5,"kind":"corrupt","fraction":0.1},
      {"at":30,"kind":"crash","node":7},
      {"at":60,"kind":"rejoin","node":7},
      {"at":70,"kind":"stuck","node":11},
      {"at":90,"kind":"release","node":11},
      {"at":100,"kind":"corrupt","fraction":0.05}]})";
  }
  ASSERT_EQ(roundThreads(20000),
            std::min<std::size_t>(parallel::availableCpus(), 4));
  for (const ProtocolKind kind : {ProtocolKind::Smm, ProtocolKind::Sis}) {
    for (const std::string& chaos : {std::string(), plan}) {
      Options options = makeOptions(kind, "udg:20000:0.02");
      options.start = StartKind::Random;
      options.idOrder = IdOrderKind::Random;
      options.seed = 9;
      options.chaosSpec = chaos;
      options.saveGraphPath = dir + "/cli_pool_graph.txt";
      options.eventsPath = dir + "/cli_pool_events.jsonl";
      options.metricsPath = dir + "/cli_pool_metrics.txt";
      struct Run {
        Report report;
        std::string graph, events, metrics;
      };
      const auto run = [&] {
        std::ostringstream out;
        Run r{execute(options, out), readFile(options.saveGraphPath),
              readFile(options.eventsPath), readFile(options.metricsPath)};
        return r;
      };

      cpu_set_t saved;
      CPU_ZERO(&saved);
      ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
      int first = 0;
      while (!CPU_ISSET(first, &saved)) ++first;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(first, &one);
      ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
      const Run serial = run();
      ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
      const std::uint64_t dispatches = parallel::team().dispatches();
      const Run pooled = run();
      // The pooled run really ran passes on more than one thread.
      if (roundThreads(20000) > 1) {
        EXPECT_GT(parallel::team().dispatches(), dispatches);
        EXPECT_GT(parallel::team().size(), 1U);
      }

      const std::string what = std::string(toString(kind)) + " " + chaos;
      EXPECT_TRUE(chaos.empty() ? pooled.report.stabilized
                                : pooled.report.chaosFaults == 6)
          << what;
      EXPECT_EQ(pooled.report.protocol, serial.report.protocol) << what;
      EXPECT_EQ(pooled.report.n, serial.report.n) << what;
      EXPECT_EQ(pooled.report.m, serial.report.m) << what;
      EXPECT_EQ(pooled.report.rounds, serial.report.rounds) << what;
      EXPECT_EQ(pooled.report.moves, serial.report.moves) << what;
      EXPECT_EQ(pooled.report.stabilized, serial.report.stabilized) << what;
      EXPECT_EQ(pooled.report.predicateOk, serial.report.predicateOk) << what;
      EXPECT_EQ(pooled.report.kernel, serial.report.kernel) << what;
      EXPECT_EQ(pooled.report.summary, serial.report.summary) << what;
      EXPECT_EQ(pooled.report.chaosFaults, serial.report.chaosFaults) << what;
      EXPECT_EQ(pooled.report.chaosRecoveredAll,
                serial.report.chaosRecoveredAll)
          << what;
      EXPECT_EQ(pooled.report.chaosMaxRecoveryRounds,
                serial.report.chaosMaxRecoveryRounds)
          << what;
      EXPECT_EQ(pooled.report.chaosMaxContainment,
                serial.report.chaosMaxContainment)
          << what;
      EXPECT_EQ(pooled.report.chaosSafetyViolations,
                serial.report.chaosSafetyViolations)
          << what;
      EXPECT_TRUE(pooled.graph == serial.graph) << what;
      EXPECT_FALSE(serial.events.empty()) << what;
      EXPECT_TRUE(pooled.events == serial.events) << what;
      EXPECT_NE(serial.metrics.find("\nworker_threads 1\n"),
                std::string::npos)
          << what;
      const std::string workers =
          "\nworker_threads " + std::to_string(roundThreads(20000)) + "\n";
      EXPECT_NE(pooled.metrics.find(workers), std::string::npos) << what;
    }
  }
  std::remove(plan.c_str());
  std::remove((dir + "/cli_pool_graph.txt").c_str());
  std::remove((dir + "/cli_pool_events.jsonl").c_str());
  std::remove((dir + "/cli_pool_metrics.txt").c_str());
}

TEST(PrintReport, RendersAllFields) {
  Report r;
  r.protocol = "smm";
  r.n = 5;
  r.m = 4;
  r.rounds = 3;
  r.moves = 7;
  r.stabilized = true;
  r.predicateOk = true;
  r.summary = "matching: 2 pair(s)";
  std::ostringstream out;
  printReport(r, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("protocol    : smm"), std::string::npos);
  EXPECT_NE(text.find("5 nodes, 4 edges"), std::string::npos);
  EXPECT_NE(text.find("stabilized  : yes"), std::string::npos);
  EXPECT_NE(text.find("matching: 2 pair(s)"), std::string::npos);
}

// The monitor's cap n is no distance: the text says "unreachable" and
// keeps every other field of the chaos line in its order; JSON keeps n.
TEST(PrintReport, ContainmentCapReadsUnreachable) {
  std::ostringstream sink;
  const Report r = execute(
      parseOptions({"-p", "smm", "-g", "udg:400:0.1", "--start", "random",
                    "--seed", "5", "--chaos", "churn:11"}),
      sink);
  ASSERT_EQ(r.chaosMaxContainment, r.n);
  std::ostringstream text;
  printReport(r, text);
  EXPECT_NE(text.str().find("chaos       : 10 fault(s), all recovered, "
                            "worst recovery 21 round(s), worst containment "
                            "unreachable, safety violations 0\n"),
            std::string::npos)
      << text.str();
  std::ostringstream json;
  printReportJson(r, json);
  EXPECT_NE(json.str().find("\"chaosMaxContainment\":400,"),
            std::string::npos);

  Report measured = r;
  measured.chaosMaxContainment = r.n - 1;
  std::ostringstream distance;
  printReport(measured, distance);
  EXPECT_NE(distance.str().find("worst containment 399, safety violations"),
            std::string::npos);
}

// A temporary path stem of the running test case's own: ctest runs the
// cases side by side.
std::string caseStem() {
  std::string name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + "/order_" + name;
}

// Every output of a run, with the udg graph stored in `order` (and its
// slices wide if `wide`): trace lines, the text and JSON reports (the
// JSON's measured rate zeroed) and the events, CSV, saved-graph and DOT
// files.
std::vector<std::string> runOutputs(Options options, graph::VertexOrder order,
                                    bool wide = false) {
  const std::string stem = caseStem();
  options.trace = true;
  options.json = true;
  options.eventsPath = stem + "_events.jsonl";
  options.csvPath = stem + "_trace.csv";
  options.saveGraphPath = stem + "_graph.txt";
  options.dotPath = stem + "_graph.dot";
  std::ostringstream out;
  Report report = detail::execute(options, out, order, wide);
  report.evaluationsPerSecond = 0;
  printReport(report, out);
  printReportJson(report, out);
  std::vector<std::string> outputs = {out.str()};
  for (const std::string* path :
       {&options.eventsPath, &options.csvPath, &options.saveGraphPath,
        &options.dotPath}) {
    outputs.push_back(readFile(*path));
    std::remove(path->c_str());
  }
  return outputs;
}

// The storage of a udg graph is invisible: a run on the space-ordered
// build, with its slices narrow (as built) or wide, shows, byte for byte,
// what the same run on the point-ordered build shows, whatever the start,
// the IDs or the fault campaign ("none", a named campaign or "plan").
void expectSpaceOrderInvisible(ProtocolKind protocol,
                               const std::string& campaign, StartKind start) {
  const std::string spec = "udg:320:0.11";
  const graph::Graph built = detail::buildGraph(parseGraphSpec(spec), 5,
                                                graph::VertexOrder::Space);
  ASSERT_TRUE(built.labelled());
  ASSERT_TRUE(built.narrow());
  const std::vector<std::string> names = {"out+reports", "events", "csv",
                                          "save-graph", "dot"};
  std::string chaos = campaign;
  if (chaos == "none") chaos.clear();
  if (chaos == "plan") {
    // A plan naming nodes explicitly, in external numbers.
    chaos = caseStem() + "_plan.json";
    std::ofstream file(chaos);
    file << R"({"events":[{"at":6,"kind":"corrupt","nodes":[3,250,17,100]},)"
         << R"({"at":40,"kind":"stuck","node":42},)"
         << R"({"at":44,"kind":"garble","node":7},)"
         << R"({"at":80,"kind":"release","node":42}]})";
  }
  for (const IdOrderKind ids : {IdOrderKind::Identity, IdOrderKind::Random}) {
    Options options = makeOptions(protocol, spec);
    options.seed = 5;
    options.start = start;
    options.idOrder = ids;
    options.chaosSpec = chaos;
    if (!chaos.empty()) options.maxRounds = 300;
    const auto points = runOutputs(options, graph::VertexOrder::Points);
    for (const bool wide : {false, true}) {
      const auto space = runOutputs(options, graph::VertexOrder::Space, wide);
      for (std::size_t k = 0; k < space.size(); ++k) {
        EXPECT_EQ(space[k], points[k])
            << toString(protocol) << " start "
            << (start == StartKind::Clean ? "clean" : "random")
            << (wide ? " wide" : " narrow") << " ids "
            << (ids == IdOrderKind::Identity ? "identity" : "random")
            << " chaos '" << campaign << "': " << names[k] << " differ";
      }
    }
    EXPECT_NE(points[0].find("verified    : yes"), std::string::npos)
        << toString(protocol) << " ids "
        << (ids == IdOrderKind::Identity ? "identity" : "random")
        << " chaos '" << campaign << "'";
  }
  if (campaign == "plan") std::remove(chaos.c_str());
}

const std::vector<ProtocolKind> kOrderProtocols = {
    ProtocolKind::Smm,           ProtocolKind::Sis,     ProtocolKind::Coloring,
    ProtocolKind::DominatingSet, ProtocolKind::BfsTree, ProtocolKind::LeaderTree};

// Fault-free runs, every protocol and start: about 0.15 s in all.
TEST(Execute, SpaceOrderIsInvisible) {
  for (const ProtocolKind protocol : kOrderProtocols) {
    for (const StartKind start : {StartKind::Clean, StartKind::Random}) {
      expectSpaceOrderInvisible(protocol, "none", start);
    }
  }
}

// Runs under fault campaigns cost up to a few seconds each (leadertree
// under churn), so they are one case per protocol, campaign and start.
const std::vector<std::string> kOrderCampaigns = {
    "crash-storm:3", "churn:5", "rolling-partition:5", "plan"};

class SpaceOrder : public ::testing::TestWithParam<
                       std::tuple<ProtocolKind, std::size_t, StartKind>> {};

TEST_P(SpaceOrder, IsInvisible) {
  const auto [protocol, campaign, start] = GetParam();
  expectSpaceOrderInvisible(protocol, kOrderCampaigns[campaign], start);
}

INSTANTIATE_TEST_SUITE_P(
    EveryProtocol, SpaceOrder,
    ::testing::Combine(
        ::testing::ValuesIn(kOrderProtocols),
        ::testing::Range(std::size_t{0}, kOrderCampaigns.size()),
        ::testing::Values(StartKind::Clean, StartKind::Random)),
    [](const ::testing::TestParamInfo<SpaceOrder::ParamType>& param) {
      std::string name = std::string(toString(std::get<0>(param.param))) +
                         "_" + kOrderCampaigns[std::get<1>(param.param)] +
                         (std::get<2>(param.param) == StartKind::Clean
                              ? "_clean"
                              : "_random");
      std::erase_if(name, [](char c) { return c == '-' || c == ':'; });
      return name;
    });

}  // namespace
}  // namespace selfstab::cli
